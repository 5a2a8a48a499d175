"""Exception taxonomy for the smoothgen library.

Every error raised by this package derives from :class:`SmoothgenError`,
so callers can catch one type at API boundaries.  The CLI maps
``SmoothgenError`` to exit code 2 and plain I/O failures to exit code 1.
"""

from __future__ import annotations


class SmoothgenError(Exception):
    """Base class for all errors raised by this package."""


class AllZeroError(SmoothgenError):
    """Weight vector sums to zero, so no distribution can be formed."""


class NegativeMassError(SmoothgenError):
    """A probability mass or raw weight is negative."""


class OverflowGuardError(SmoothgenError):
    """A requested product construction exceeds the configured size guard."""


class InexactCarryError(SmoothgenError):
    """An exact carry between neighbouring type classes left a remainder."""


class AlphabetMismatchError(SmoothgenError):
    """Two distributions that must share an alphabet do not."""


class BadParamError(SmoothgenError):
    """A parameter is outside its documented domain."""


class C2PrimeViolatedError(SmoothgenError):
    """The generator grows superlinearly, so no finite offset exists."""


class OutOfRangeError(SmoothgenError):
    """A target value lies outside the invertible range of the generator."""


class TooLargeError(SmoothgenError):
    """The instance is too large for an exhaustive reference computation."""


class TargetInfeasibleError(SmoothgenError):
    """The requested divergence target cannot be met by any construction."""


class DegenerateSupportError(SmoothgenError):
    """A construction produced an empty selection or an empty cell."""


class MTooSmallError(SmoothgenError):
    """The output-size formula yields no room for even a single cell."""


class TooFewPointsError(SmoothgenError):
    """A sweep statistic needs at least two points."""
