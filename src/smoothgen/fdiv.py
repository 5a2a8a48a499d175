"""Convex generators and f-divergences over finite alphabets.

A generator is a convex function f on (0, inf) with f(1) = 0.  The
divergence it induces between two finite distributions P and Q is

    sum_z Q(z) * f(P(z) / Q(z))

with the boundary conventions 0*f(0/0) = 0, f(0) = lim_{t->0+} f(t),
and 0*f(a/0) = a * c_f where c_f = lim_{u->inf} f(u)/u.  Values are in
nats throughout.

Every divergence in the package is one counted sum over (count, p, q)
groups of atoms that share a P-mass and a Q-mass, with these conventions
applied once per group: :func:`f_divergence` sums one group per atom,
the constructions one group per level of a source's table.

Generators whose c_f is finite admit an offset form
f0(t) = f(t) + c_f*(1 - t) that induces the same divergence while being
nonincreasing with a zero slope at infinity, hence invertible on [0, 1].
Its inverse f0^{-1} turns a divergence target into the mass a smoothing
keeps; the builders, the converses and the spectrum quantiles all read
the target through one reader of it, which on exact sources takes a float
target at its binary value and returns a ``Fraction``.  Exact rational
arithmetic is preserved wherever the generator allows it: evaluating a
rational-valued generator at a ``Fraction`` returns a ``Fraction``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Callable, Optional, Union

from .errors import (
    AlphabetMismatchError,
    BadParamError,
    C2PrimeViolatedError,
    OutOfRangeError,
)

Number = Union[int, float, Fraction]

__all__ = [
    "FFunction",
    "OffsetFunction",
    "DivergenceValue",
    "ConditionReport",
    "kl",
    "reverse_kl",
    "hellinger",
    "sq_hellinger",
    "variational",
    "half_variational",
    "alpha_divergence",
    "e_gamma",
    "registry",
    "parse_generator",
    "f_divergence",
    "offset",
    "inverse",
    "check_conditions",
]


@dataclass(frozen=True)
class FFunction:
    """A registered convex generator together with its analytic metadata.

    ``eval`` must accept any positive number and may return a ``Fraction``
    when the input is rational and the generator is rational-valued.
    ``f_at_zero`` and ``c_f`` are the limits at 0+ and infinity; either may
    be ``math.inf``.  ``closed_inverse`` maps a divergence level D to
    f0^{-1}(D) when a closed form is known.
    """

    name: str
    eval: Callable[[Number], Number]
    f_at_zero: Number
    c_f: Number
    closed_inverse: Optional[Callable[[Number], Number]] = None
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise BadParamError("generator needs a nonempty name")
        at_one = self.eval(1)
        if at_one != 0:
            raise BadParamError(f"f(1) must be 0, got {at_one!r}")
        if self.f_at_zero != math.inf and self.f_at_zero < 0:
            raise BadParamError("f(0+) cannot be negative for a convex f with f(1)=0")

    @property
    def family(self) -> str:
        """Name with any parameter suffix stripped."""
        return self.name.partition(":")[0]


@dataclass(frozen=True)
class OffsetFunction:
    """The offset form f0(t) = f(t) + c_f*(1 - t) of a generator.

    Induces the same divergence as its origin, is nonincreasing on
    (0, inf), and has zero slope at infinity, which makes it invertible
    on [0, 1].  Only defined for origins with finite c_f.
    """

    origin: FFunction

    def eval(self, t: Number) -> Number:
        return self.origin.eval(t) + self.origin.c_f * (1 - t)

    @property
    def name(self) -> str:
        return f"offset({self.origin.name})"

    @property
    def f_at_zero(self) -> Number:
        return self.origin.f_at_zero + self.origin.c_f

    @property
    def c_f(self) -> int:
        return 0

    @property
    def closed_inverse(self) -> Optional[Callable[[Number], Number]]:
        return self.origin.closed_inverse


@dataclass(frozen=True)
class DivergenceValue:
    """An f-divergence evaluation: a nonnegative extended real in nats."""

    value: Number
    finite: bool

    def __post_init__(self) -> None:
        if self.finite:
            if self.value == math.inf:
                raise BadParamError("finite DivergenceValue cannot hold inf")
            if self.value < -1e-12:
                raise BadParamError(f"divergence {self.value!r} is negative")
        elif self.value != math.inf:
            raise BadParamError("non-finite DivergenceValue must hold inf")

    def __float__(self) -> float:
        return float(self.value)


def kl() -> FFunction:
    """Relative entropy: f(t) = t*log(t).  No finite c_f, no offset form."""
    return FFunction(
        name="kl",
        eval=lambda t: t * math.log(t),
        f_at_zero=0,
        c_f=math.inf,
    )


def reverse_kl() -> FFunction:
    """Reverse relative entropy: f(t) = -log(t)."""
    return FFunction(
        name="reverse-kl",
        eval=lambda t: -math.log(t),
        f_at_zero=math.inf,
        c_f=0,
        closed_inverse=lambda d: math.exp(-d),
    )


def hellinger() -> FFunction:
    """Hellinger-affinity generator f(t) = 1 - sqrt(t)."""
    return FFunction(
        name="hellinger",
        eval=lambda t: 1 - math.sqrt(t),
        f_at_zero=1,
        c_f=0,
        closed_inverse=lambda d: (1 - d) ** 2,
    )


def sq_hellinger() -> FFunction:
    """Squared Hellinger distance generator f(t) = (1 - sqrt(t))^2."""
    return FFunction(
        name="sq-hellinger",
        eval=lambda t: (1 - math.sqrt(t)) ** 2,
        f_at_zero=1,
        c_f=1,
        closed_inverse=lambda d: (1 - d / 2) ** 2,
    )


def variational() -> FFunction:
    """Variational (total) distance generator f(t) = |t - 1|."""
    return FFunction(
        name="variational",
        eval=lambda t: abs(t - 1),
        f_at_zero=1,
        c_f=1,
        closed_inverse=lambda d: 1 - d / 2,
    )


def half_variational() -> FFunction:
    """Half variational distance generator f(t) = max(1 - t, 0)."""
    return FFunction(
        name="half-variational",
        eval=lambda t: max(1 - t, 0),
        f_at_zero=1,
        c_f=0,
        closed_inverse=lambda d: 1 - d,
    )


def alpha_divergence(a: float) -> FFunction:
    """Order-a divergence, 0 < a < 1: f(t) = (t^a - a*t - (1-a)) / (a*(a-1))."""
    a = float(a)
    if not 0.0 < a < 1.0:
        raise BadParamError(f"alpha order must lie in (0, 1), got {a}")
    denom = a * (a - 1.0)
    return FFunction(
        name=f"alpha:{a:g}",
        eval=lambda t: (t ** a - a * t - (1.0 - a)) / denom,
        f_at_zero=1.0 / a,
        c_f=1.0 / (1.0 - a),
        closed_inverse=lambda d: (d * denom + 1.0) ** (1.0 / a),
        params=(a,),
    )


def e_gamma(g: Number) -> FFunction:
    """Hockey-stick generator, g >= 1: f(t) = max(g - t, 0) + 1 - g.

    Floats are taken at their decimal face value (``Fraction(str(g))``) so
    that rational inputs stay rational through ``eval``.
    """
    g_exact = Fraction(str(g)) if isinstance(g, float) else Fraction(g)
    if g_exact < 1:
        raise BadParamError(f"e-gamma parameter must be >= 1, got {g}")
    g_float = float(g_exact)
    return FFunction(
        name=f"e-gamma:{g_float:g}",
        eval=lambda t: max(g_exact - t, 0) + 1 - g_exact,
        f_at_zero=1,
        c_f=0,
        closed_inverse=lambda d: 1 - d,
        params=(g_float,),
    )


_PLAIN = {
    "kl": kl,
    "reverse-kl": reverse_kl,
    "hellinger": hellinger,
    "sq-hellinger": sq_hellinger,
    "variational": variational,
    "half-variational": half_variational,
}


def registry(alpha: float = 0.5, gamma: Number = 2) -> list[FFunction]:
    """All built-in generators, parametric families at the given orders."""
    return [*(make() for make in _PLAIN.values()), alpha_divergence(alpha), e_gamma(gamma)]


def parse_generator(spec: str) -> FFunction:
    """Build a generator from a CLI string such as ``alpha:0.5``."""
    base, _, arg = spec.strip().partition(":")
    if base in _PLAIN:
        if arg:
            raise BadParamError(f"{base} takes no parameter, got {spec!r}")
        return _PLAIN[base]()
    try:
        if base == "alpha":
            if not arg:
                raise BadParamError("alpha needs an order, e.g. alpha:0.5")
            return alpha_divergence(float(arg))
        if base == "e-gamma":
            if not arg:
                raise BadParamError("e-gamma needs a parameter, e.g. e-gamma:2.0")
            return e_gamma(Fraction(arg))
    except (ValueError, ZeroDivisionError):
        raise BadParamError(f"{base} parameter must be a finite number, got {arg!r}")
    raise BadParamError(f"unknown generator {spec!r}")


def _divergence_sum(f: FFunction, terms) -> DivergenceValue:
    """sum count * Q(z) * f(P(z)/Q(z)) over (count, p, q) groups, in order.

    Each group is ``count`` atoms of P-mass p and Q-mass q, with the
    boundary conventions applied to it; a group of one atom is added
    without the multiplication.  An infinite term ends the sum.
    """
    total: Number = 0
    for count, p, q in terms:
        if q > 0:
            if p > 0:
                term = q * f.eval(p / q)
            elif f.f_at_zero == math.inf:
                return DivergenceValue(math.inf, finite=False)
            else:
                term = q * f.f_at_zero
        elif p > 0:
            if f.c_f == math.inf:
                return DivergenceValue(math.inf, finite=False)
            if f.c_f == 0:
                continue
            term = p * f.c_f
        else:
            continue
        if term == 0 and not isinstance(term, float) and not isinstance(total, int):
            # An exact zero changes neither a Fraction total nor a float one,
            # which starts from the int 0 and so is never -0.0; only an int
            # total can still take its type.
            continue
        total += term if count == 1 else count * term
    if total < 0 and total > -1e-12:
        total = 0
    return DivergenceValue(total, finite=True)


def f_divergence(f: FFunction, P, Q) -> DivergenceValue:
    """Evaluate sum_z Q(z) * f(P(z)/Q(z)) with the boundary conventions.

    P and Q must carry identical label tuples.  Exact inputs with a
    rational-valued generator produce an exact ``Fraction`` value.
    """
    if P.labels != Q.labels:
        if len(P.labels) != len(Q.labels):
            raise AlphabetMismatchError(
                f"alphabets differ: {len(P.labels)} vs {len(Q.labels)} labels"
            )
        i = next(i for i, (a, b) in enumerate(zip(P.labels, Q.labels)) if a is not b and a != b)
        raise AlphabetMismatchError(
            f"alphabets differ at position {i}: P has label {P.labels[i]!r}, Q has {Q.labels[i]!r}"
        )
    return _divergence_sum(f, zip(repeat(1), P.masses, Q.masses))


def offset(f: FFunction) -> OffsetFunction:
    """Offset form of f; requires a finite slope at infinity."""
    if isinstance(f, OffsetFunction):
        return f
    if f.c_f == math.inf:
        raise C2PrimeViolatedError(
            f"{f.name} grows superlinearly (c_f diverges); no offset form exists"
        )
    return OffsetFunction(origin=f)


def inverse(f0: OffsetFunction, D: Number) -> Number:
    """Invert a nonincreasing offset generator: inf{t : f0(t) = D}.

    Closed forms are used when registered; otherwise monotone bisection
    on [0, 1] to interval width 1e-12 padded with safety iterations.
    On flat segments the infimum (left edge) is returned.
    """
    if D < 0:
        raise OutOfRangeError(f"divergence target must be nonnegative, got {D}")
    if not D < f0.f_at_zero:
        raise OutOfRangeError(f"target {float(D)} not below f0(0) = {f0.f_at_zero}")
    ci = f0.closed_inverse
    if ci is not None:
        return ci(D)
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f0.eval(mid) <= D:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-13:
            break
    return hi


def _check_finite(name: str, *values: Optional[Number]) -> None:
    """Refuse a float parameter that is nan or infinite.

    Ints and ``Fraction``s are finite and ``None`` is an absent optional
    parameter, so only floats are read.  A sweep calls this before it
    reads a target as ``Fraction(level)``, which would fail on a
    non-finite float with a bare ValueError or OverflowError.
    """
    for value in values:
        if isinstance(value, float) and not math.isfinite(value):
            raise BadParamError(f"{name} must be finite, got {value!r}")


def _inverse_level(f0: OffsetFunction, level: Number, exact: bool) -> Number:
    """f0^{-1}(level), the one reading of a divergence target as a mass.

    On an exact source a float level is read at its binary value,
    ``Fraction(level)``, and a float inverse is coerced to a ``Fraction``
    for the exact mass compares that follow; other sources get
    :func:`inverse` as it is.
    """
    lvl = Fraction(level) if exact and isinstance(level, float) else level
    t = inverse(f0, lvl)
    if exact and isinstance(t, float):
        t = Fraction(t)
    return t


@dataclass(frozen=True)
class ConditionReport:
    """Pass/fail verdicts for the admissibility conditions of a generator.

    C1: f is nonincreasing on (0, inf) with f(0+) > 0.
    C2: f(u)/u -> 0, i.e. c_f = 0.
    C2': f(u)/u has a finite limit c_f.
    C3: f(e^{-n*b}) / e^{n*a} -> 0 for every a, b > 0.
    C3': f(e^{-n*b}) / e^{sqrt(n)*a} -> 0 for every a, b > 0.

    ``analytic`` is True when the verdicts come from the built-in table
    for registered families; the numeric grid results are then kept in
    ``numeric`` for comparison.
    """

    name: str
    c1: bool
    c2: bool
    c2_prime: bool
    c3: bool
    c3_prime: bool
    c_f_estimate: float
    analytic: bool
    numeric: dict[str, bool]
    warnings: tuple[str, ...] = ()


_ANALYTIC_TABLE: dict[str, tuple[bool, bool, bool, bool, bool]] = {
    # family: (C1, C2, C2', C3, C3')
    "kl": (False, False, False, True, True),
    "reverse-kl": (True, True, True, True, True),
    "hellinger": (True, True, True, True, True),
    "sq-hellinger": (False, False, True, True, True),
    "variational": (False, False, True, True, True),
    "half-variational": (True, True, True, True, True),
    "alpha": (False, False, True, True, True),
    "e-gamma": (True, True, True, True, True),
}


def _estimate_c_f(f: FFunction) -> float:
    """Slope at infinity via Aitken extrapolation on u in {1e4, 1e8, 1e12}.

    Power-law corrections decay geometrically along the ladder, so one
    Aitken step removes the dominant term almost exactly.
    """
    us = (1e4, 1e8, 1e12)
    e = [float(f.eval(u)) / u for u in us]
    d1, d2 = e[1] - e[0], e[2] - e[1]
    if e[2] > e[1] > e[0]:
        # Convergence needs decaying increments; constant increments mean
        # logarithmic divergence, growing ones polynomial divergence.
        if e[2] > 10.0 * max(e[0], 1.0) or d2 > 0.25 * d1 > 0.0:
            return math.inf
    denom = d2 - d1
    if denom == 0.0:
        return e[2]
    accel = e[2] - d2 * d2 / denom
    if not math.isfinite(accel):
        return e[2]
    return accel


def _numeric_conditions(f: FFunction) -> tuple[dict[str, bool], float]:
    # 241 log-spaced points on [1e-6, 1e6].
    lo, hi = math.log(1e-6), math.log(1e6)
    step = (hi - lo) / 240
    vals = [float(f.eval(math.exp(lo + i * step))) for i in range(241)]
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    f0_positive = float(f.f_at_zero) > 0 if f.f_at_zero != math.inf else True
    c1 = nonincreasing and f0_positive

    cf = _estimate_c_f(f)
    c2 = abs(cf) <= 1e-6
    c2p = math.isfinite(cf)

    pairs = ((1.0, 1.0), (0.5, 2.0), (2.0, 0.5), (0.25, 3.0))
    c3 = all(_tail_vanishes(f, a, b, root=False) for a, b in pairs)
    c3p = all(_tail_vanishes(f, a, b, root=True) for a, b in pairs)
    return (
        {"c1": c1, "c2": c2, "c2_prime": c2p, "c3": c3, "c3_prime": c3p},
        cf,
    )


def _tail_vanishes(f: FFunction, a: float, b: float, root: bool) -> bool:
    """Check f(e^{-n*b}) shrinks against e^{n*a} (or e^{sqrt(n)*a}) up to n = 1e4."""
    ratios = []
    for n in (10.0, 100.0, 1000.0, 10000.0):
        arg = math.exp(-min(n * b, 700.0))
        v = float(f.eval(arg))
        denom_log = (math.sqrt(n) if root else n) * a
        if v <= 0.0:
            ratios.append(0.0)
        else:
            ratios.append(math.exp(min(math.log(v) - denom_log, 700.0)))
    if ratios[-1] <= 1e-12:
        return True
    return ratios[-1] <= 1e-4 * (ratios[0] + 1e-300) or ratios[-1] <= 1e-12


def check_conditions(f: FFunction) -> ConditionReport:
    """Evaluate the admissibility conditions for a generator.

    Registered families take their verdicts from the analytic table and
    keep the raw grid outcomes alongside; unknown generators get the
    numeric verdicts directly.  Numeric checks are heuristic: they sample
    grids, they do not prove limits.
    """
    numeric, cf = _numeric_conditions(f)
    analytic = _ANALYTIC_TABLE.get(f.family)
    warnings: list[str] = []
    if f.c_f != math.inf:
        f0_at_zero = f.f_at_zero + f.c_f
        if f0_at_zero != math.inf and float(f0_at_zero) < 1e-6:
            warnings.append(
                "offset form vanishes at zero; divergence targets collapse to 0"
            )
    # The table's verdicts come in the order of the grid's keys.
    verdicts = numeric if analytic is None else dict(zip(numeric, analytic))
    return ConditionReport(
        name=f.name,
        **verdicts,
        c_f_estimate=cf,
        analytic=analytic is not None,
        numeric=numeric,
        warnings=tuple(warnings),
    )
