"""Self-information spectrum quantiles and convergence diagnostics.

The per-sequence self-information (1/n) log 1/P(X^n) induces a finite
spectrum of levels; the generator f turns tail masses into divergence
levels, so its inverse turns a divergence budget into a mass quantile.
``kbar`` is the smallest level whose lower tail captures that mass,
``kunder`` the largest level whose upper tail does.  These per-n
surrogates drop the limit operations of the asymptotic theory; the
report and sweep helpers make the convergence visible instead of
asserting it.

The quantiles read the same prefix-mass profile of a source's level
table as the smooth entropies (see :mod:`smoothgen.smooth_entropy`):
kbar is the level where the prefix mass first reaches the threshold,
the same crossing that defines the smooth max entropy.  The profile is
kept on the table, so ``equivalence_report`` reads H_max, H_min and kbar
for one n from one scan.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence, Union

from .distributions import (
    FiniteDistribution,
    Levels,
    ProductSourceView,
    _float_masses,
    _levels_of,
    iid_power,
)
from .errors import BadParamError, OutOfRangeError, TooFewPointsError
from .fdiv import FFunction, _check_finite, _inverse_level, offset
from .smooth_entropy import _profile, _smooth_values

Number = Union[int, float, Fraction]
Source = Union[FiniteDistribution, ProductSourceView]

__all__ = [
    "SpectrumRate",
    "spectrum_rate",
    "EquivalenceRow",
    "EquivalenceReport",
    "equivalence_report",
    "SweepStatistics",
    "sweep_statistics",
]


@dataclass(frozen=True)
class SpectrumRate:
    """Quantile pair of the self-information spectrum at level epsilon.

    First order keeps the raw per-symbol levels; second order recenters
    by a reference rate R and rescales by sqrt(n).
    """

    n: int
    kbar: float
    kunder: float
    epsilon: float
    order: str = "first"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise BadParamError("n must be positive")
        if self.order not in ("first", "second"):
            raise BadParamError(f"order must be first or second, got {self.order!r}")
        if self.kunder > self.kbar + 1e-9:
            raise BadParamError(
                f"kunder = {self.kunder} exceeds kbar = {self.kbar} beyond tolerance"
            )


def _quantile_levels(levels: Levels, c: Number) -> tuple[int, int]:
    """Level indices of kbar and kunder at mass threshold c.

    kbar is the first level whose prefix mass reaches c, a crossing of
    the table's profile, as in the smooth max entropy.  kunder is the
    last level whose suffix mass reaches c.  Exact levels sum to one, so
    that suffix is 1 - (prefix before it) and kunder is a crossing too;
    float suffixes are summed from the least probable level up.
    """
    profile = _profile(levels)
    last = len(levels) - 1
    if levels.exact:
        den, c_num, c_den = levels.denominator, c.numerator, c.denominator
        # The lower tail holds c once prefix*c_den >= c_num*den; the upper
        # tail no longer does once prefix*c_den > (c_den - c_num)*den.
        j_bar = profile.crossing(-(-c_num * den // c_den))
        j_under = profile.crossing((c_den - c_num) * den // c_den + 1)
        return min(j_bar, last), min(j_under, last)
    j_bar = min(profile.crossing(c), last)
    masses = _float_masses(levels.probs[::-1], levels.counts[::-1], levels.logs[::-1])[0]
    k = bisect_left(list(accumulate(masses)), c)
    return j_bar, max(last - k, 0)


def spectrum_rate(
    source: Source,
    f: FFunction,
    epsilon: Number,
    order: str = "first",
    R: Optional[float] = None,
) -> SpectrumRate:
    """Quantile pair at mass threshold f0^{-1}(epsilon).

    The generator is used through its offset form, which leaves C1
    families untouched (their linear coefficient is zero) and makes the
    rest monotone.  The threshold is read as the builders read their
    targets (see :mod:`smoothgen.fdiv`): on an exact source a float
    epsilon is taken at its binary value and the threshold is exact; on
    a float source it is a float.  kbar is read from the prefix-mass
    profile that the smoothers share, kunder from the mass summed
    downward; exact sources count in integers over the level table's
    common denominator, and only the two returned levels become
    fractions.  A nan or infinite epsilon is refused as malformed.
    """
    _check_finite("epsilon", epsilon)
    f0 = offset(f)
    if epsilon < 0 or not epsilon < f0.f_at_zero:
        raise OutOfRangeError(
            f"epsilon must lie in [0, f0(0)) = [0, {f0.f_at_zero}), got {float(epsilon)}"
        )
    if order == "second" and R is None:
        raise BadParamError("second order needs a reference rate R")
    levels = _levels_of(source)
    n = levels.n
    c = _inverse_level(f0, epsilon, levels.exact)
    j_bar, j_under = _quantile_levels(levels, c if levels.exact else float(c))
    kbar = levels.value(j_bar)
    kunder = levels.value(j_under)
    if order == "second":
        scale = math.sqrt(n)
        kbar = scale * (kbar - R)
        kunder = scale * (kunder - R)
    return SpectrumRate(n=n, kbar=kbar, kunder=kunder, epsilon=float(epsilon), order=order)


@dataclass(frozen=True)
class EquivalenceRow:
    """One n of the entropy-vs-quantile comparison, all in nats."""

    n: int
    nu: float
    h0_rate: float
    hinf_rate: float
    kbar: float
    kunder: float
    gap0: float
    gapinf: float


@dataclass(frozen=True)
class EquivalenceReport:
    """Gap table plus shrinkage flags; non-shrinkage warns, never raises."""

    rows: tuple[EquivalenceRow, ...]
    h0_gap_shrank: bool
    hinf_gap_shrank: bool
    warnings: tuple[str, ...] = field(default=())


def equivalence_report(
    base: FiniteDistribution,
    f: FFunction,
    D: Number,
    nu: float,
    n_list: Sequence[int],
) -> EquivalenceReport:
    """Compare smoothed-entropy rates with spectrum quantiles per n.

    Both routes run at divergence level D + nu: the covering entropy
    against kbar and the min entropy against kunder.  The gaps are
    expected to shrink from the first to the last n; violations land in
    ``warnings``.  A nan or infinite D or nu raises BadParamError.

    On an exact base a float ``D`` or nu is read at its binary value,
    ``Fraction(D)``, not at its decimal face value as :func:`bernoulli`
    reads its parameter: ``D=0.1`` is 3602879701896397/2**55.  Pass a
    ``Fraction`` for a decimal target.
    """
    f0 = offset(f)
    nu_f = float(nu)
    _check_finite("divergence target", D)
    _check_finite("nu", nu_f)
    if not nu_f > 0:
        raise BadParamError(f"nu must be positive, got {nu}")
    if not n_list:
        raise BadParamError("n list must be nonempty")
    exact = base.exact
    lvl = (Fraction(D) + Fraction(nu)) if exact else float(D) + nu_f
    delta = 1 - _inverse_level(f0, lvl, exact)
    rows: list[EquivalenceRow] = []
    for n in n_list:
        view = iid_power(base, int(n))
        h0 = _smooth_values(view, "max", [delta])[0] / n
        hinf = _smooth_values(view, "min", [delta])[0] / n
        sr = spectrum_rate(view, f, lvl)
        rows.append(
            EquivalenceRow(
                n=int(n),
                nu=nu_f,
                h0_rate=h0,
                hinf_rate=hinf,
                kbar=sr.kbar,
                kunder=sr.kunder,
                gap0=abs(h0 - sr.kbar),
                gapinf=abs(hinf - sr.kunder),
            )
        )
        # Free this view and its profile before the next n's view is built.
        del view
    warnings: list[str] = []
    h0_shrank = rows[-1].gap0 <= rows[0].gap0 + 1e-12
    hinf_shrank = rows[-1].gapinf <= rows[0].gapinf + 1e-12
    if not h0_shrank:
        warnings.append(
            f"covering-entropy gap grew from {rows[0].gap0:.3e} to {rows[-1].gap0:.3e}"
        )
    if not hinf_shrank:
        warnings.append(
            f"min-entropy gap grew from {rows[0].gapinf:.3e} to {rows[-1].gapinf:.3e}"
        )
    return EquivalenceReport(
        rows=tuple(rows),
        h0_gap_shrank=h0_shrank,
        hinf_gap_shrank=hinf_shrank,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class SweepStatistics:
    """Trailing-window extreme estimates of a per-n value sequence.

    ``running_limsup[i]`` is the maximum over the window ending at i,
    ``running_liminf[i]`` the minimum; the final entries estimate the
    limit superior and inferior when the sequence has settled.
    """

    values: tuple[float, ...]
    window: int
    running_liminf: tuple[float, ...]
    running_limsup: tuple[float, ...]

    def __post_init__(self) -> None:
        for lo, hi in zip(self.running_liminf, self.running_limsup):
            if lo > hi:
                raise BadParamError("liminf estimate exceeds limsup estimate")


def sweep_statistics(values: Sequence[float], window: int = 5) -> SweepStatistics:
    """Window extremes of an existing per-n sequence.

    Takes sequences rather than sources on purpose: optimistic-rate
    estimates are statistics of already-computed rates, never new
    per-n computations.
    """
    vals = tuple(float(v) for v in values)
    if len(vals) < 2:
        raise TooFewPointsError(f"need at least 2 values, got {len(vals)}")
    if window < 1:
        raise BadParamError(f"window must be positive, got {window}")
    lo: list[float] = []
    hi: list[float] = []
    for i in range(len(vals)):
        chunk = vals[max(0, i - window + 1) : i + 1]
        lo.append(min(chunk))
        hi.append(max(chunk))
    return SweepStatistics(
        values=vals,
        window=window,
        running_liminf=tuple(lo),
        running_limsup=tuple(hi),
    )
