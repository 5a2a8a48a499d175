"""Randomness extraction toward a uniform seed, with its converse.

The builder clips the source at the water-filling level beta0 taken
from the smooth min entropy at budget Delta, renormalizes, and packs
atoms into M bins of modified mass at most 1/M (first-fit over atoms in
descending modified-mass order; the last bin absorbs the remainder and
every zero-mass atom).  The induced bin distribution is compared
against the uniform law on {1..M}.  The converse is checked per n with
an explicit slack budget derived from a partition-free divergence lower
bound, never as a bare asymptotic claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from .distributions import FiniteDistribution, ProductSourceView, uniform_distribution
from .errors import (
    BadParamError,
    DegenerateSupportError,
    MTooSmallError,
    OverflowGuardError,
    TargetInfeasibleError,
)
from .fdiv import DivergenceValue, FFunction, f_divergence, offset
from .resolvability import RateEvaluation, _as_distribution, _inverse_level, _rate_sweep
from .smooth_entropy import smooth_min_entropy

Number = Union[int, float, Fraction]
Source = Union[FiniteDistribution, ProductSourceView]

__all__ = [
    "ModifiedDistribution",
    "ExtractorParams",
    "ExtractorMap",
    "build_extractor",
    "achieved_uniformity",
    "intrinsic_converse_check",
    "min_achievable_uniformity",
    "ir_rate_formula",
]


@dataclass(frozen=True)
class ModifiedDistribution:
    """Source clipped at beta0 and renormalized: min(P(x), beta0) / A_n.

    ``a_n`` is 1 minus the clipped-away mass, so every modified mass is
    at most beta0 / a_n.
    """

    dist: FiniteDistribution
    beta0: Number
    a_n: Number

    def __post_init__(self) -> None:
        if not 0 < self.beta0 <= 1:
            raise BadParamError(f"beta0 must lie in (0, 1], got {self.beta0}")
        if not 0 < self.a_n <= 1:
            raise BadParamError(f"A_n must lie in (0, 1], got {self.a_n}")
        cap = self.beta0 / self.a_n
        tol = 0 if self.dist.exact else 1e-12
        for lab, mass in zip(self.dist.labels, self.dist.masses):
            if mass > cap + tol:
                raise BadParamError(f"modified mass at {lab!r} exceeds beta0/A_n")


@dataclass(frozen=True)
class ExtractorParams:
    """Construction report attached to an extractor.

    ``bound`` certifies the output divergence from the proof chain:
    the bridge form f0(A_n * (1 - e^{-n*gamma/2})) when M came from the
    size formula, else the direct form f0(M * min_i P(bin i)), which
    holds for any M.  ``delta_n`` is the bound's excess over the target,
    floored at zero.
    """

    f_name: str
    Delta: float
    gamma: float
    n: int
    beta0: float
    a_n: float
    m_from_formula: bool
    bound: float
    delta_n: float
    min_induced: float


@dataclass(frozen=True)
class ExtractorMap:
    """A mapping from source sequences onto {1..M} bins.

    ``bins[i]`` holds the labels sent to output i+1; the bins partition
    the full alphabet of the modified distribution.  ``induced`` is the
    law of the output under the original source.
    """

    M: int
    bins: tuple[tuple[object, ...], ...]
    induced: FiniteDistribution
    achieved_divergence: DivergenceValue
    modified: ModifiedDistribution
    params: Optional[ExtractorParams] = None

    def __post_init__(self) -> None:
        if self.M < 1:
            raise BadParamError(f"M must be positive, got {self.M}")
        if len(self.bins) != self.M:
            raise BadParamError(f"{len(self.bins)} bins for M = {self.M}")
        if any(len(b) == 0 for b in self.bins):
            raise BadParamError("every bin must be nonempty")
        seen: set = set()
        for b in self.bins:
            seen.update(b)
        alphabet = set(self.modified.dist.labels)
        if seen != alphabet or sum(len(b) for b in self.bins) != len(alphabet):
            raise BadParamError("bins must partition the alphabet")
        if self.induced.labels != tuple(range(1, self.M + 1)):
            raise BadParamError("induced distribution must be labeled 1..M")
        by_label = dict(zip(self.modified.dist.labels, self.modified.dist.masses))
        cap = Fraction(1, self.M) if self.modified.dist.exact else 1.0 / self.M
        floor = cap - self.modified.beta0 / self.modified.a_n
        tol = 0 if self.modified.dist.exact else 1e-12
        for i, b in enumerate(self.bins):
            mass = sum(by_label[lab] for lab in b)
            if i < self.M - 1 and mass > cap + tol:
                raise BadParamError(f"bin {i + 1} exceeds modified mass 1/M")
            if mass < floor - tol:
                raise BadParamError(f"bin {i + 1} falls below 1/M - beta0/A_n")


def _fill_bins(
    atoms: Sequence[tuple[Number, int, object]],
    zeros: Sequence[object],
    M: int,
    cap: Number,
) -> list[list[object]]:
    """First-fit over descending masses; the last bin takes the rest.

    ``atoms`` are (modified mass, position, label) with positive mass,
    already sorted by mass descending, ties by position.  A bin closes
    once even the smallest remaining atom would push it past the cap.
    """
    bins: list[list[object]] = []
    remaining = list(atoms)
    for _ in range(M - 1):
        if not remaining:
            raise DegenerateSupportError("ran out of positive atoms before the last bin")
        cur: list[object] = []
        cur_mass: Number = 0
        kept: list[tuple[Number, int, object]] = []
        smallest = remaining[-1][0]
        for j, (mass, pos, lab) in enumerate(remaining):
            if cur_mass + smallest > cap:
                kept.extend(remaining[j:])
                break
            if cur_mass + mass <= cap:
                cur.append(lab)
                cur_mass = cur_mass + mass
            else:
                kept.append((mass, pos, lab))
        if not cur:
            raise DegenerateSupportError(
                "an atom alone exceeds 1/M; M is too large for this source"
            )
        remaining = kept
        bins.append(cur)
    last = [lab for _, _, lab in remaining] + list(zeros)
    if not last:
        raise DegenerateSupportError("nothing left for the last bin")
    bins.append(last)
    return bins


def build_extractor(
    source: Source,
    f: FFunction,
    Delta: Number,
    gamma: float,
    M: Optional[int] = None,
    max_atoms: int = 1 << 20,
) -> ExtractorMap:
    """Construct the bin extractor for output-divergence target Delta.

    M defaults to floor((A_n / beta0) * e^{-n*gamma/2}); pass M to pin
    another size (exact-uniform demonstrations need M above the formula
    value, which backs off by e^{-n*gamma/2} for every positive gamma).
    """
    f0 = offset(f)
    if Delta < 0:
        raise BadParamError(f"divergence target must be nonnegative, got {Delta}")
    if not Delta < f0.f_at_zero:
        raise TargetInfeasibleError(f"target {Delta} not below f0(0) = {f0.f_at_zero}")
    gamma_f = float(gamma)
    if not gamma_f > 0:
        raise BadParamError(f"gamma must be positive, got {gamma}")
    dist, n = _as_distribution(source, max_atoms)

    t = _inverse_level(f0, Delta, dist.exact)
    result = smooth_min_entropy(source, 1 - t)
    beta0 = result.witness.beta
    if beta0 == 0:
        raise OverflowGuardError("clipping level underflowed; source is too large for floats")
    if dist.exact and not isinstance(beta0, Fraction):
        beta0 = Fraction(beta0)
    a_n = 1 - sum((m - beta0 for m in dist.masses if m > beta0), start=beta0 * 0)

    if M is None:
        shrink = math.exp(-n * gamma_f / 2.0)
        m_real = Fraction(a_n) / Fraction(beta0) * Fraction(shrink)
        M = math.floor(m_real)
        if M < 1:
            raise MTooSmallError(
                f"(A_n/beta0)*e^(-n*gamma/2) = {float(m_real):.6g} admits no M >= 1"
            )
        m_from_formula = True
    else:
        if not isinstance(M, int) or M < 1:
            raise BadParamError(f"M override must be a positive integer, got {M!r}")
        m_from_formula = False

    modified_masses = tuple(min(m, beta0) / a_n for m in dist.masses)
    modified = ModifiedDistribution(
        dist=FiniteDistribution(labels=dist.labels, masses=modified_masses),
        beta0=beta0,
        a_n=a_n,
    )

    triples = [
        (mass, pos, lab)
        for pos, (lab, mass) in enumerate(zip(dist.labels, modified_masses))
        if mass > 0
    ]
    triples.sort(key=lambda t: (-t[0], t[1]))
    zeros = [lab for lab, mass in zip(dist.labels, modified_masses) if mass == 0]
    cap: Number = Fraction(1, M) if dist.exact else 1.0 / M
    bins = _fill_bins(triples, zeros, M, cap)

    source_mass = dict(zip(dist.labels, dist.masses))
    induced = FiniteDistribution(
        labels=tuple(range(1, M + 1)),
        masses=tuple(sum(source_mass[lab] for lab in b) for b in bins),
    )
    achieved = f_divergence(f, induced, uniform_distribution(M))

    beta0_f = float(beta0)
    a_n_f = float(a_n)
    min_induced = min(float(m) for m in induced.masses)
    if m_from_formula:
        arg = a_n_f * (1.0 - math.exp(-n * gamma_f / 2.0))
    else:
        arg = M * min_induced
    if arg <= 0:
        bound = float(f0.f_at_zero)
    else:
        bound = float(f0.eval(min(arg, 1.0)))
    params = ExtractorParams(
        f_name=f.name,
        Delta=float(Delta),
        gamma=gamma_f,
        n=n,
        beta0=beta0_f,
        a_n=a_n_f,
        m_from_formula=m_from_formula,
        bound=bound,
        delta_n=max(0.0, bound - float(Delta)),
        min_induced=min_induced,
    )
    return ExtractorMap(
        M=M,
        bins=tuple(tuple(b) for b in bins),
        induced=induced,
        achieved_divergence=achieved,
        modified=modified,
        params=params,
    )


def achieved_uniformity(map_: ExtractorMap, source: Source, f: FFunction) -> DivergenceValue:
    """D_f(output || uniform M) by the explicit sum (1/M) f(M * P(i)).

    Recomputes the induced masses from the bins and the source, so this
    is an independent route around the builder's f_divergence call.
    """
    dist, _ = _as_distribution(source)
    source_mass = dict(zip(dist.labels, dist.masses))
    M = map_.M
    one = Fraction(1, M) if dist.exact else 1.0 / M
    total: Number = 0
    finite = True
    for b in map_.bins:
        p = sum(source_mass[lab] for lab in b)
        if p == 0:
            if math.isinf(float(f.f_at_zero)):
                finite = False
                break
            total = total + one * f.f_at_zero
        else:
            total = total + one * f.eval(p * M)
    if not finite:
        return DivergenceValue(value=math.inf, finite=False)
    if total < 0:
        total = 0 if dist.exact else max(total, 0.0)
    return DivergenceValue(value=total, finite=True)


def _pair_bound(m: int, M: int, pr_t: float, f0) -> float:
    """Lower bound on D_f for a map whose heavy set spreads over m bins."""
    def ev(x: float) -> float:
        if x <= 0:
            return float(f0.f_at_zero)
        return float(f0.eval(x))

    if m >= M:
        return 0.0
    rest = (M - m) / M
    # Heavy bins carry at most everything; light bins carry at most the
    # complement of the heavy-set mass.
    cand = (m / M) * ev(M / m) + rest * ev((1.0 - pr_t) * M / (M - m))
    if pr_t * M >= m:
        alt = (m / M) * ev(pr_t * M / m) + rest * ev((1.0 - pr_t) * M / (M - m))
        cand = max(cand, alt)
    return cand


def _min_over_m(M: int, m_max: int, pr_t: float, f0) -> float:
    if m_max <= 64:
        return min(_pair_bound(m, M, pr_t, f0) for m in range(1, m_max + 1))
    lo, hi = 1, m_max
    while hi - lo > 2:
        third = (hi - lo) // 3
        a, b = lo + third, hi - third
        if _pair_bound(a, M, pr_t, f0) <= _pair_bound(b, M, pr_t, f0):
            hi = b
        else:
            lo = a
    return min(_pair_bound(m, M, pr_t, f0) for m in range(lo, hi + 1))


def _divergence_floor(M: int, dist: FiniteDistribution, f0) -> float:
    """Best provable lower bound on D_f(output || uniform M) over all maps.

    For each heavy-set threshold (a prefix of the descending mass
    levels) the heavy atoms occupy some m <= min(M, |T|) bins; Jensen on
    the heavy and light groups bounds the divergence below.  The
    adversary picks m, the bound picks the threshold.
    """
    best = 0.0
    count = 0
    mass = 0.0
    masses = [float(dist.masses[i]) for i in dist.descending()]
    i = 0
    while i < len(masses):
        level = masses[i]
        if level <= 0:
            break
        while i < len(masses) and masses[i] == level:
            mass += masses[i]
            count += 1
            i += 1
        m_max = min(M, count)
        if m_max >= M:
            continue
        cand = _min_over_m(M, m_max, min(mass, 1.0), f0)
        best = max(best, cand)
    return best


def intrinsic_converse_check(
    map_: ExtractorMap,
    source: Source,
    f: FFunction,
    Delta: Number,
    epsilon: float,
) -> bool:
    """Verify log M <= H_inf(1 - f0^{-1}(Delta) | X^n) + n * slack_budget.

    The slack budget is the largest per-n excess the divergence floor
    cannot refute, so the check accepts exactly when either log M is
    within 1e-9 of the min-entropy bound outright, or the floor at this
    M still permits a divergence at most Delta - epsilon.  Requires the
    map to achieve at most Delta - epsilon.
    """
    if epsilon < 0:
        raise BadParamError(f"epsilon must be nonnegative, got {epsilon}")
    achieved = achieved_uniformity(map_, source, f)
    slack_target = float(Delta) - float(epsilon)
    if not achieved.finite or float(achieved) > slack_target + 1e-12:
        raise BadParamError(
            f"map achieves {float(achieved)}, above Delta - epsilon = {slack_target}"
        )
    f0 = offset(f)
    if not Delta < f0.f_at_zero:
        return True
    t = _inverse_level(f0, Delta, source.exact)
    hinf = smooth_min_entropy(source, 1 - t)
    if math.log(map_.M) <= hinf.value + 1e-9:
        return True
    dist, _ = _as_distribution(source)
    return _divergence_floor(map_.M, dist, f0) <= slack_target + 1e-12


def _partitions(items: Sequence[object], k: int) -> Iterator[tuple[tuple[object, ...], ...]]:
    """All set partitions of items into exactly k nonempty blocks."""
    n = len(items)
    if k < 1 or k > n:
        return
    codes = [0] * n

    def rec(i: int, used: int) -> Iterator[tuple[tuple[object, ...], ...]]:
        if i == n:
            if used == k:
                blocks: list[list[object]] = [[] for _ in range(k)]
                for j, c in enumerate(codes):
                    blocks[c].append(items[j])
                yield tuple(tuple(b) for b in blocks)
            return
        # Prune when the remaining items cannot open enough new blocks.
        if used + (n - i) < k:
            return
        for c in range(min(used + 1, k)):
            codes[i] = c
            yield from rec(i + 1, max(used, c + 1))

    yield from rec(0, 0)


def min_achievable_uniformity(
    dist: FiniteDistribution,
    f: FFunction,
    M: int,
) -> tuple[DivergenceValue, tuple[tuple[object, ...], ...]]:
    """Exhaustive search for the best M-bin map on a small alphabet.

    Enumerates every partition of the alphabet into M nonempty bins and
    minimizes the output divergence; ties keep the first partition in
    enumeration order.  Sizes beyond 12 atoms are refused upstream by
    sheer partition count, so guard callers accordingly.
    """
    if M < 1 or M > dist.size:
        raise BadParamError(f"M must lie in 1..{dist.size}, got {M}")
    uniform = uniform_distribution(M)
    source_mass = dict(zip(dist.labels, dist.masses))
    best_val: Optional[DivergenceValue] = None
    best_part: Optional[tuple[tuple[object, ...], ...]] = None
    for part in _partitions(list(dist.labels), M):
        masses = tuple(sum(source_mass[lab] for lab in b) for b in part)
        induced = FiniteDistribution(labels=tuple(range(1, M + 1)), masses=masses)
        val = f_divergence(f, induced, uniform)
        if best_val is None or float(val) < float(best_val):
            best_val, best_part = val, part
    if best_val is None:
        raise DegenerateSupportError("no partition found")
    return best_val, best_part


def ir_rate_formula(
    base: FiniteDistribution,
    n_list: Sequence[int],
    f: FFunction,
    Delta: Number,
    nu_ladder: Sequence[float] = (0.1, 0.01, 0.001),
    R: Optional[float] = None,
) -> list[RateEvaluation]:
    """Evaluate the finite-n extraction rate along an n list.

    Mirrors the synthesis rate with the min entropy in place of the
    covering entropy; extraction rates grow with nu, so the decreasing
    ladder must produce nonincreasing values.
    """
    return _rate_sweep(base, n_list, f, Delta, nu_ladder, R, smooth_min_entropy, rising=False)
