"""Randomness extraction toward a uniform seed, with its converse.

The builder clips the source at the water-filling level beta0 taken
from the smooth min entropy at budget Delta, renormalizes, and packs
atoms into M bins of modified mass at most 1/M (first-fit over atoms in
descending modified-mass order; the last bin absorbs the remainder and
every zero-mass atom).  The induced bin distribution is compared
against the uniform law on {1..M}.  The converse is checked per n with
an explicit slack budget derived from a partition-free divergence lower
bound, never as a bare asymptotic claim.

The construction is level-wise.  It reads the source's
:class:`Levels` table: atoms of one modified mass are interchangeable,
so first-fit takes min(left, floor((cap - cur) / mass)) atoms of a level
at a time, in integers on exact sources (float sources add one atom at a
time, as an atom-by-atom fill would).  Each bin starts empty, so a bin
repeats while the levels it took from have its counts left; the bins
are stored as such runs, and filled, checked and summed into D_f once
per run.  The clipped atoms, every atom of mass at least beta0, share
one modified mass and are placed in label order across their levels;
they are kept in that order with prefix sums of their original masses,
so the induced mass of a bin that holds some is a difference of two
sums, read bin by bin.  Labels are enumerated only when ``bins`` or
``modified.dist`` is read; a view of more than 2^20 atoms, too many to
enumerate, is refused at build time.  A float view's level
probabilities are the exact products of its base masses, rounded once.
Its bins can differ from those of the same source expanded atom by
atom, whose float products can round the atoms of one type class
apart: in which atoms of a level go where, and in the last bits of the
achieved divergence.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .distributions import (
    FiniteDistribution,
    ProductSourceView,
    _atom_levels,
    _bin_weights,
    _check_cap,
    _construction_levels,
    _group_of,
    _labels,
    _LazyFields,
    _lazily,
    _runs,
)
from .errors import (
    BadParamError,
    DegenerateSupportError,
    MTooSmallError,
    OverflowGuardError,
)
from .fdiv import DivergenceValue, FFunction, _divergence_sum, _inverse_level, offset
from .resolvability import RateEvaluation, _check_m_override, _construction_start, _rate_sweep
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
    "ir_rate_formula",
]


def _check_clip(beta0: Number, a_n: Number) -> None:
    if not 0 < beta0 <= 1:
        raise BadParamError(f"beta0 must lie in (0, 1], got {beta0}")
    if not 0 < a_n <= 1:
        raise BadParamError(f"A_n must lie in (0, 1], got {a_n}")


@dataclass(frozen=True)
class ModifiedDistribution(_LazyFields):
    """Source clipped at beta0 and renormalized: min(P(x), beta0) / A_n.

    ``a_n`` is 1 minus the clipped-away mass, so every modified mass is
    at most beta0 / a_n.  A built extractor makes ``dist`` on first read.
    """

    dist: FiniteDistribution
    beta0: Number
    a_n: Number

    def __post_init__(self) -> None:
        _check_clip(self.beta0, self.a_n)
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
class ExtractorMap(_LazyFields):
    """A mapping from source sequences onto {1..M} bins.

    ``bins[i]`` holds the labels sent to output i+1; the bins partition
    the full alphabet of the modified distribution.  ``induced`` is the
    law of the output under the original source.  A built map makes
    ``bins`` on first read.
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


def _clip_normalizer(source: Source, levels, beta0: Number) -> Number:
    """A_n = 1 - sum_x (P(x) - beta0)+, the mass left after clipping at beta0.

    A distribution sums its atoms in label order; a view sums its levels,
    in integers when exact.
    """
    if isinstance(source, FiniteDistribution):
        return 1 - sum((m - beta0 for m in source.masses if m > beta0), start=beta0 * 0)
    pairs = zip(levels.probs, levels.counts)
    if not levels.exact:
        return 1 - sum((count * (p - beta0) for p, count in pairs if p > beta0), start=0.0)
    b, c, den = beta0.numerator, beta0.denominator, levels.denominator
    excess = sum(count * (num * c - b * den) for num, count in pairs if num * c > b * den)
    return 1 - Fraction(excess, den * c)


def _shifted(ranges: list, j: int) -> list[tuple[int, int, int]]:
    """The ranges of bin j of a run whose first bin has ``ranges``."""
    return [(g, a + j * (b - a), b + j * (b - a)) for g, a, b in ranges]


class _Binning:
    """First-fit bins over groups of atoms of equal modified mass, as runs.

    Group g joins the levels ``bounds[g]:bounds[g+1]``, most massive first:
    the clipped levels form one group, every other level is a group of
    its own (on floats, rounding can also join levels).  A group of
    several levels orders its atoms by label; ``order[g]`` lists the
    level of each of them.  A bin is a list of (group, start, stop)
    ranges of its atoms, in placement order; the last bin also takes
    every zero-mass atom.  Each bin starts empty, so the bins after one
    take the same counts of the same groups for as long as those groups
    have the atoms: ``runs`` holds (ranges of a run's first bin, number
    of bins), and bin j of a run is ``_shifted(ranges, j)``.
    """

    def __init__(self, source: Source, levels, modified: list, M: int, cap: Number) -> None:
        self.source = source
        self.levels = levels
        self.mass, self.sizes, self.bounds = _runs(modified, levels.counts)
        self.group_of = _group_of(self.bounds)
        self.order: dict[int, list[int]] = {
            g: [] for g, (a, b) in enumerate(zip(self.bounds, self.bounds[1:])) if b - a > 1
        }
        if self.order:
            for j in _atom_levels(source):
                if j >= 0 and self.group_of[j] in self.order:
                    self.order[self.group_of[j]].append(j)
        self.zeros = levels.alphabet_size - sum(levels.counts)
        self.runs = self._fill(M, cap)

    def _fill(self, M: int, cap: Number) -> list[tuple[list[tuple[int, int, int]], int]]:
        """First-fit over descending masses; the last bin takes the rest.

        Each bin jumps, by bisection over the groups with atoms left, to
        the next group whose atom still fits, and takes as many of its
        atoms as fit.  It then repeats as often as every group it took
        from has its count left.
        """
        exact = isinstance(cap, int)
        masses, sizes = self.mass, self.sizes
        left = list(sizes)
        active = [g for g, size in enumerate(sizes) if size]
        runs: list[tuple[list[tuple[int, int, int]], int]] = []
        todo = M - 1
        while todo:
            if not active:
                raise DegenerateSupportError("ran out of positive atoms before the last bin")
            cur: Number = 0
            ranges = []
            i = 0
            while True:
                i = bisect.bisect_left(active, True, lo=i, key=lambda g: cur + masses[g] <= cap)
                if i == len(active):
                    break
                g = active[i]
                mass = masses[g]
                if exact:
                    k = min(left[g], (cap - cur) // mass)
                    cur += k * mass
                else:
                    k = 0
                    while k < left[g] and cur + mass <= cap:
                        cur = cur + mass
                        k += 1
                done = sizes[g] - left[g]
                ranges.append((g, done, done + k))
                left[g] -= k
                if left[g]:
                    i += 1
                else:
                    del active[i]
            if not ranges:
                raise DegenerateSupportError(
                    "an atom alone exceeds 1/M; M is too large for this source"
                )
            repeat = min(todo - 1, *(left[g] // (b - a) for g, a, b in ranges))
            for g, a, b in ranges:
                left[g] -= repeat * (b - a)
            active = [g for g in active if left[g]]
            runs.append((ranges, 1 + repeat))
            todo -= 1 + repeat
        last = [(g, sizes[g] - k, sizes[g]) for g, k in enumerate(left) if k]
        if not last and not self.zeros:
            raise DegenerateSupportError("nothing left for the last bin")
        runs.append((last, 1))
        return runs

    def induced_masses(self) -> list[Number]:
        """Source mass of each bin: integer numerators over the denominator when exact.

        A run that takes no atom of a several-level group has one mass.
        In a run that does, each bin reads that group's label-ordered
        atoms: exact sources as differences of their prefix sums, float
        sources by adding each atom's mass in placement order, as the
        atom-by-atom sum does.
        """
        levels, order, probs = self.levels, self.order, self.levels.probs
        prefix = {
            g: list(itertools.accumulate((probs[j] for j in seq), initial=0))
            for g, seq in (order.items() if levels.exact else ())
        }

        def mass(ranges: list) -> Number:
            total: Number = 0
            for g, a, b in ranges:
                if g in prefix:
                    total += prefix[g][b] - prefix[g][a]
                elif levels.exact:
                    total += (b - a) * probs[self.bounds[g]]
                else:
                    for j in order[g][a:b] if g in order else [self.bounds[g]] * (b - a):
                        total += probs[j]
            return total

        out: list[Number] = []
        for ranges, count in self.runs:
            if any(g in order for g, _, _ in ranges):
                out.extend(mass(_shifted(ranges, j)) for j in range(count))
            else:
                out.extend([mass(ranges)] * count)
        if self.zeros and not levels.exact:
            out[-1] += 0.0
        return out

    def check(self, M: int, fits, above_floor) -> None:
        """The bins' invariants, run by run: each bin's modified mass, and a partition."""
        placed = [0] * len(self.sizes)
        i = 0
        for ranges, count in self.runs:
            counts = [(b - a, self.mass[g]) for g, a, b in ranges]
            if i < M - 1 and not fits(counts):
                raise BadParamError(f"bin {i + 1} exceeds modified mass 1/M")
            if not above_floor(counts):
                raise BadParamError(f"bin {i + 1} falls below 1/M - beta0/A_n")
            for g, a, b in ranges:
                placed[g] += count * (b - a)
            i += count
        if i != M or placed != list(self.sizes):
            raise BadParamError("bins must partition the alphabet")

    def labels(self) -> tuple[tuple[object, ...], ...]:
        """The bins as label tuples, each group's atoms in label order."""
        members: list[list] = [[] for _ in self.sizes]
        zeros: list = []
        for lab, j in zip(_labels(self.source), _atom_levels(self.source)):
            (members[self.group_of[j]] if j >= 0 else zeros).append(lab)
        bins = [
            [lab for g, a, b in _shifted(ranges, j) for lab in members[g][a:b]]
            for ranges, count in self.runs
            for j in range(count)
        ]
        bins[-1].extend(zeros)
        return tuple(tuple(b) for b in bins)


_ZERO = Fraction(0)


class _Reciprocal(float):
    """1.0 / M, multiplying as ``Fraction(1, M)`` does.

    A float through 1.0 / M, an int or a Fraction exactly, so a float
    map's D_f terms keep their bits and types over this divisor.  An
    exact zero factor gives the shared ``Fraction(0)``, which is that
    product, without building it.
    """

    def __new__(cls, M: int) -> "_Reciprocal":
        self = super().__new__(cls, 1.0 / M)
        self.exact = Fraction(1, M)
        return self

    def __mul__(self, x):
        if isinstance(x, float):
            return float(self) * x
        if x == 0 and isinstance(x, (int, Fraction)):
            return _ZERO
        return self.exact * x


def build_extractor(
    source: Source,
    f: FFunction,
    Delta: Number,
    gamma: float,
    M: Optional[int] = None,
) -> ExtractorMap:
    """Construct the bin extractor for output-divergence target Delta.

    M defaults to floor((A_n / beta0) * e^{-n*gamma/2}); pass M to pin
    another size (exact-uniform demonstrations need M above the formula
    value, which backs off by e^{-n*gamma/2} for every positive gamma).
    Views of more than 2^20 atoms are refused with TooLargeError.
    """
    f0, gamma_f, levels = _construction_start(source, f, Delta, gamma)
    n, exact = levels.n, levels.exact

    t = _inverse_level(f0, Delta, exact)
    result = smooth_min_entropy(source, 1 - t)
    beta0 = result.witness.beta
    if beta0 == 0:
        raise OverflowGuardError("clipping level underflowed; source is too large for floats")
    if exact and not isinstance(beta0, Fraction):
        beta0 = Fraction(beta0)
    a_n = _clip_normalizer(source, levels, beta0)

    m_from_formula = M is None
    if m_from_formula:
        shrink = math.exp(-n * gamma_f / 2.0)
        m_real = Fraction(a_n) / Fraction(beta0) * Fraction(shrink)
        M = math.floor(m_real)
        if M < 1:
            raise MTooSmallError(
                f"(A_n/beta0)*e^(-n*gamma/2) = {float(m_real):.6g} admits no M >= 1"
            )
    else:
        _check_m_override(M)

    _check_clip(beta0, a_n)
    if exact:
        # Modified masses min(p, beta0) / A_n in units of 1 / (den * c * A_n)
        # with beta0 = b/c: a bin fits when its units times ad * M stay
        # within den * c * an, A_n = an/ad.
        den = levels.denominator
        b, c = beta0.numerator, beta0.denominator
        an, ad = a_n.numerator, a_n.denominator
        units = [min(num * c, b * den) for num in levels.probs]
        binning = _Binning(source, levels, units, M, den * c * an // (ad * M))
        room = den * c * an
        binning.check(
            M,
            lambda counts: sum(k * u for k, u in counts) * ad * M <= room,
            lambda counts: sum(k * u for k, u in counts) * ad * M >= room - b * ad * den * M,
        )
        level_mass = lambda j: min(Fraction(levels.probs[j], den), beta0) / a_n  # noqa: E731
    else:
        cap = 1.0 / M
        modified = [min(p, beta0) / a_n for p in levels.probs]
        if modified[0] > beta0 / a_n + 1e-12:
            raise BadParamError("modified mass exceeds beta0/A_n")
        binning = _Binning(source, levels, modified, M, cap)
        floor = cap - beta0 / a_n
        binning.check(
            M,
            lambda counts: sum(k * x for k, x in counts) <= cap + 1e-12,
            lambda counts: sum(k * x for k, x in counts) >= floor - 1e-12,
        )
        level_mass = lambda j: modified[j]  # noqa: E731

    masses = binning.induced_masses()
    if exact:
        # Bins of one numerator share a Fraction and a D_f term: exact
        # terms sum alike in any grouping, rounded ones only bin by bin.
        q = Fraction(1, M)
        counts = collections.Counter(masses)
        share = {num: Fraction(num, levels.denominator) for num in counts}
        masses = [share[num] for num in masses]
        achieved = _divergence_sum(f, ((k, share[num], q) for num, k in counts.items()))
        if isinstance(achieved.value, float):
            achieved = _divergence_sum(f, ((1, p, q) for p in masses))
        distinct = share.values()
    else:
        q = _Reciprocal(M)
        achieved = _divergence_sum(f, ((1, p, q) for p in masses))
        distinct = masses
    induced = FiniteDistribution(labels=tuple(range(1, M + 1)), masses=tuple(masses))

    def modified_dist() -> FiniteDistribution:
        zero = beta0 * 0 / a_n
        mass = [level_mass(j) for j in range(len(levels))]
        return FiniteDistribution(
            labels=tuple(_labels(source)),
            masses=tuple(mass[j] if j >= 0 else zero for j in _atom_levels(source)),
        )

    beta0_f = float(beta0)
    a_n_f = float(a_n)
    min_induced = min(map(float, distinct))
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
    return _lazily(
        ExtractorMap,
        {"bins": binning.labels},
        M=M,
        induced=induced,
        achieved_divergence=achieved,
        modified=_lazily(ModifiedDistribution, {"dist": modified_dist}, beta0=beta0, a_n=a_n),
        params=params,
    )


def achieved_uniformity(map_: ExtractorMap, source: Source, f: FFunction) -> DivergenceValue:
    """D_f(output || uniform M) by the explicit sum (1/M) f(M * P(i)).

    Recomputes the induced masses from the bins and the source, so this
    is an independent route around the builder, which sums Q * f(P/Q)
    over its own masses with the counted sum of :mod:`smoothgen.fdiv`.
    The sum stays its own on purpose: in floats (1/M) * f(M * P) differs
    in its last bits from Q * f(P / Q).  A view weighs each label by the
    type class of its composition.  Labels loaded from JSON read on both
    kinds of source; a bin label outside the source's alphabet, on a view
    one that is not a length-n sequence over the base alphabet, raises
    AlphabetMismatchError.
    """
    if not isinstance(source, (FiniteDistribution, ProductSourceView)):
        raise BadParamError(f"unsupported source type {type(source).__name__}")
    masses = _bin_weights(source, map_.bins)
    if isinstance(source, ProductSourceView) and source.exact:
        masses = [Fraction(s, source.denominator) for s in masses]
    M = map_.M
    one = Fraction(1, M) if source.exact else 1.0 / M
    total: Number = 0
    finite = True
    for p in masses:
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
        total = 0 if source.exact else max(total, 0.0)
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


def _divergence_floor(M: int, source: Source, f0) -> float:
    """Best provable lower bound on D_f(output || uniform M) over all maps.

    For each heavy-set threshold (a prefix of the descending mass
    levels) the heavy atoms occupy some m <= min(M, |T|) bins; Jensen on
    the heavy and light groups bounds the divergence below.  The
    adversary picks m, the bound picks the threshold.  Reads the level
    table; levels of equal float mass share one threshold, and masses
    are added one atom at a time, as the atom-by-atom scan does.
    """
    levels = _construction_levels(source)
    if levels.exact:
        values = [num / levels.denominator for num in levels.probs]
    else:
        values = [float(p) for p in levels.probs]
    best = 0.0
    count = 0
    mass = 0.0
    for j, (level, k) in enumerate(zip(values, levels.counts)):
        if level <= 0:
            break
        for _ in range(k):
            mass += level
        count += k
        if j + 1 < len(values) and values[j + 1] == level:
            continue
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
    map to achieve at most Delta - epsilon.  The floor adds one float per
    atom, so it refuses views of more than 2^20 atoms.
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
    if isinstance(source, ProductSourceView):
        _check_cap(source.full_alphabet_size)
    return _divergence_floor(map_.M, source, f0) <= slack_target + 1e-12


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

    On an exact base a float ``Delta`` or nu is read at its binary value,
    ``Fraction(Delta)``, not at its decimal face value as :func:`bernoulli`
    reads its parameter: ``Delta=0.1`` is 3602879701896397/2**55.  Pass a
    ``Fraction`` for a decimal target.
    """
    return _rate_sweep(base, n_list, f, Delta, nu_ladder, R, "min")
