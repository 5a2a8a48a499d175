"""Independent reference values for the benchmark's output checks.

Nothing here imports smoothgen.  An exact source is a list of positive
integer weights a_i over the common denominator d = sum(a); a length-n
sequence with composition k has probability prod(a_i**k_i) / d**n, so
every probability level is an integer numerator over the one
denominator d**n and every comparison below is an integer comparison.
A float source is a list of float masses and runs in log space, with
multiplicities from ``math.lgamma``.

The smoothing conventions follow the half-variational generator
f(t) = max(1 - t, 0), whose offset form is f itself and whose inverse is
f0^{-1}(x) = 1 - x.  A divergence budget x therefore smooths at level
delta = x, and the spectrum quantiles use the mass threshold 1 - x.

``self_check`` tests the reference against closed forms on uniform
sources and against brute force over every sequence for n <= 4.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

__all__ = [
    "ExactLevels",
    "FloatLevels",
    "exact_levels",
    "float_levels",
    "max_set_size",
    "h_max_value",
    "beta0",
    "h_min_value",
    "clipped_mass",
    "quantiles",
    "float_h_max",
    "float_h_min",
    "sequence_numerator",
    "resolve_divergence",
    "extract_divergence",
    "float_resolve_divergence",
    "float_extract_divergence",
    "self_check",
]


def _compositions(n: int, m: int) -> Iterator[tuple[int, ...]]:
    if m == 1:
        yield (n,)
        return
    for head in range(n, -1, -1):
        for rest in _compositions(n - head, m - 1):
            yield (head,) + rest


def _log_ratio(num: int, den: int) -> float:
    """log(num / den) for a reduced ratio of possibly huge integers."""
    return math.log(num) - math.log(den)


# --------------------------------------------------------------------------
# Exact lane: integer numerators over d**n


@dataclass(frozen=True)
class ExactLevels:
    """Distinct sequence probabilities numerators[j] / denom, descending.

    ``counts[j]`` is the number of sequences at level j; ``alphabet`` is
    the number of sequences, m**n.
    """

    n: int
    denom: int
    alphabet: int
    numerators: tuple[int, ...]
    counts: tuple[int, ...]


def exact_levels(weights: Sequence[int], n: int) -> ExactLevels:
    """Group all compositions of n by their probability numerator."""
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive integers")
    m = len(weights)
    fact = [1]
    for i in range(1, n + 1):
        fact.append(fact[-1] * i)
    powers = [[1] for _ in weights]
    for w, row in zip(weights, powers):
        for _ in range(n):
            row.append(row[-1] * w)
    by_num: dict[int, int] = {}
    for comp in _compositions(n, m):
        num = 1
        den = 1
        for row, k in zip(powers, comp):
            num *= row[k]
            den *= fact[k]
        by_num[num] = by_num.get(num, 0) + fact[n] // den
    nums = sorted(by_num, reverse=True)
    levels = ExactLevels(
        n=n,
        denom=sum(weights) ** n,
        alphabet=m ** n,
        numerators=tuple(nums),
        counts=tuple(by_num[x] for x in nums),
    )
    if sum(c * x for c, x in zip(levels.counts, levels.numerators)) != levels.denom:
        raise ArithmeticError("level masses do not sum to one")
    if sum(levels.counts) != levels.alphabet:
        raise ArithmeticError("level counts do not cover every sequence")
    return levels


def max_set_size(lv: ExactLevels, delta: Fraction) -> int:
    """Smallest number of sequences whose mass reaches 1 - delta."""
    u, v = delta.numerator, delta.denominator
    need = (v - u) * lv.denom  # mass target, scaled by v * denom
    cum = 0
    size = 0
    for num, count in zip(lv.numerators, lv.counts):
        level = v * num * count
        if cum + level >= need:
            rest = need - cum
            return size + -(-rest // (v * num))
        cum += level
        size += count
    return size


def h_max_value(size: int) -> float:
    return math.log(size)


def _excess_at(lv: ExactLevels, j: int, prefix_mass: list[int], prefix_count: list[int]) -> int:
    """(excess mass above level j) * denom: sum over levels above j of count*(p - p_j)."""
    return prefix_mass[j] - lv.numerators[j] * prefix_count[j]


def beta0(lv: ExactLevels, delta: Fraction) -> Fraction:
    """Smallest cap beta >= 1/alphabet with sum (P(x) - beta)+ <= delta.

    The excess g(beta) is convex, piecewise linear and decreasing.  A
    binary search over the level values finds the last level j with
    g(p_j) <= delta; the root then lies between p_{j+1} and p_j, where
    g(beta) = S_j - beta * C_j with S_j, C_j the mass and count of the
    levels down to j.
    """
    u, v = delta.numerator, delta.denominator
    prefix_mass = [0]
    prefix_count = [0]
    for num, count in zip(lv.numerators, lv.counts):
        prefix_mass.append(prefix_mass[-1] + num * count)
        prefix_count.append(prefix_count[-1] + count)
    # g(p_j) * denom with prefix_* indexed by the number of levels above j.
    lo, hi = 0, len(lv.numerators) - 1  # g(p_0) = 0 <= delta always
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if v * _excess_at(lv, mid, prefix_mass, prefix_count) <= u * lv.denom:
            lo = mid
        else:
            hi = mid - 1
    mass = prefix_mass[lo + 1]
    count = prefix_count[lo + 1]
    star = Fraction(v * mass - u * lv.denom, v * count * lv.denom)
    clamp = Fraction(1, lv.alphabet)
    return star if star > clamp else clamp


def h_min_value(beta: Fraction) -> float:
    return -_log_ratio(beta.numerator, beta.denominator)


def clipped_mass(lv: ExactLevels, beta: Fraction) -> Fraction:
    """A_n = 1 - sum (P(x) - beta)+, the mass left after clipping at beta."""
    bn, bd = beta.numerator, beta.denominator
    over = 0
    for num, count in zip(lv.numerators, lv.counts):
        if num * bd <= bn * lv.denom:
            break
        over += count * (num * bd - bn * lv.denom)
    return Fraction(lv.denom * bd - over, lv.denom * bd)


def _level_value(lv: ExactLevels, num: int) -> float:
    g = math.gcd(num, lv.denom)
    return -_log_ratio(num // g, lv.denom // g) / lv.n


def quantiles(lv: ExactLevels, threshold: Fraction) -> tuple[float, float]:
    """(kbar, kunder) of the self-information spectrum at mass threshold.

    kbar is the smallest level value (1/n) log 1/P whose lower tail, the
    levels at or below it, holds at least the threshold mass; kunder the
    largest level value whose upper tail does.
    """
    u, v = threshold.numerator, threshold.denominator
    need = u * lv.denom

    def scan(order: Sequence[int]) -> float:
        cum = 0
        for j in order:
            cum += lv.numerators[j] * lv.counts[j]
            if v * cum >= need:
                return _level_value(lv, lv.numerators[j])
        return _level_value(lv, lv.numerators[order[-1]])

    idx = range(len(lv.numerators))
    return scan(idx), scan(idx[::-1])


# --------------------------------------------------------------------------
# Float lane: log space with lgamma multiplicities


@dataclass(frozen=True)
class FloatLevels:
    """Composition log-probabilities (descending) and log-multiplicities."""

    n: int
    log_alphabet: float
    log_probs: tuple[float, ...]
    log_counts: tuple[float, ...]


def float_levels(masses: Sequence[float], n: int) -> FloatLevels:
    logs = [math.log(p) for p in masses]
    lg_n = math.lgamma(n + 1)
    rows = []
    for comp in _compositions(n, len(masses)):
        lp = math.fsum(k * lm for k, lm in zip(comp, logs))
        lc = lg_n - math.fsum(math.lgamma(k + 1) for k in comp)
        rows.append((lp, lc))
    rows.sort(key=lambda r: -r[0])
    return FloatLevels(
        n=n,
        log_alphabet=n * math.log(len(masses)),
        log_probs=tuple(r[0] for r in rows),
        log_counts=tuple(r[1] for r in rows),
    )


def _log_add(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def float_h_max(lv: FloatLevels, delta: float) -> float:
    """log of the smallest sequence count covering mass 1 - delta."""
    target = 1.0 - delta
    cum = 0.0
    log_whole = -math.inf
    for lp, lc in zip(lv.log_probs, lv.log_counts):
        mass = math.exp(lp + lc)
        if cum + mass >= target:
            log_extra = math.log(target - cum) - lp
            if log_extra < 36.0:
                log_extra = math.log(math.ceil(math.exp(log_extra)))
            return _log_add(log_whole, log_extra)
        cum += mass
        log_whole = _log_add(log_whole, lc)
    return log_whole


def float_h_min(lv: FloatLevels, delta: float) -> float:
    """-log of the smallest admissible cap, clamped at 1/alphabet."""
    cum = 0.0
    log_count = -math.inf
    probs = lv.log_probs
    log_star = -math.inf
    for j, (lp, lc) in enumerate(zip(probs, lv.log_counts)):
        cum += math.exp(lp + lc)
        log_count = _log_add(log_count, lc)
        if cum <= delta:
            continue
        cand = math.log(cum - delta) - log_count
        if j + 1 == len(probs) or cand >= probs[j + 1]:
            log_star = cand
            break
    return -max(log_star, -lv.log_alphabet)


def float_quantiles(lv: FloatLevels, threshold: float) -> tuple[float, float]:
    """(kbar, kunder) of the spectrum at mass threshold, in floating point.

    The same scans as ``quantiles``: compositions in order of their level
    value -log P / n, each carrying mass exp(log P + log count).
    """

    def scan(order: Sequence[int]) -> float:
        cum = 0.0
        for j in order:
            cum += math.exp(lv.log_probs[j] + lv.log_counts[j])
            if cum >= threshold:
                return -lv.log_probs[j] / lv.n
        return -lv.log_probs[order[-1]] / lv.n

    idx = range(len(lv.log_probs))
    return scan(idx), scan(idx[::-1])


# --------------------------------------------------------------------------
# Divergences of emitted maps, recomputed from their labels


def sequence_numerator(weights: Sequence[int], seq: Sequence[int]) -> int:
    num = 1
    for sym in seq:
        num *= weights[sym]
    return num


def resolve_divergence(weights: Sequence[int], n: int, M: int, image) -> Fraction:
    """D(P || Q) for Q = count/M on the image: sum_x (Q(x) - P(x))+."""
    denom = sum(weights) ** n
    total = 0
    for seq, count in image:
        gap = count * denom - sequence_numerator(weights, seq) * M
        if gap > 0:
            total += gap
    return Fraction(total, M * denom)


def extract_divergence(weights: Sequence[int], n: int, bins) -> Fraction:
    """D(output || uniform M): sum_i (1/M - P(bin i))+."""
    denom = sum(weights) ** n
    M = len(bins)
    total = 0
    for b in bins:
        gap = denom - M * sum(sequence_numerator(weights, seq) for seq in b)
        if gap > 0:
            total += gap
    return Fraction(total, M * denom)


def _float_prob(masses: Sequence[float], seq: Sequence[int]) -> float:
    return math.exp(math.fsum(math.log(masses[sym]) for sym in seq))


def float_resolve_divergence(masses: Sequence[float], M: int, image) -> float:
    return math.fsum(max(count / M - _float_prob(masses, seq), 0.0) for seq, count in image)


def float_extract_divergence(masses: Sequence[float], bins) -> float:
    M = len(bins)
    return math.fsum(
        max(1.0 / M - math.fsum(_float_prob(masses, seq) for seq in b), 0.0) for b in bins
    )


# --------------------------------------------------------------------------
# Checks of the reference itself


def _brute(weights: Sequence[int], n: int) -> list[Fraction]:
    """Probability of every length-n sequence, descending."""
    d = sum(weights)
    probs = [
        Fraction(sequence_numerator(weights, seq), d ** n)
        for seq in itertools.product(range(len(weights)), repeat=n)
    ]
    return sorted(probs, reverse=True)


def _brute_set_size(probs: list[Fraction], delta: Fraction) -> int:
    cum = Fraction(0)
    for i, p in enumerate(probs, start=1):
        cum += p
        if cum >= 1 - delta:
            return i
    return len(probs)


def _brute_beta0(probs: list[Fraction], delta: Fraction) -> Fraction:
    def excess(beta: Fraction) -> Fraction:
        return sum((p - beta for p in probs if p > beta), Fraction(0))

    # The root sits on the linear piece through the k largest atoms.
    cands = []
    top = Fraction(0)
    for k, p in enumerate(probs, start=1):
        top += p
        cands.append((top - delta) / k)
    feasible = [b for b in cands if b >= 0 and excess(b) <= delta]
    return max(min(feasible), Fraction(1, len(probs)))


def _brute_quantiles(probs: list[Fraction], n: int, threshold: Fraction) -> tuple[float, float]:
    vals = sorted((-_log_ratio(p.numerator, p.denominator) / n, p) for p in probs)

    def scan(items) -> float:
        cum = Fraction(0)
        for value, p in items:
            cum += p
            if cum >= threshold:
                return value
        return items[-1][0]

    return scan(vals), scan(vals[::-1])


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise ArithmeticError(f"reference self-check failed: {what}")


def self_check() -> None:
    """Raise ArithmeticError if the reference disagrees with closed forms or brute force."""
    deltas = [Fraction(0), Fraction(1, 8), Fraction(5, 16), Fraction(1, 3)]
    for m in (2, 3):
        for n in (1, 2, 3, 4, 9):
            lv = exact_levels([1] * m, n)
            for delta in deltas:
                size = max_set_size(lv, delta)
                _expect(size == math.ceil((1 - delta) * m ** n), f"uniform H_max m={m} n={n}")
                _expect(
                    h_min_value(beta0(lv, delta)) == h_min_value(Fraction(1, m ** n)),
                    f"uniform H_min m={m} n={n}",
                )
                _expect(
                    quantiles(lv, 1 - delta) == (math.log(m), math.log(m)),
                    f"uniform quantiles m={m} n={n}",
                )
                flv = float_levels([1.0 / m] * m, n)
                # Where (1 - delta) * m**n is a whole number, float rounding
                # may land on either side of it, and the count with it.
                if ((1 - delta) * m ** n).denominator != 1:
                    _expect(
                        abs(float_h_max(flv, float(delta)) - math.log(size)) <= 1e-12 * n,
                        f"uniform float H_max m={m} n={n}",
                    )
                _expect(
                    abs(float_h_min(flv, float(delta)) - n * math.log(m)) <= 1e-12 * n,
                    f"uniform float H_min m={m} n={n}",
                )
                kbar, kunder = float_quantiles(flv, float(1 - delta))
                _expect(
                    abs(kbar - math.log(m)) <= 1e-12 and abs(kunder - math.log(m)) <= 1e-12,
                    f"uniform float quantiles m={m} n={n}",
                )
    for weights in ((89, 11), (7, 3), (47, 33, 20), (2, 1, 1), (5, 3, 2)):
        for n in (1, 2, 3, 4):
            lv = exact_levels(weights, n)
            probs = _brute(weights, n)
            for delta in deltas:
                _expect(
                    max_set_size(lv, delta) == _brute_set_size(probs, delta),
                    f"brute H_max {weights} n={n} delta={delta}",
                )
                b = beta0(lv, delta)
                _expect(b == _brute_beta0(probs, delta), f"brute beta0 {weights} n={n} delta={delta}")
                _expect(
                    clipped_mass(lv, b) == 1 - sum((p - b for p in probs if p > b), Fraction(0)),
                    f"brute A_n {weights} n={n} delta={delta}",
                )
                _expect(
                    quantiles(lv, 1 - delta) == _brute_quantiles(probs, n, 1 - delta),
                    f"brute quantiles {weights} n={n} delta={delta}",
                )
    # The float lane agrees with the exact lane away from knife edges.
    for weights, n in (((89, 11), 300), ((47, 33, 20), 40)):
        lv = exact_levels(weights, n)
        flv = float_levels([w / sum(weights) for w in weights], n)
        for delta in deltas[1:]:
            exact_max = h_max_value(max_set_size(lv, delta))
            exact_min = h_min_value(beta0(lv, delta))
            _expect(abs(float_h_max(flv, float(delta)) - exact_max) <= 1e-9 * exact_max, "lanes H_max")
            _expect(abs(float_h_min(flv, float(delta)) - exact_min) <= 1e-9 * exact_min, "lanes H_min")
            got = float_quantiles(flv, float(1 - delta))
            want = quantiles(lv, 1 - delta)
            _expect(all(abs(g - w) <= 1e-12 for g, w in zip(got, want)), "lanes quantiles")
    # Divergence of a hand-checked map: uniform bits, two of four sequences
    # each get half the seed, so (Q - P)+ = 2 * (1/2 - 1/4) = 1/2.
    _expect(
        resolve_divergence((1, 1), 2, 2, [((0, 0), 1), ((1, 1), 1)]) == Fraction(1, 2),
        "resolve divergence",
    )
    _expect(
        extract_divergence((1, 1), 2, [[(0, 0)], [(0, 1), (1, 0), (1, 1)]]) == Fraction(1, 4),
        "extract divergence",
    )
