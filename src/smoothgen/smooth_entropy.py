"""Smooth max and min entropies over finite alphabets, in nats.

The smooth max entropy at smoothing level delta is the log of the
smallest atom count whose total mass reaches 1 - delta.  The smooth min
entropy is -log(beta0) where beta0 is the smallest cap beta, at least
1/|alphabet|, whose excess mass sum_x (P(x) - beta)+ stays within delta.

Both accept an explicit :class:`FiniteDistribution` or a compressed
:class:`ProductSourceView` and read one prefix-mass profile of the
source's cached :class:`Levels` table: the running mass of its levels,
most probable first.  The spectrum quantiles read the same profile, so
the paper's two optimum rates, H_max^delta for resolvability and
H_min^delta for intrinsic randomness, are two readings of one scan.  The
profile is kept on the table and grown in doubling chunks, so it never
reads the table much more than twice as deep as the deepest delta
asked.  The max entropy's crossing level and the min entropy's
water-filling stop both move monotonically with delta, so a list of
deltas costs one pass.  Exact tables count in integers over the table's
common denominator, and only the returned cap becomes a ``Fraction``;
float tables add in a level-by-level scan's order and go to log space
where per-sequence probabilities underflow.  The rate sweeps and the
equivalence report read values only (``_smooth_values``), which on
float tables skips the H_min witness's residual excess mass; the
values are bitwise those of the public smoothers.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat
from operator import add, neg, sub
from typing import Optional, Sequence, Union

from .distributions import (
    FiniteDistribution,
    Levels,
    ProductSourceView,
    _MAX_PROFILE_BITS,
    _float_masses,
    _levels_of,
    _log_exact,
)
from .errors import BadParamError, OverflowGuardError

Number = Union[int, float, Fraction]
Source = Union[FiniteDistribution, ProductSourceView]

__all__ = [
    "MaxEntropyWitness",
    "MinEntropyWitness",
    "SmoothEntropyResult",
    "smooth_max_entropy",
    "smooth_min_entropy",
]


@dataclass(frozen=True)
class MaxEntropyWitness:
    """Chosen covering set: its atom count and captured mass.

    ``set_size`` is None when the count only exists in log space (the
    value is then still exact to float precision via the log form).
    """

    set_size: Optional[int]
    mass: float

    def __post_init__(self) -> None:
        if self.set_size is not None and self.set_size < 1:
            raise BadParamError("covering set cannot be empty")
        if not -1e-9 <= self.mass <= 1 + 1e-9:
            raise BadParamError(f"witness mass {self.mass} outside [0, 1]")


@dataclass(frozen=True)
class MinEntropyWitness:
    """Minimizing cap beta and its residual excess mass.

    ``beta`` is an exact ``Fraction`` on exact sources; on float sources
    it is ``exp(log_beta)`` and may underflow to 0.0, in which case
    ``log_beta`` remains authoritative.
    """

    beta: Number
    log_beta: float
    residual: float

    def __post_init__(self) -> None:
        if self.residual < -1e-12:
            raise BadParamError(f"residual {self.residual} is negative")


@dataclass(frozen=True)
class SmoothEntropyResult:
    order: str
    delta: float
    value: float
    witness: Union[MaxEntropyWitness, MinEntropyWitness]

    def __post_init__(self) -> None:
        if self.order not in ("max", "min"):
            raise BadParamError(f"order must be max or min, got {self.order!r}")
        if not 0.0 <= self.delta < 1.0:
            raise BadParamError(f"delta {self.delta} outside [0, 1)")
        if not self.value >= -1e-12:
            raise BadParamError(f"entropy {self.value} is negative")


def _check_delta(delta: Number) -> float:
    try:
        d = float(delta)
    except (TypeError, ValueError):
        raise BadParamError(f"delta must be a number, got {delta!r}")
    if not 0.0 <= d < 1.0:
        raise BadParamError(f"delta must lie in [0, 1), got {d}")
    return d


def _exact_delta(delta: Number) -> Fraction:
    return delta if isinstance(delta, Fraction) else Fraction(delta)


def _logaddexp(x: float, y: float) -> float:
    """log(exp(x) + exp(y)) without overflow; -inf is an empty sum."""
    if x == y:
        return x + math.log(2)
    return max(x, y) + math.log1p(math.exp(-abs(x - y)))


def _profile(levels: Levels) -> _Profile:
    """The table's profile, made on first use and kept in its ``__dict__``."""
    profile = levels.__dict__.get("_profile")
    if profile is None:
        profile = levels.__dict__["_profile"] = _Profile(levels)
    return profile


class _Profile:
    """Descending prefix sums of one level table, grown on demand.

    ``cum[j]`` is the mass of the levels before j: the running sum of the
    table's ``masses``, integers over its denominator, on exact tables,
    and the running float sum of the level masses of
    :func:`~smoothgen.distributions._float_masses` on float ones.  Exact
    tables also keep the atom count ``whole[j]`` before level j.  The
    min entropy reads ``_excess(j)``, the mass above level j + 1's
    probability among the levels up to j, which never decreases in j; it
    multiplies a count by a probability, so it is computed only at the
    levels a search probes and kept in ``excess``.  An exact profile
    holds at most ``_MAX_PROFILE_BITS`` bits in a column, levels read
    times the bits of the denominator, and refuses to grow past them
    with OverflowGuardError.  Float tables keep arrays of doubles
    instead: the log ``log_whole[j]`` of that atom count (a big integer
    at large n), and per level log(count), exp(log_prob + log(count))
    and the running sum ``cum_exp`` of the latter, each added in the
    order a level-by-level scan adds them.

    Levels are added in chunks, only when a query needs them.  On a view
    of either lane ``counts`` (and on exact views ``probs`` and
    ``masses``) are columns filled on demand, and slicing a chunk of them
    computes that chunk's entries: the profile's depth bounds what a
    sweep fills.  The profile keeps the table's columns, never the table:
    the table keeps the profile, and a reference back would make a cycle
    that leaves a view and its multiplicities to the cyclic garbage
    collector.
    """

    def __init__(self, levels: Levels) -> None:
        self.exact = levels.exact
        self.probs, self.counts, self.logs = levels.probs, levels.counts, levels.logs
        self.denominator, self.alphabet_size = levels.denominator, levels.alphabet_size
        self.atoms = 0
        if self.exact:
            self.masses, self.bits = levels.masses, levels.denominator.bit_length()
            self.cum, self.whole, self.excess = [0], [0], {}
        else:
            self.cum, self.cum_exp = array("d", [0.0]), array("d", [0.0])
            self.log_whole = array("d", [-math.inf])
            self.log_counts, self.exp_masses = array("d"), array("d")

    def _grow(self) -> bool:
        """Add the next levels, as many as are in already and at least 64.

        Doubling keeps the table read at most about twice as deep as the
        deepest query, in C-speed passes.  Returns False once the table is
        exhausted.
        """
        start = len(self.cum) - 1
        stop = min(start + max(start, 64), len(self.probs))
        if start == stop:
            return False
        if self.exact and stop * self.bits > _MAX_PROFILE_BITS:
            raise OverflowGuardError(
                f"{stop} exact levels of {self.bits}-bit masses exceed the profile budget of "
                f"{_MAX_PROFILE_BITS} bits; a base of float weights (float masses through "
                "make_distribution in the library) takes the float lane at this n, while the "
                "CLI reads JSON weights exactly"
            )
        counts = self.counts[start:stop]
        atoms = list(accumulate(counts, initial=self.atoms))[1:]
        self.atoms = atoms[-1]
        if self.exact:
            self.cum += islice(accumulate(self.masses[start:stop], initial=self.cum[-1]), 1, None)
            self.whole += atoms
            return True
        linear, log_counts, masses = _float_masses(self.probs[start:stop], counts, self.logs[start:stop])
        self.cum.extend(islice(accumulate(linear, initial=self.cum[-1]), 1, None))
        self.cum_exp.extend(islice(accumulate(masses, initial=self.cum_exp[-1]), 1, None))
        self.log_whole.extend(map(math.log, atoms))
        self.log_counts.extend(log_counts)
        self.exp_masses.extend(masses)
        return True

    def _excess(self, j: int) -> int:
        """cum[j + 1] - whole[j + 1] * probs[j + 1] of a grown level j, probs past the table 0."""
        excess = self.excess.get(j)
        if excess is None:
            nxt = self.probs[j + 1] if j + 1 < len(self.probs) else 0
            excess = self.excess[j] = self.cum[j + 1] - self.whole[j + 1] * nxt
        return excess

    def _first(self, column, threshold: Number, lo: int = 0) -> int:
        """Smallest i >= lo with column[i] >= threshold, len(column) if none.

        ``column`` is a nondecreasing column, grown until it reaches the
        threshold or the table ends.
        """
        while (len(column) <= lo or column[-1] < threshold) and self._grow():
            pass
        return bisect_left(column, threshold, lo)

    def crossing(self, threshold: Number) -> int:
        """First level whose prefix mass through it reaches the threshold.

        The threshold is a numerator over the table's denominator on exact
        tables.  Returns the level count if the whole table falls short.
        """
        return self._first(self.cum, threshold, 1) - 1

    def max_entropy(self, delta: Number) -> tuple[float, MaxEntropyWitness]:
        """Value and witness of H_max at delta: whole levels, then single atoms."""
        den = self.denominator
        if self.exact:
            # With delta = p/q and masses cum/den: cum/den >= 1 - delta is
            # cum*q >= (q - p)*den.
            p, q = delta.numerator, delta.denominator
            target = (q - p) * den
            j = self.crossing(-(-target // q))
        else:
            target = 1.0 - delta
            j = self.crossing(target)
        cum = self.cum[j]
        if j == len(self.probs):
            mass = cum / den if self.exact else cum
            return math.log(self.atoms), MaxEntropyWitness(self.atoms, mass)
        prob, count, log_prob = self.probs[j], self.counts[j], self.logs[j]
        if self.exact:
            extra = -((cum * q - target) // (prob * q))
            size = self.whole[j] + extra
            return math.log(size), MaxEntropyWitness(size, (cum + extra * prob) / den)
        need = target - cum
        if prob > 0.0 and need / prob < 9e15:
            # Rounding in ``need`` must not take more atoms than the level holds.
            extra = min(max(math.ceil(need / prob), 1), count)
            size = sum(self.counts[:j]) + extra
            return math.log(size), MaxEntropyWitness(size, cum + extra * prob)
        # Tail count exists only in log space at this scale.
        log_extra = max(math.log(need) - log_prob, 0.0)
        return _logaddexp(self.log_whole[j], log_extra), MaxEntropyWitness(None, target)

    def min_entropies(
        self, deltas: Sequence[Number], witness: bool = True
    ) -> list[tuple[float, Optional[MinEntropyWitness]]]:
        """Value and witness of H_min at each delta of an ascending list.

        The water-filling stops at the first level j whose cap
        (prefix mass through j - delta) / (atoms through j) reaches the
        next level's probability.  That level only moves down the table
        as delta grows, so one walk serves the whole list.  With
        ``witness`` false a float table leaves the witness out (None),
        and with it the residual's pass over the levels above the cap.
        """
        if self.exact:
            return [self._min_exact(d) for d in deltas]
        logs, size = self.logs, len(self.logs)
        log_clamp = -math.log(self.alphabet_size)
        out = []
        j = 0
        for d in deltas:
            log_beta_star = -math.inf
            while j < len(self.cum) - 1 or self._grow():
                cum = self.cum_exp[j + 1]
                if cum > d:
                    cand = math.log(cum - d) - self.log_whole[j + 1]
                    if cand >= (logs[j + 1] if j + 1 < size else -math.inf):
                        log_beta_star = cand
                        break
                j += 1
            log_beta0 = max(log_beta_star, log_clamp)
            found = None
            if witness:
                found = MinEntropyWitness(
                    beta=math.exp(log_beta0), log_beta=log_beta0, residual=self._residual(log_beta0)
                )
            out.append((-log_beta0, found))
        return out

    def _min_exact(self, d: Fraction) -> tuple[float, MinEntropyWitness]:
        # With delta = p/q the cap through level j is
        # (cum*q - p*den) / (q*den*whole); it is accepted once it reaches
        # the next level nxt/den, that is once excess[j]*q >= p*den.
        p, q = d.numerator, d.denominator
        den = self.denominator
        target = -(-p * den // q)
        while (len(self.cum) == 1 or self._excess(len(self.cum) - 2) < target) and self._grow():
            pass
        j = bisect_left(range(len(self.cum) - 1), target, key=self._excess)
        if j == len(self.probs):
            raise BadParamError("water-filling failed; masses do not reach delta")
        beta_star = Fraction(self.cum[j + 1] * q - p * den, q * den * self.whole[j + 1])
        clamp = Fraction(1, self.alphabet_size)
        if beta_star > clamp:
            # The water-filling cap leaves exactly delta above it.
            beta0, residual = beta_star, float(d)
        else:
            # Excess over the k levels above the clamp 1/c, all of them at
            # or before the stop level.
            c, k = clamp.denominator, 0
            while k < len(self.probs) and self.probs[k] * c > den:
                k += 1
            beta0 = clamp
            residual = (self.cum[k] * c - den * self.whole[k]) / (den * c)
        value = -_log_exact(beta0)
        return value, MinEntropyWitness(beta=beta0, log_beta=-value, residual=residual)

    def _residual(self, log_beta: float) -> float:
        """Float excess mass over the k levels above exp(log_beta), all grown."""
        k = bisect_left(self.logs, -log_beta, 0, len(self.log_counts), key=neg)
        caps = map(math.exp, map(add, repeat(log_beta), self.log_counts[:k]))
        return max(math.fsum(map(sub, self.exp_masses[:k], caps)), 0.0)


def _answers(
    source: Source, order: str, deltas: Sequence[Number], witness: bool = True
) -> tuple[list[float], list[tuple]]:
    """The checked deltas as floats, and (value, witness) at each, in list order.

    Equal deltas are answered once, all of them from the source's one
    profile in one pass.
    """
    deltas_f = [_check_delta(d) for d in deltas]
    levels = _levels_of(source)
    profile = _profile(levels)
    keys = [_exact_delta(d) for d in deltas] if levels.exact else deltas_f
    ascending = sorted(set(keys))
    if order == "max":
        answers = [profile.max_entropy(k) for k in ascending]
    else:
        answers = profile.min_entropies(ascending, witness)
    by_key = dict(zip(ascending, answers))
    return deltas_f, [by_key[k] for k in keys]


def _smooth_entropies(
    source: Source, order: str, deltas: Sequence[Number]
) -> list[SmoothEntropyResult]:
    """H_max (order "max") or H_min ("min") at each delta, in list order."""
    deltas_f, answers = _answers(source, order, deltas)
    return [SmoothEntropyResult(order, d, *answer) for d, answer in zip(deltas_f, answers)]


def _smooth_values(source: Source, order: str, deltas: Sequence[Number]) -> list[float]:
    """The values of :func:`_smooth_entropies`, bitwise, for sweeps that read nothing else.

    Float H_min skips its witness's residual; every value keeps the
    result's nonnegativity bound.
    """
    values = [value for value, _ in _answers(source, order, deltas, witness=False)[1]]
    for value in values:
        if not value >= -1e-12:
            raise BadParamError(f"entropy {value} is negative")
    return values


def smooth_max_entropy(source: Source, delta: Number) -> SmoothEntropyResult:
    """Log of the smallest atom count covering mass 1 - delta.

    Greedy by probability descending: whole levels first, then the
    partial tail of the crossing level counted atom-by-atom.
    """
    return _smooth_entropies(source, "max", [delta])[0]


def smooth_min_entropy(source: Source, delta: Number) -> SmoothEntropyResult:
    """-log of the smallest admissible cap beta (water-filling solve).

    The cap is clamped to at least 1/|alphabet| counting zero-mass
    atoms, so the clamp can raise beta above the unclamped solution.
    """
    return _smooth_entropies(source, "min", [delta])[0]
