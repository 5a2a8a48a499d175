"""Smooth max and min entropies over finite alphabets, in nats.

The smooth max entropy at smoothing level delta is the log of the
smallest atom count whose total mass reaches 1 - delta.  The smooth min
entropy is -log(beta0) where beta0 is the smallest cap beta, at least
1/|alphabet|, whose excess mass sum_x (P(x) - beta)+ stays within delta.

Both accept an explicit :class:`FiniteDistribution` or a compressed
:class:`ProductSourceView` and work on the source's cached
:class:`Levels` table, whole probability levels at a time, so n in the
thousands stays cheap.  Exact sources are processed in integers over
the table's common denominator, and only the returned cap becomes a
``Fraction``; float sources run in log space so that per-sequence
probabilities far below float range cannot underflow to nonsense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .distributions import (
    FiniteDistribution,
    Levels,
    ProductSourceView,
    _levels_of,
    _log_exact,
)
from .errors import BadParamError

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


def smooth_max_entropy(source: Source, delta: Number) -> SmoothEntropyResult:
    """Log of the smallest atom count covering mass 1 - delta.

    Greedy by probability descending: whole levels first, then the
    partial tail of the crossing level counted atom-by-atom.
    """
    delta_f = _check_delta(delta)
    levels = _levels_of(source)
    if levels.exact:
        # With delta = p/q and masses cum/den: cum/den < 1 - delta is
        # cum*q < (q - p)*den.
        d = _exact_delta(delta)
        p, q = d.numerator, d.denominator
        den = levels.denominator
        target = (q - p) * den
        cum = 0
        whole = 0
        for num, count in zip(levels.probs, levels.counts):
            reached = cum + num * count
            if reached * q < target:
                cum = reached
                whole += count
                continue
            extra = -((cum * q - target) // (num * q))
            size = whole + extra
            return SmoothEntropyResult(
                order="max",
                delta=delta_f,
                value=math.log(size),
                witness=MaxEntropyWitness(set_size=size, mass=(cum + extra * num) / den),
            )
        return SmoothEntropyResult(
            order="max",
            delta=delta_f,
            value=math.log(whole),
            witness=MaxEntropyWitness(set_size=whole, mass=cum / den),
        )
    target_f = 1.0 - delta_f
    cum_f = 0.0
    whole = 0
    for j, (prob_f, count, log_prob) in enumerate(
        zip(levels.probs, levels.counts, levels.logs)
    ):
        # Sums stay in linear floats while the level is representable;
        # the log chain is only for underflowed probabilities or counts
        # too large to convert exactly.
        class_mass = levels.float_mass(j)
        if cum_f + class_mass < target_f:
            cum_f += class_mass
            whole += count
            continue
        need = target_f - cum_f
        if prob_f == 0.0:
            prob_f = math.exp(log_prob)
        if prob_f > 0.0 and need / prob_f < 9e15:
            # Rounding in ``need`` must not take more atoms than the level holds.
            extra = min(max(math.ceil(need / prob_f), 1), count)
            size = whole + extra
            return SmoothEntropyResult(
                order="max",
                delta=delta_f,
                value=math.log(size),
                witness=MaxEntropyWitness(set_size=size, mass=cum_f + extra * prob_f),
            )
        # Tail count exists only in log space at this scale.
        log_extra = max(math.log(need) - log_prob, 0.0)
        log_whole = math.log(whole) if whole else -math.inf
        return SmoothEntropyResult(
            order="max",
            delta=delta_f,
            value=_logaddexp(log_whole, log_extra),
            witness=MaxEntropyWitness(set_size=None, mass=target_f),
        )
    return SmoothEntropyResult(
        order="max",
        delta=delta_f,
        value=math.log(whole),
        witness=MaxEntropyWitness(set_size=whole, mass=cum_f),
    )


def _residual_exact(levels: Levels, beta: Fraction) -> float:
    """Excess mass, (prob - beta) * count over the levels above beta, as a float."""
    b, c = beta.numerator, beta.denominator
    den = levels.denominator
    b_den = b * den
    mass = 0
    count_above = 0
    for num, count in zip(levels.probs, levels.counts):
        if num * c <= b_den:
            break
        mass += num * count
        count_above += count
    return (mass * c - b_den * count_above) / (den * c)


def _residual_float(levels: Levels, log_beta: float) -> float:
    terms = []
    for count, log_prob in zip(levels.counts, levels.logs):
        if log_prob <= log_beta:
            break
        log_count = math.log(count)
        terms.append(math.exp(log_prob + log_count) - math.exp(log_beta + log_count))
    return max(math.fsum(terms), 0.0)


def smooth_min_entropy(source: Source, delta: Number) -> SmoothEntropyResult:
    """-log of the smallest admissible cap beta (water-filling solve).

    The cap is clamped to at least 1/|alphabet| counting zero-mass
    atoms, so the clamp can raise beta above the unclamped solution.
    """
    delta_f = _check_delta(delta)
    levels = _levels_of(source)
    if levels.exact:
        # With delta = p/q, the candidate cap (cum/den - delta)/n_cum is
        # excess / (q*den*n_cum), excess = cum*q - p*den; it is accepted
        # once it reaches the next level nxt/den.
        d = _exact_delta(delta)
        p, q = d.numerator, d.denominator
        den = levels.denominator
        probs = levels.probs
        p_den = p * den
        cum = 0
        n_cum = 0
        beta_star: Optional[Fraction] = None
        for j, (num, count) in enumerate(zip(probs, levels.counts)):
            cum += num * count
            n_cum += count
            excess = cum * q - p_den
            if excess <= 0:
                continue
            nxt = probs[j + 1] if j + 1 < len(probs) else 0
            if excess >= nxt * q * n_cum:
                beta_star = Fraction(excess, q * den * n_cum)
                break
        if beta_star is None:
            raise BadParamError("water-filling failed; masses do not reach delta")
        clamp = Fraction(1, levels.alphabet_size)
        if beta_star > clamp:
            # The water-filling cap leaves exactly delta above it.
            beta0, residual = beta_star, float(d)
        else:
            beta0, residual = clamp, _residual_exact(levels, clamp)
        value = -_log_exact(beta0)
        return SmoothEntropyResult(
            order="min",
            delta=delta_f,
            value=value,
            witness=MinEntropyWitness(beta=beta0, log_beta=-value, residual=residual),
        )
    cum_f = 0.0
    n_cum = 0
    log_beta_star = -math.inf
    logs = levels.logs
    for j, (count, log_prob) in enumerate(zip(levels.counts, logs)):
        cum_f += math.exp(log_prob + math.log(count))
        n_cum += count
        if cum_f <= delta_f:
            continue
        cand = math.log(cum_f - delta_f) - math.log(n_cum)
        nxt = logs[j + 1] if j + 1 < len(logs) else -math.inf
        if cand >= nxt:
            log_beta_star = cand
            break
    log_clamp = -math.log(levels.alphabet_size)
    log_beta0 = max(log_beta_star, log_clamp)
    value = -log_beta0
    return SmoothEntropyResult(
        order="min",
        delta=delta_f,
        value=value,
        witness=MinEntropyWitness(
            beta=math.exp(log_beta0),
            log_beta=log_beta0,
            residual=_residual_float(levels, log_beta0),
        ),
    )
