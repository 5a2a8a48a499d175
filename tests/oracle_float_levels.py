"""Reference float lane: one scan of the level table per smoothed quantity.

A frozen copy of the library's float code paths as they were before the
level tables got a shared prefix-mass profile: the float branches of the
smooth max entropy, the smooth min entropy with its residual, and the
spectrum quantile scans, each walking the table on its own.  The float
operations and their order are kept verbatim, including the log-space
tail for probabilities that underflow, so the library can be checked
against it bitwise.  It imports nothing from the package under test; a
table is any object with the ``probs``, ``counts``, ``logs`` and
``alphabet_size`` columns of a float ``Levels`` table.
"""

from __future__ import annotations

import math

__all__ = ["max_entropy", "min_entropy", "quantile_levels"]


def _float_mass(levels, j: int) -> float:
    prob, count = levels.probs[j], levels.counts[j]
    if prob > 0.0 and count < (1 << 53):
        return prob * count
    return math.exp(levels.logs[j] + math.log(count))


def _logaddexp(x: float, y: float) -> float:
    if x == y:
        return x + math.log(2)
    return max(x, y) + math.log1p(math.exp(-abs(x - y)))


def max_entropy(levels, delta) -> tuple[float, object, float]:
    """(value, covering set size or None, covered mass) at smoothing delta."""
    target_f = 1.0 - float(delta)
    cum_f = 0.0
    whole = 0
    for j, (prob_f, count, log_prob) in enumerate(
        zip(levels.probs, levels.counts, levels.logs)
    ):
        class_mass = _float_mass(levels, j)
        if cum_f + class_mass < target_f:
            cum_f += class_mass
            whole += count
            continue
        need = target_f - cum_f
        if prob_f == 0.0:
            prob_f = math.exp(log_prob)
        if prob_f > 0.0 and need / prob_f < 9e15:
            extra = min(max(math.ceil(need / prob_f), 1), count)
            size = whole + extra
            return math.log(size), size, cum_f + extra * prob_f
        log_extra = max(math.log(need) - log_prob, 0.0)
        log_whole = math.log(whole) if whole else -math.inf
        return _logaddexp(log_whole, log_extra), None, target_f
    return math.log(whole), whole, cum_f


def _residual(levels, log_beta: float) -> float:
    terms = []
    for count, log_prob in zip(levels.counts, levels.logs):
        if log_prob <= log_beta:
            break
        log_count = math.log(count)
        terms.append(math.exp(log_prob + log_count) - math.exp(log_beta + log_count))
    return max(math.fsum(terms), 0.0)


def min_entropy(levels, delta) -> tuple[float, float, float, float]:
    """(value, cap beta0, log beta0, residual excess mass) at smoothing delta."""
    delta_f = float(delta)
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
    return -log_beta0, math.exp(log_beta0), log_beta0, _residual(levels, log_beta0)


def quantile_levels(levels, c: float) -> tuple[int, int]:
    """Level indices of kbar (mass summed upward) and kunder (downward)."""
    masses = [_float_mass(levels, j) for j in range(len(levels.probs))]
    j_bar = len(masses) - 1
    cum = 0.0
    for j, mass in enumerate(masses):
        cum = cum + mass
        if cum >= c:
            j_bar = j
            break
    j_under = 0
    cum = 0.0
    for j in reversed(range(len(masses))):
        cum = cum + masses[j]
        if cum >= c:
            j_under = j
            break
    return j_bar, j_under
