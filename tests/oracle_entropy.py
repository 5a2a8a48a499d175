"""Brute-force reference oracles for the smooth max and min entropies.

Verification anchors for small explicit distributions.  They share no
code with the library's smoothers: the max-entropy oracle enumerates
every subset, the min-entropy oracle brackets the excess-mass function
on a dense grid and bisects.  Both work in numpy floats and take only
the distribution type and the error classes from the package.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from smoothgen import BadParamError, FiniteDistribution, TooLargeError

__all__ = ["oracle_max_entropy", "oracle_min_entropy"]


def _check_delta(delta) -> float:
    try:
        d = float(delta)
    except (TypeError, ValueError):
        raise BadParamError(f"delta must be a number, got {delta!r}")
    if not 0.0 <= d < 1.0:
        raise BadParamError(f"delta must lie in [0, 1), got {d}")
    return d


def _as_float(dist: FiniteDistribution) -> np.ndarray:
    return np.array([float(m) for m in dist.masses], dtype=float)


def oracle_max_entropy(dist: FiniteDistribution, delta) -> float:
    """Exhaustive minimum of log|A| over subsets with mass >= 1 - delta.

    Works in float; exact inputs are compared at their rounded float
    values, so knife-edge exact instances should be fed as floats.
    """
    delta_f = _check_delta(delta)
    if not isinstance(dist, FiniteDistribution):
        raise BadParamError("oracle needs an explicit distribution")
    s = dist.size
    if s > 20:
        raise TooLargeError(f"{s} atoms exceed the exhaustive-subset limit of 20")
    p = _as_float(dist)
    target = 1.0 - delta_f
    best: Optional[int] = None
    chunk = 1 << 16
    for start in range(0, 1 << s, chunk):
        masks = np.arange(start, min(start + chunk, 1 << s), dtype=np.int64)
        bits = ((masks[:, None] >> np.arange(s, dtype=np.int64)) & 1).astype(float)
        mass = bits @ p
        ok = mass >= target
        if ok.any():
            low = int(bits[ok].sum(axis=1).min())
            best = low if best is None else min(best, low)
    if best is None:
        best = dist.support_size
    return math.log(best)


def oracle_min_entropy(dist: FiniteDistribution, delta) -> float:
    """Grid-plus-refinement search for the smallest admissible cap.

    Independent of the water-filling path: the excess-mass function is
    queried through sorted suffix sums, bracketed on a dense grid, and
    bisected inside the bracketing piece.
    """
    delta_f = _check_delta(delta)
    if not isinstance(dist, FiniteDistribution):
        raise BadParamError("oracle needs an explicit distribution")
    if dist.size > 10 ** 4:
        raise TooLargeError(f"{dist.size} atoms exceed the oracle limit of 10^4")
    p = _as_float(dist)
    asc = np.sort(p[p > 0])
    csum = np.cumsum(asc)
    total = float(csum[-1])

    def excess(b: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(asc, b, side="right")
        above = len(asc) - idx
        w_above = total - np.where(idx > 0, csum[np.maximum(idx - 1, 0)], 0.0)
        return w_above - b * above

    clamp = 1.0 / dist.size
    if float(excess(np.array([clamp]))[0]) <= delta_f:
        return -math.log(clamp)
    top = float(asc[-1])
    grid = np.unique(np.concatenate([asc, np.linspace(clamp, top, 4097)]))
    grid = grid[grid >= clamp]
    feasible = excess(grid) <= delta_f
    first = int(np.argmax(feasible))
    hi = float(grid[first])
    lo = clamp if first == 0 else float(grid[first - 1])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(excess(np.array([mid]))[0]) <= delta_f:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-16 * max(hi, 1.0):
            break
    return -math.log(max(hi, clamp))
