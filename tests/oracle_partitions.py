"""Exhaustive search over set partitions for the best M-bin extractor.

A reference oracle for small explicit distributions: it tries every
partition of the alphabet into M bins, so it shares no code with the
library's first-fit builder.  Criterion 8 and the intrinsic tests check
the builder and the converse's divergence floor against it.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from smoothgen import (
    BadParamError,
    DegenerateSupportError,
    DivergenceValue,
    FFunction,
    FiniteDistribution,
    f_divergence,
    uniform_distribution,
)

__all__ = ["min_achievable_uniformity"]


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
