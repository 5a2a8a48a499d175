"""Reference exact lane on per-class ``Fraction`` values.

A frozen copy of the library's earlier exact code paths: type classes
whose per-sequence probabilities are ``Fraction`` products, levels
grouped by ``Fraction`` equality, and the exact branches of the smooth
max entropy, the smooth min entropy and the spectrum quantile scans, all
accumulating ``Fraction`` sums.  It imports nothing from the package
under test, so the integer-numerator lane can be checked against it
bitwise.  Inputs are plain sequences of exact masses (``int`` or
``Fraction``) summing to one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

__all__ = [
    "view_levels",
    "distribution_levels",
    "max_entropy",
    "min_entropy",
    "spectrum_quantiles",
]


def log_exact(x) -> float:
    """Natural log of a positive number, exact-aware for huge fractions."""
    if isinstance(x, Fraction):
        return math.log(x.numerator) - math.log(x.denominator)
    return math.log(x)


def _compositions(n: int, s: int) -> Iterable[tuple[int, ...]]:
    if s == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in _compositions(n - head, s - 1):
            yield (head,) + rest


def _type_classes(masses: Sequence, n: int) -> list[tuple[Fraction, int]]:
    """(per-sequence probability, multiplicity) per composition, descending."""
    support = [m for m in masses if m > 0]
    fact_n = math.factorial(n)
    classes = []
    for comp in _compositions(n, len(support)):
        mult = fact_n // math.prod(math.factorial(k) for k in comp)
        prob = math.prod((m ** k for m, k in zip(support, comp)), start=Fraction(1))
        classes.append((prob, mult))
    classes.sort(key=lambda c: c[0], reverse=True)
    return classes


def view_levels(masses: Sequence, n: int) -> tuple[list[tuple[Fraction, int]], int]:
    """(prob, count) per distinct level of masses^n, descending; alphabet size."""
    levels: list[tuple[Fraction, int]] = []
    for prob, mult in _type_classes(masses, n):
        if levels and levels[-1][0] == prob:
            levels[-1] = (prob, levels[-1][1] + mult)
        else:
            levels.append((prob, mult))
    return levels, len(masses) ** n


def distribution_levels(masses: Sequence) -> tuple[list[tuple[Fraction, int]], int]:
    """(prob, count) per distinct positive mass, descending; alphabet size."""
    order = sorted(range(len(masses)), key=lambda i: masses[i], reverse=True)
    levels: list[tuple[Fraction, int]] = []
    for i in order:
        m = masses[i]
        if m <= 0:
            break
        if levels and levels[-1][0] == m:
            levels[-1] = (m, levels[-1][1] + 1)
        else:
            levels.append((m, 1))
    return levels, len(masses)


def max_entropy(levels, delta) -> tuple[float, int, float]:
    """(value, covering set size, covered mass) at smoothing delta."""
    target = 1 - (delta if isinstance(delta, Fraction) else Fraction(delta))
    cum = Fraction(0)
    whole = 0
    for prob, count in levels:
        class_mass = prob * count
        if cum + class_mass < target:
            cum += class_mass
            whole += count
            continue
        extra = math.ceil((target - cum) / prob)
        size = whole + extra
        return math.log(size), size, float(cum + extra * prob)
    return math.log(whole), whole, float(cum)


def min_entropy(levels, alphabet_size: int, delta) -> tuple[float, Fraction, float]:
    """(value, cap beta0, residual excess mass) at smoothing delta."""
    d = delta if isinstance(delta, Fraction) else Fraction(delta)
    cum = Fraction(0)
    n_cum = 0
    beta_star: Optional[Fraction] = None
    for j, (prob, count) in enumerate(levels):
        cum += prob * count
        n_cum += count
        if cum <= d:
            continue
        cand = (cum - d) / n_cum
        nxt = levels[j + 1][0] if j + 1 < len(levels) else 0
        if cand >= nxt:
            beta_star = cand
            break
    if beta_star is None:
        raise ValueError("water-filling failed; masses do not reach delta")
    clamp = Fraction(1, alphabet_size)
    beta0 = beta_star if beta_star > clamp else clamp
    residual = Fraction(0)
    for prob, count in levels:
        if prob <= beta0:
            break
        residual += (prob - beta0) * count
    return -log_exact(beta0), beta0, float(residual)


def spectrum_quantiles(levels, n: int, c: Fraction) -> tuple[float, float]:
    """(kbar, kunder) at mass threshold c, levels ascending in value."""
    spectrum = [(-log_exact(prob) / n, prob * count) for prob, count in levels]
    cum = Fraction(0)
    kbar = spectrum[-1][0]
    for value, mass in spectrum:
        cum = cum + mass
        if cum >= c:
            kbar = value
            break
    cum = Fraction(0)
    kunder = spectrum[0][0]
    for value, mass in reversed(spectrum):
        cum = cum + mass
        if cum >= c:
            kunder = value
            break
    return kbar, kunder
