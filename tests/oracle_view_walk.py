"""Reference type-class walk: the view columns and level table, one class at a time.

A frozen copy of the library's ``iid_power`` walk, ``ProductSourceView.levels``
and ``_runs`` as they were before the walk filled its columns in row
passes: per-class list comprehensions for the compositions and
log-probabilities, and one multiply-and-divide per class for the
multinomials, carried along each row from the row's first one.  The float
operations and their order are kept verbatim, so the library can be
checked against it bitwise.  It imports nothing from the package under
test; a base is any object with ``labels`` and ``masses``.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["view_columns", "level_table"]


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _log_exact(x) -> float:
    if isinstance(x, Fraction):
        return math.log(x.numerator) - math.log(x.denominator)
    return math.log(x)


def view_columns(base, n: int) -> dict:
    """The view's columns of base^n, most probable first, as tuples.

    Keys: ``compositions``, ``log_probs``, ``multiplicities``,
    ``numerators`` and ``denominator`` (both None on a float base).
    """
    exact = all(_is_exact(m) for m in base.masses)
    support_masses = [m for m in base.masses if m > 0]
    s = len(support_masses)
    log_masses = [_log_exact(m) for m in support_masses]
    denominator = None
    num = None
    if exact:
        d = math.lcm(*(m.denominator for m in support_masses))
        weights = [m.numerator * (d // m.denominator) for m in support_masses]
        denominator = d ** n
        num = weights[-1] ** n

    log_terms = [[k * lm for k in range(n + 1)] for lm in log_masses]
    comps, logs, mults, nums = [], [], [], []
    if s == 1:
        comps.append((n,))
        logs.append(sum(map(list.__getitem__, log_terms, (n,))))
        mults.append(1)
        nums.append(num)
    comp = [0] * (s - 1) + [n]
    mult = 1
    while s > 1:
        head = tuple(comp[:-2])
        m = comp[-1]
        lead = sum(map(list.__getitem__, log_terms, head))
        left, last = log_terms[-2], log_terms[-1]
        comps += [head + (k, m - k) for k in range(m + 1)]
        logs += [lead + left[k] + last[m - k] for k in range(m + 1)]
        half = [mult]
        for k in range(m // 2):
            half.append(half[-1] * (m - k) // (k + 1))
        mults += half
        mults += reversed(half[: m - m // 2])
        if exact:
            nums.append(num)
            for _ in range(m):
                num = num // weights[-1] * weights[-2]
                nums.append(num)
        comp[-2], comp[-1] = m, 0
        if comp[0] == n:
            break
        i = s - 2
        while not comp[i]:
            i -= 1
        v = comp[i]
        comp[i - 1] += 1
        comp[i] = 0
        comp[-1] = v - 1
        mult = mult * v // comp[i - 1]
        if exact:
            num = math.prod(w ** k for w, k in zip(weights, comp))

    order = sorted(range(len(comps)), key=(nums if exact else logs).__getitem__, reverse=True)

    def column(values):
        return tuple(map(values.__getitem__, order))

    return {
        "compositions": column(comps),
        "log_probs": column(logs),
        "multiplicities": column(mults),
        "numerators": column(nums) if exact else None,
        "denominator": denominator,
    }


def _runs(keys, counts):
    changes = [i for i in range(1, len(keys)) if keys[i] != keys[i - 1]]
    bounds = [0, *changes, len(keys)]
    spans = zip(bounds, bounds[1:])
    summed = [counts[a] if b - a == 1 else sum(counts[a:b]) for a, b in spans]
    return [keys[i] for i in bounds[:-1]], summed, bounds


def level_table(columns: dict) -> tuple[tuple, tuple, tuple]:
    """(probs, counts, logs) of the view's level table, from its columns."""
    exact = columns["numerators"] is not None
    keys = columns["numerators"] if exact else columns["log_probs"]
    keys, counts, bounds = _runs(keys, columns["multiplicities"])
    logs = [columns["log_probs"][i] for i in bounds[:-1]]
    probs = keys if exact else list(map(math.exp, logs))
    return tuple(probs), tuple(counts), tuple(logs)
