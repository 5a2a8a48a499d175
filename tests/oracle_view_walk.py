"""Reference type-class walk: the view columns and level table, one class at a time.

A frozen copy of the library's ``iid_power`` walk, ``ProductSourceView.levels``
and ``_runs`` as they were before the walk filled its columns in row
passes: per-class list comprehensions for the compositions and
log-probabilities, and one multiply-and-divide per class for the
multinomials, carried along each row from the row's first one.  The float
operations and their order are kept verbatim, so the library can be
checked against it bitwise.  It also holds the certificate of a view's
classes that the library no longer runs (:func:`check_classes`, with
:func:`walk_ranks`): the walk makes every composition once, and the tests
check that with it.  It imports nothing from the package under test; a
base is any object with ``labels`` and ``masses``.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["view_columns", "level_table", "walk_rows", "walk_ranks", "check_classes"]


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


def walk_rows(n: int, s: int) -> list[tuple[int, ...]]:
    """The walk's rows over s symbols: (head..., m) for each head, in walk order.

    The carry loop of :func:`view_columns`, recording each row it visits
    instead of its classes; a one-symbol walk is the one row (n,).
    """
    if s == 1:
        return [(n,)]
    rows = []
    comp = [0] * (s - 1) + [n]
    while True:
        rows.append((*comp[:-2], comp[-1]))
        comp[-2], comp[-1] = comp[-1], 0
        if comp[0] == n:
            break
        i = s - 2
        while not comp[i]:
            i -= 1
        v = comp[i]
        comp[i - 1] += 1
        comp[i] = 0
        comp[-1] = v - 1
    return rows


def _each_a_composition(cols, n: int, s: int) -> bool:
    """Whether ``cols`` are s columns of C(n + s - 1, s - 1) nonnegative ``int`` counts, each class summing to n."""
    count = math.comb(n + s - 1, s - 1)
    if len(cols) != s or any(len(col) != count for col in cols):
        return False
    if any(type(k) is not int for col in cols for k in col):
        return False
    return all(min(c) >= 0 and sum(c) == n for c in zip(*cols))


def walk_ranks(cols, n: int, s: int):
    """Each class's walk rank, its lexicographic rank among the compositions of n into s parts.

    ``cols`` are s coordinate columns; None if a class is no composition of
    n into s parts.  A repeated class repeats a rank.
    """
    if not _each_a_composition(cols, n, s):
        return None
    rows = walk_rows(n, s)
    walk = rows if s == 1 else [(*row[:-1], j, row[-1] - j) for row in rows for j in range(row[-1] + 1)]
    rank = {c: i for i, c in enumerate(walk)}
    return [rank[c] for c in zip(*cols)]


def check_classes(rows, order, n: int, s: int) -> None:
    """Certify that a row table and an order of walk ranks hold every composition of n into s parts once.

    ``rows`` (one column per part, as the walk's row table) must be the
    C(n + s - 2, s - 2) compositions of n into s - 1 parts, each once, and
    ``order`` a permutation of the C(n + s - 1, s - 1) walk ranks with
    ``int`` entries.  Anything else raises ValueError.
    """
    count = math.comb(n + s - 1, s - 1)
    parts = max(s - 1, 1)
    if not (
        order is not None
        and _each_a_composition(rows, n, parts)
        and len(set(zip(*rows))) == len(rows[0])
        and len(order) == count
        and all(type(r) is int for r in order)
        and min(order) >= 0
        and max(order) < count
        and len(set(order)) == count
    ):
        raise ValueError(f"compositions are not the {count} compositions of {n} into {s} parts")


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
