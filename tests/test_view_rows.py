"""A view's classes as the walk's row table and the sort's order.

The walk emits one row per head (all coordinates but the last two); the
view folds its classes row by row and sorts them by the fold.  The walk
makes every composition once, so the library keeps no certificate of
its classes: these tests pin the fold against a per-class oracle, the
walk's rows against the frozen walk of ``oracle_view_walk``, and a
view's classes as every composition once, in sorted order, by the
certificate ``oracle_view_walk.check_classes``, whose every refusal is
pinned here too.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

import pytest

import oracle_view_walk as ref
from oracle_class_logs import class_logs
from smoothgen import bernoulli, columns, iid_power, make_distribution

F = Fraction
ORACLE_CASES = [
    ([F(0), F(1)], (1, 7)),
    ([0.0, 1.0], (1, 7)),
    ([0.89, 0.11], (1, 2, 17, 256, 16384)),
    ([F(89, 100), F(11, 100)], (1, 2, 17, 256, 4096)),
    ([0.48, 0.34, 0.18], (1, 2, 31, 96)),
    ([F(1, 2), F(3, 10), F(1, 5)], (1, 2, 31, 96)),
    ([0.4, 0.3, 0.2, 0.1], (1, 3, 12, 24)),
    ([F(4, 10), F(3, 10), F(2, 10), F(1, 10)], (1, 3, 12, 24)),
    ([0.5, 0.0, 0.3, 0.2], (1, 2, 9, 40)),
    ([F(1, 2), F(0), F(3, 10), F(1, 5)], (1, 2, 9, 40)),
    ([0.6, 0.0, 0.4], (1, 9, 64)),
    ([F(3, 5), F(0), F(2, 5)], (1, 9, 64)),
]
ORACLE_IDS = [
    "exact1", "float1", "float2", "exact2", "float3", "exact3",
    "float4", "exact4", "float3-zero", "exact3-zero", "float2-zero", "exact2-zero",
]


@pytest.mark.parametrize("weights,ns", ORACLE_CASES, ids=ORACLE_IDS)
def test_the_row_fold_equals_each_class_folded_on_its_own(weights, ns):
    base = make_distribution(weights)
    for n in ns:
        view = iid_power(base, n)
        want = class_logs(base.masses, view.compositions)
        assert list(map(float.hex, view.log_probs)) == list(map(float.hex, want)), n


WALK_GRID = [(1, 1), (5, 1), (1, 2), (6, 2), (1, 3), (7, 3), (5, 4), (4, 5)]


@pytest.mark.parametrize("n,s", WALK_GRID)
def test_the_walk_ranks_are_the_lexicographic_ranks(n, s):
    rows = columns._rows(n, s)
    walk = [c for c in itertools.product(range(n + 1), repeat=s) if sum(c) == n]
    cols = columns._expanded(rows, s)
    assert list(zip(*cols)) == walk
    assert len(rows[0]) == (math.comb(n + s - 2, s - 2) if s > 1 else 1)
    assert ref.walk_ranks([list(col) for col in zip(*walk)], n, s) == list(range(len(walk)))
    ref.check_classes(rows, list(range(len(walk))), n, s)


def _grid_bases(s):
    """An exact and a float base of s support symbols, distinct weights, with a zero-mass symbol."""
    if s == 1:
        return [make_distribution([F(0), F(1)]), make_distribution([0.0, 1.0])]
    weights = [s + 1 - i for i in range(s)]
    exact = make_distribution([F(weights[0]), F(0), *map(F, weights[1:])])
    total = sum(weights)
    return [exact, make_distribution([weights[0] / total, 0.0, *(w / total for w in weights[1:])])]


def _assert_every_composition_once_in_sorted_order(base, n):
    view = iid_power(base, n)
    masses = [m for m in base.masses if m > 0]
    s = len(masses)
    rows = columns._rows(n, s)
    assert list(zip(*rows)) == ref.walk_rows(n, s)
    ref.check_classes(rows, ref.walk_ranks(view.compositions.columns, n, s), n, s)
    comps = list(view.compositions)
    if base.exact:
        probs = [math.prod(m**k for m, k in zip(masses, c)) for c in comps]
    else:
        probs = class_logs(base.masses, comps)
    assert all(map(operator.ge, probs, probs[1:]))


@pytest.mark.parametrize("n,s", WALK_GRID)
def test_the_walk_is_the_oracle_walk_and_a_view_holds_every_composition_once_in_order(n, s):
    for base in _grid_bases(s):
        _assert_every_composition_once_in_sorted_order(base, n)


@pytest.mark.parametrize(
    "weights,n", [([0.89, 0.11], 16384), ([0.48, 0.34, 0.18], 256)], ids=["float2-16384", "float3-256"]
)
def test_large_views_hold_every_composition_once_in_order(weights, n):
    _assert_every_composition_once_in_sorted_order(make_distribution(weights), n)


def _sorted_parts(base, n):
    """The walk's row table and the walk ranks of the view's classes, most probable first."""
    view = iid_power(base, n)
    s = len(view.support_labels)
    rows = columns._rows(n, s)
    order = ref.walk_ranks(view.compositions.columns, n, s)
    ref.check_classes(rows, order, n, s)
    return s, rows, order


def _refused(rows, order, n, s):
    message = f"compositions are not the {math.comb(n + s - 1, s - 1)} compositions of {n} into {s} parts"
    with pytest.raises(ValueError, match=message):
        ref.check_classes(rows, order, n, s)


BASES = [bernoulli(0.3), make_distribution([0.7, 0.3]), make_distribution([F(1, 2), F(3, 10), F(1, 5)]), make_distribution([0.5, 0.3, 0.2])]
BASE_IDS = ["exact2", "float2", "exact3", "float3"]


def _repeated(order):
    order[1] = order[0]


def _out_of_range(order):
    order[order.index(max(order))] = len(order)


def _negative(order):
    order[order.index(0)] = -1


def _float(order):
    order[2] = float(order[2])


def _bool(order):
    i = order.index(1)
    order[i] = True


def _short(order):
    order.pop()


@pytest.mark.parametrize("base", BASES, ids=BASE_IDS)
@pytest.mark.parametrize(
    "tamper",
    [_repeated, _out_of_range, _negative, _float, _bool, _short],
    ids=["repeated", "out-of-range", "negative", "float", "bool", "short"],
)
def test_an_order_that_is_no_permutation_of_int_ranks_is_refused(base, tamper):
    n = 8
    s, rows, order = _sorted_parts(base, n)
    tamper(order)
    _refused(rows, order, n, s)


def _missing_row(rows):
    return [col[:-1] for col in rows]


def _extra_row(rows):
    return [[*col, col[0]] for col in rows]


def _row_off_n(rows):
    return [*rows[:-1], [m + 1 for m in rows[-1]]]


@pytest.mark.parametrize("base", BASES, ids=BASE_IDS)
@pytest.mark.parametrize(
    "tamper", [_missing_row, _extra_row, _row_off_n], ids=["missing", "one-more", "not-summing-to-n"]
)
def test_a_row_table_that_misses_or_adds_a_row_is_refused(base, tamper):
    n = 8
    s, rows, order = _sorted_parts(base, n)
    _refused(tamper([list(col) for col in rows]), order, n, s)


@pytest.mark.parametrize(
    "weights", [[0.5, 0.3, 0.2], [F(1, 2), F(3, 10), F(1, 5)], [0.4, 0.3, 0.2, 0.1]], ids=["float3", "exact3", "float4"]
)
def test_a_row_table_that_repeats_a_row_in_place_of_another_is_refused(weights):
    # Binary tables have one row; these have several, so a row can stand in
    # for another and leave the row count right.
    s, rows, order = _sorted_parts(make_distribution(weights), 8)
    for i in range(1, len(rows[0])):
        _refused([[*col[:i], col[0], *col[i + 1 :]] for col in rows], order, 8, s)


@pytest.mark.parametrize(
    "weights,n,rows",
    [([0.89, 0.11], 16384, 1), ([0.48, 0.34, 0.18], 256, 257), ([F(89, 100), F(11, 100)], 4096, 1)],
    ids=["float2-16384", "float3-256", "exact2-4096"],
)
def test_a_build_walks_its_rows_once(weights, n, rows, monkeypatch):
    walks = []
    walk = columns._rows

    def counted(n, s):
        walks.append(walk(n, s))
        return walks[-1]

    monkeypatch.setattr(columns, "_rows", counted)
    view = iid_power(make_distribution(weights), n)
    assert [len(table[0]) for table in walks] == [rows]
    assert len(view.compositions.columns[0]) > rows
