"""The type-class view and its level table against the frozen per-class walk.

``oracle_view_walk`` keeps the walk as it was before the view's columns
were filled in row passes.  Every column of the view, and its level
table, must equal it bit for bit (compared by ``repr``, which tells
every float apart), on exact and float bases with two, three and four
support symbols, a zero-mass symbol, and ties between classes that join
into one level.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_view_walk as ref
from smoothgen import FiniteDistribution, iid_power, make_distribution

F = Fraction
CASES = [
    ([0.89, 0.11], (1, 2, 3, 17, 256, 2048)),
    ([F(89, 100), F(11, 100)], (1, 2, 3, 17, 256, 2048)),
    ([w / 101 for w in (48, 34, 19)], (1, 2, 5, 31, 96)),
    ([F(1, 2), F(3, 10), F(1, 5)], (1, 2, 5, 31, 96)),
    ([0.4, 0.3, 0.2, 0.1], (1, 3, 12, 24)),
    ([F(4, 10), F(3, 10), F(2, 10), F(1, 10)], (1, 3, 12, 24)),
    ([0.6, 0.0, 0.4], (1, 2, 9, 64)),
    ([F(3, 5), 0, F(2, 5)], (1, 2, 9, 64)),
    ([0.5, 0.25, 0.25], (1, 2, 7, 48)),
    ([F(1, 2), F(1, 4), F(1, 4)], (1, 2, 7, 48)),
    ([0.25, 0.25, 0.25, 0.25], (1, 5, 16)),
    ([0.7, 0.3, 0.0, 0.0], (1, 6)),
]
IDS = [
    "float2", "exact2", "float3", "exact3", "float4", "exact4",
    "float-zero", "exact-zero", "float-joined", "exact-joined",
    "float-uniform4", "float2-two-zeros",
]
COLUMNS = ("compositions", "log_probs", "multiplicities", "numerators", "denominator")


def _assert_walk_equal(base, n):
    view = iid_power(base, n)
    want = ref.view_columns(base, n)
    for name in COLUMNS:
        assert repr(getattr(view, name)) == repr(want[name]), (n, name)
    levels = view.levels
    assert repr((levels.probs, levels.counts, levels.logs)) == repr(ref.level_table(want)), n
    return view


@pytest.mark.parametrize("weights,ns", CASES, ids=IDS)
def test_columns_and_level_table_equal_the_per_class_walk(weights, ns):
    base = make_distribution(weights)
    for n in ns:
        _assert_walk_equal(base, n)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 9), min_size=2, max_size=5).filter(lambda w: sum(w) > 0),
    st.booleans(),
    st.integers(1, 12),
)
def test_random_bases_equal_the_per_class_walk(weights, exact, n):
    # Small integer weights give ties between classes and zero-mass symbols.
    total = sum(weights)
    masses = [F(w, total) if exact else w / total for w in weights]
    base = FiniteDistribution(labels=tuple(range(len(masses))), masses=tuple(masses))
    _assert_walk_equal(base, n)


@pytest.mark.parametrize(
    "weights",
    [
        [0.89, 0.11],
        [F(89, 100), F(11, 100)],
        [w / 101 for w in (48, 34, 19)],
        [F(48, 101), F(34, 101), F(19, 101)],
    ],
    ids=["float2", "exact2", "float3", "exact3"],
)
def test_one_class_levels_share_the_view_columns(weights):
    # Every level is one class here, so the table holds the view's own tuples.
    view = iid_power(make_distribution(weights), 40)
    levels = view.levels
    assert len(levels) == len(view.multiplicities)
    assert levels.counts is view.multiplicities
    assert levels.logs is view.log_probs
    if view.exact:
        assert levels.probs is view.numerators


def test_joined_levels_keep_their_own_columns():
    view = iid_power(make_distribution([0.5, 0.25, 0.25]), 6)
    levels = view.levels
    assert len(levels) < len(view.multiplicities)
    assert sum(levels.counts) == sum(view.multiplicities)
