"""The certified float order of exact views, and the carried numerator and mass columns.

An exact view is sorted and certified by its log fold; a pair of
neighbours whose float gap lies within the fold's rounding bound is
compared exactly.  These tests pin the bound against a 50-digit
reference, show which bases reach the exact compare, and check the
carries that fill the numerators and the level masses on demand.
"""

from __future__ import annotations

import dataclasses
import decimal
import itertools
import math
from fractions import Fraction

import pytest

from smoothgen import (
    BadParamError,
    InexactCarryError,
    bernoulli,
    iid_power,
    make_distribution,
)
from smoothgen import columns

F = Fraction

# Two masses found by a random search over 55- to 62-bit fractions: the
# first is the smaller, yet its float log is the larger.
SMALLER = F(768013854171007811, 2320819861329013641)
LARGER = F(232632657794719495, 702980147651770988)
MISORDERED = make_distribution([SMALLER, LARGER, 1 - SMALLER - LARGER])
# Two weights that one double holds: their float logs tie.
TIED_FLOATS = make_distribution([2**60 + 1, 2**60])


def _exact_order(base, n):
    """Every composition of n, most probable first, ties in walk (lexicographic) order."""
    support = [m for m in base.masses if m > 0]
    walk = [c for c in itertools.product(range(n + 1), repeat=len(support)) if sum(c) == n]
    return sorted(walk, key=lambda c: math.prod(m**k for m, k in zip(support, c)), reverse=True)


def _bound(view):
    return columns._fold_bound([m for m in view.base.masses if m > 0], view.n)


def test_the_float_logs_misorder_or_tie_these_masses():
    # The walk of n = 1 over two symbols: the classes (0, 1), then (1, 0).
    logs = columns._row_logs([LARGER, SMALLER], [[1]], 1)
    assert SMALLER < LARGER and logs[0] > logs[1]
    assert logs[0] - logs[1] <= _bound(iid_power(MISORDERED, 1))
    a, b = TIED_FLOATS.masses
    assert a > b and columns._log_exact(a) == columns._log_exact(b)


@pytest.mark.parametrize("base", [MISORDERED, TIED_FLOATS], ids=["misordered", "tied-floats"])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_near_pairs_are_ordered_exactly(base, n):
    view = iid_power(base, n)
    assert list(view.compositions) == _exact_order(base, n)
    want = [math.prod(w**k for w, k in zip(view.numerators.weights, c)) for c in view.compositions]
    assert list(view.numerators) == want
    # Distinct masses are distinct levels, however close their floats.
    assert len(view.levels) == len(set(want))


@pytest.mark.parametrize("base", [MISORDERED, TIED_FLOATS], ids=["misordered", "tied-floats"])
def test_swapping_two_near_classes_is_not_sorted(base):
    view = iid_power(base, 1)
    i = next(i for i in range(len(view.log_probs) - 1) if abs(view.log_probs[i] - view.log_probs[i + 1]) <= _bound(view))
    comps = list(view.compositions)
    comps[i], comps[i + 1] = comps[i + 1], comps[i]
    with pytest.raises(BadParamError, match="not sorted"):
        dataclasses.replace(view, compositions=tuple(comps))


def test_swapping_two_tied_classes_is_still_certified():
    view = iid_power(make_distribution([F(1, 2), F(1, 4), F(1, 4)]), 3)
    comps = list(view.compositions)
    assert view.numerators[1] == view.numerators[2]
    comps[1], comps[2] = comps[2], comps[1]
    swapped = dataclasses.replace(view, compositions=tuple(comps))
    assert swapped.levels.counts == view.levels.counts
    assert list(swapped.numerators) == list(view.numerators)


def test_small_numerators_never_reach_the_exact_compare_with_distinct_masses():
    # Over every base of weights 1..12 on two symbols and 1..7 on three, and
    # masses near 1, neighbours within the bound are exact ties: distinct
    # products of small powers differ by far more than the fold's rounding.
    # The search finds no base of distinct masses inside the bound, so the
    # exact compare on such bases only settles ties.
    bases = [ws for ws in itertools.product(range(1, 13), repeat=2)]
    bases += [ws for ws in itertools.combinations_with_replacement(range(1, 8), 3)]
    bases += [(999, 1), (9999, 1), (998, 1, 1), (1, 1, 1, 1)]
    near, distinct = 0, []
    for ws in bases:
        base = make_distribution([F(w) for w in ws])
        for n in ((1, 7, 40) if len(ws) == 2 else (1, 7, 24)):
            view = iid_power(base, n)
            logs, bound = view.log_probs, _bound(view)
            for i in range(len(logs) - 1):
                if logs[i] - logs[i + 1] <= bound:
                    near += 1
                    if view.numerators[i] != view.numerators[i + 1]:
                        distinct.append((ws, n, i))
    assert near > 0
    assert distinct == []


def _reference_log(m: Fraction) -> decimal.Decimal:
    return decimal.Decimal(m.numerator).ln() - decimal.Decimal(m.denominator).ln()


@pytest.mark.parametrize(
    "masses,n",
    [
        ([F(999, 1000), F(1, 1000)], 4096),
        ([F(89, 100), F(11, 100)], 4096),
        ([F(3, 7), F(2, 7), F(2, 7)], 96),
        ([F(1, 3), F(1, 4), F(1, 6), F(1, 4)], 24),
        ([SMALLER, LARGER, 1 - SMALLER - LARGER], 48),
    ],
    ids=["near-one", "binary", "ternary", "four", "large-numerators"],
)
def test_every_class_log_is_within_half_the_bound(masses, n):
    # The bound is twice the per-class error E; a 50-digit reference sum of
    # k_i log m_i must lie within E of every computed class log.
    view = iid_power(make_distribution(masses), n)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        logs = [_reference_log(m) for m in masses]
        worst = max(
            abs(decimal.Decimal(computed) - sum(k * lm for k, lm in zip(comp, logs)))
            for computed, comp in zip(view.log_probs, zip(*view.compositions.columns))
        )
    assert worst <= decimal.Decimal(_bound(view) / 2)


def test_a_bound_scaled_by_the_mass_logs_alone_is_too_small_near_one():
    # log(999/1000) is about -0.001, but log 999 and log 1000 each round
    # by about 7e-16: a bound of n * 2u * |log m| sits below the error.
    masses, n = [F(999, 1000), F(1, 1000)], 1
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        error = abs(decimal.Decimal(columns._log_exact(masses[0])) - _reference_log(masses[0]))
    naive = n * 2 * 2.0**-53 * abs(math.log(999 / 1000))
    assert error > decimal.Decimal(naive)
    assert error <= decimal.Decimal(columns._fold_bound(masses, n) / 2)


@pytest.mark.parametrize(
    "weights",
    [
        [F(89, 100), F(11, 100)],
        [F(11, 100), F(89, 100)],
        [F(1, 2), F(1, 4), F(1, 4)],
        [F(1, 4), F(1, 4), F(1, 2)],
        [F(48, 101), F(34, 101), F(19, 101)],
        [F(1, 10), F(2, 10), F(3, 10), F(4, 10)],
    ],
)
def test_the_carries_equal_direct_products(weights):
    view = iid_power(make_distribution(weights), 40)
    cols, w = view.compositions.columns, view.numerators.weights
    comps = list(zip(*cols))
    assert list(view.numerators) == [math.prod(map(pow, w, c)) for c in comps]
    masses = columns._Carried(w, cols, counts=True)
    want = [m * n for m, n in zip(view.multiplicities, view.numerators)]
    assert list(masses) == want
    assert sum(view.levels.masses) == view.denominator
    # Every class's children come after it, so a whole carry leaves no frontier.
    for carry in (view.numerators, masses):
        assert carry._known == {} and carry._more == {} and carry._early == set()
    # The masses keep no entry: a read behind the carry starts it again.
    assert masses[5:9] == want[5:9] and masses[1:3] == want[1:3] and masses[8:3:-2] == want[8:3:-2]
    assert masses._values == [] and masses[7] == want[7]


def test_children_read_before_their_parents_leave_no_frontier():
    # A uniform base has one level, so any order of its classes is
    # certified.  Reversed, every child comes before its parent and is
    # computed directly, and is struck from the parent's count when the
    # parent comes.
    view = iid_power(make_distribution([F(1, 3)] * 3), 5)
    flipped = dataclasses.replace(view, compositions=tuple(reversed(view.compositions)))
    cols, w = flipped.compositions.columns, flipped.numerators.weights
    masses = columns._Carried(w, cols, counts=True)
    assert list(masses) == [math.prod(map(math.comb, itertools.accumulate(c), c)) for c in zip(*cols)]
    assert list(flipped.numerators) == [1] * len(flipped.compositions)
    for carry in (flipped.numerators, masses):
        assert carry._known == {} and carry._more == {} and carry._early == set()


def test_a_carry_that_leaves_a_remainder_is_refused():
    view = iid_power(bernoulli(F(3, 10)), 8)
    # An int read is a direct product; a slice reads the carry, whose
    # frontier then holds the root alone, the parent of the next class.
    for counts in (False, True):
        carry = columns._Carried(view.numerators.weights, view.compositions.columns, counts=counts)
        [root] = carry[:1]
        [code] = carry._known
        assert carry._known[code] == root and carry._more == {}
        carry._known[code] = root + 1  # no longer a multiple of w_r
        with pytest.raises(InexactCarryError, match="remainder"):
            carry[1:2]


def test_the_view_checks_its_block_length():
    view = iid_power(bernoulli(0.3), 8)
    for n in (8.0, "8", 0, -1):
        with pytest.raises(BadParamError, match="n must be a positive integer"):
            dataclasses.replace(view, n=n)
