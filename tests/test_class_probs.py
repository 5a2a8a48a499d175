"""Float class probabilities and exact normalisation against frozen copies.

The constructions read a float view's class probabilities as exact
products of its base masses, rounded once, and the bin weights of an
extractor's converse read the same values.  Both must agree bitwise,
by ``float.hex``, with :mod:`oracle_class_probs`, which computes them
from each mass's own integer ratio.  ``make_distribution`` must give
the masses, of the same type, that the frozen normalisation gives.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_class_probs import class_weights, construction_probs, normalise
from smoothgen import FiniteDistribution, iid_power, make_distribution
from smoothgen.distributions import _atom_levels, _bin_weights, _class_probs, _construction_levels

# The largest n per support size: binary to 40, ternary to 14, four symbols to 8.
MAX_N = {2: 40, 3: 14, 4: 8}

SPECIAL_BASES = [
    [0.5, 0.25, 0.25],  # two classes of one level: joined levels
    [1 - 2**-1000, 2**-1000],  # products underflow to subnormals and to 0
    [0.6, 0.4 - 1e-300, 1e-300],
    [0.5, 0.0, 0.5],  # a zero-mass symbol
]


@st.composite
def float_bases(draw) -> list[float]:
    support = draw(st.integers(min_value=2, max_value=4))
    mass = st.one_of(
        st.floats(min_value=1e-3, max_value=1.0),
        st.floats(min_value=1e-300, max_value=1e-3),
    )
    weights = draw(st.lists(mass, min_size=support, max_size=support))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        weights.insert(draw(st.integers(min_value=0, max_value=len(weights))), 0.0)
    return weights


def _hex(values) -> list[str]:
    return [float.hex(float(v)) for v in values]


def _check_view(view) -> None:
    base = view.base.masses
    levels = _construction_levels(view)
    assert _hex(levels.probs) == _hex(construction_probs(base, view.compositions, view.log_probs))
    # One bin per class, holding one label of that class, then a bin of
    # labels through each zero-mass symbol.
    symbols = view.support_labels
    bins = [
        (tuple(sym for sym, k in zip(symbols, comp) for _ in range(k)),)
        for comp in view.compositions
    ]
    zero = [lab for lab, m in zip(view.base.labels, base) if m == 0]
    bins.append(tuple((lab,) * view.n for lab in zero))
    expected = class_weights(base, view.compositions) + [0.0]
    assert _hex(_bin_weights(view, bins)) == _hex(expected)


@settings(max_examples=150, deadline=None)
@given(float_bases(), st.data())
def test_float_class_probs_match_the_frozen_rounded_products(masses, data):
    support = sum(1 for m in masses if m > 0)
    n = data.draw(st.integers(min_value=1, max_value=MAX_N[support]))
    _check_view(iid_power(make_distribution(masses), n))


@pytest.mark.parametrize("masses", SPECIAL_BASES, ids=["joined", "2^-1000", "1e-300", "zero"])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 14])
def test_float_class_probs_on_joined_and_subnormal_bases(masses, n):
    view = iid_power(FiniteDistribution(labels=tuple(range(len(masses))), masses=tuple(masses)), n)
    _check_view(view)


def test_float_binary_class_probs_at_n_256():
    # Past MAX_N: every class numerator is 256 unit moves or fewer from w_0^256.
    _check_view(iid_power(make_distribution([0.89, 0.11]), 256))


exact_weight = st.one_of(
    st.integers(min_value=0, max_value=50),
    st.fractions(min_value=0, max_value=5, max_denominator=60),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(exact_weight, min_size=1, max_size=8).filter(lambda ws: sum(ws) > 0))
@example([1])
@example([0, 1])
@example([Fraction(1, 3), 0, Fraction(2, 3)])
@example([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
@example([2, Fraction(4, 3), 0])
def test_make_distribution_matches_the_frozen_normalisation(weights):
    masses = make_distribution(weights).masses
    expected = normalise(weights)
    assert masses == expected
    assert list(map(type, masses)) == list(map(type, expected))


def test_class_readers_leave_the_composition_tuples_unbuilt():
    # They read the view's coordinate columns, a zero-mass symbol included.
    view = iid_power(make_distribution([0.5, 0.0, 0.3, 0.2]), 5)
    labels = list(itertools.product(view.base.labels, repeat=view.n))
    weights = _bin_weights(view, [labels[::2], labels[1::2]])
    assert len(_class_probs(view)) == len(_construction_levels(view).probs) == 21
    assert len(_atom_levels(view)) == len(labels) == 4**5
    assert 0 < weights[0] < 1 and 0 < weights[1] < 1
    assert view.compositions._tuples is None
