"""Integer-numerator exact lane against the frozen ``Fraction`` reference.

Every value the exact lane returns must equal the reference bitwise:
smooth max and min entropies with their witnesses, and both spectrum
quantiles, on random exact bases of two to four symbols (zero-mass
atoms and differing denominators included) and on explicit
distributions.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_fraction_levels as ref
from smoothgen import (
    BadParamError,
    FiniteDistribution,
    half_variational,
    iid_power,
    inverse,
    offset,
    smooth_max_entropy,
    smooth_min_entropy,
    spectrum_rate,
)


@st.composite
def exact_masses(draw, min_size=2, max_size=4):
    """Masses a_i/b_i with independent denominators; the last takes the rest."""
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    head = []
    for _ in range(size - 1):
        b = draw(st.integers(min_value=1, max_value=12))
        head.append(Fraction(draw(st.integers(min_value=0, max_value=b)), b))
    rest = 1 - sum(head)
    if rest < 0:
        # Scale the head into the simplex, keeping distinct denominators.
        head = [m / (2 * sum(head)) for m in head]
        rest = 1 - sum(head)
    masses = head + [rest]
    return draw(st.permutations(masses))


deltas = st.one_of(
    st.fractions(min_value=0, max_value=Fraction(19, 20), max_denominator=1000),
    st.floats(min_value=0.0, max_value=0.95),
)
epsilons = st.one_of(
    st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=1000),
    st.floats(min_value=0.0, max_value=0.49),
)


def _knife_edges(data, levels) -> list[Fraction]:
    """Prefix masses and their complements, where every comparison ties."""
    prefix = Fraction(0)
    edges = []
    for prob, count in levels[:-1]:
        prefix += prob * count
        edges += [prefix, 1 - prefix]
    if not edges:
        return []
    picks = data.draw(st.lists(st.sampled_from(edges), min_size=1, max_size=4))
    return [e for e in picks if 0 <= e and float(e) < 1]


def _check_smoothers(source, levels, alphabet_size, delta):
    hmax = smooth_max_entropy(source, delta)
    want_value, want_size, want_mass = ref.max_entropy(levels, delta)
    assert hmax.value == want_value
    assert hmax.witness.set_size == want_size
    assert hmax.witness.mass == want_mass

    hmin = smooth_min_entropy(source, delta)
    want_value, want_beta, want_residual = ref.min_entropy(levels, alphabet_size, delta)
    assert hmin.value == want_value
    assert isinstance(hmin.witness.beta, Fraction)
    assert hmin.witness.beta == want_beta
    assert hmin.witness.log_beta == -want_value
    assert hmin.witness.residual == want_residual


def _check_spectrum(source, levels, n, eps):
    f = half_variational()
    c = Fraction(inverse(offset(f), Fraction(eps)))
    kbar, kunder = ref.spectrum_quantiles(levels, n, c)
    if kunder > kbar + 1e-9:
        with pytest.raises(BadParamError):
            spectrum_rate(source, f, eps)
        return
    got = spectrum_rate(source, f, eps)
    assert (got.kbar, got.kunder) == (kbar, kunder)


def _check_source(data, source, levels, alphabet_size, n):
    edges = _knife_edges(data, levels)
    for delta in data.draw(st.lists(deltas, min_size=1, max_size=3)) + edges:
        _check_smoothers(source, levels, alphabet_size, delta)
    for eps in [data.draw(epsilons)] + edges:
        _check_spectrum(source, levels, n, eps)


@settings(max_examples=60, deadline=None)
@given(exact_masses(), st.integers(min_value=1, max_value=40), st.data())
def test_view_lane_matches_fraction_reference(masses, n, data):
    base = FiniteDistribution(labels=tuple(range(len(masses))), masses=tuple(masses))
    support = sum(1 for m in masses if m > 0)
    if support > 2:
        n = min(n, 40 if support == 3 else 16)
    levels, alphabet_size = ref.view_levels(masses, n)
    _check_source(data, iid_power(base, n), levels, alphabet_size, n)


@settings(max_examples=100, deadline=None)
@given(exact_masses(min_size=1, max_size=12), st.data())
def test_distribution_lane_matches_fraction_reference(masses, data):
    dist = FiniteDistribution(labels=tuple(range(len(masses))), masses=tuple(masses))
    levels, alphabet_size = ref.distribution_levels(masses)
    _check_source(data, dist, levels, alphabet_size, 1)


def test_view_numerators_share_one_denominator():
    base = FiniteDistribution(
        labels=("a", "b", "c", "z"),
        masses=(Fraction(1, 3), Fraction(1, 4), Fraction(5, 12), Fraction(0)),
    )
    view = iid_power(base, 5)
    assert view.denominator == 12 ** 5
    assert sum(tc.multiplicity * tc.numerator for tc in view.type_classes) == 12 ** 5
    for tc in view.type_classes:
        a, b, c = tc.composition
        assert tc.per_sequence_prob == Fraction(1, 3) ** a * Fraction(1, 4) ** b * Fraction(5, 12) ** c
    assert view.levels is view.levels
