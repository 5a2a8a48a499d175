"""Smooth max and min entropy against oracles and worked instances."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_entropy import oracle_max_entropy, oracle_min_entropy
from smoothgen import (
    BadParamError,
    OverflowGuardError,
    bernoulli,
    half_variational,
    iid_power,
    make_distribution,
    smooth_max_entropy,
    smooth_min_entropy,
    spectrum_rate,
    uniform_distribution,
)


def test_max_entropy_without_smoothing_is_log_support():
    d = make_distribution([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(0)])
    r = smooth_max_entropy(d, 0)
    assert r.value == math.log(3)
    assert r.witness.set_size == 3


def test_max_entropy_drops_whole_tail_atoms():
    d = make_distribution([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    assert smooth_max_entropy(d, Fraction(1, 4)).value == math.log(2)
    assert smooth_max_entropy(d, Fraction(1, 2)).value == math.log(1)


def test_float_max_entropy_takes_no_more_than_the_crossing_level():
    # 0.9 - 0.3 rounds to 0.6000000000000001, which asks for four atoms
    # of the three-atom level 0.2.
    weights = [0.1, 0.2, 0.3, 0.2, 0.2]
    r = smooth_max_entropy(make_distribution(weights), 0.1)
    assert r.witness.set_size == 4
    assert r.value == math.log(4)
    exact = smooth_max_entropy(
        make_distribution([Fraction(str(w)) for w in weights]), Fraction(1, 10)
    )
    assert exact.witness.set_size == 4
    assert exact.value == r.value


def test_min_entropy_of_uniform_hits_the_clamp():
    d = uniform_distribution(8)
    r = smooth_min_entropy(d, Fraction(1, 10))
    assert r.value == pytest.approx(math.log(8), abs=1e-12)
    assert r.witness.beta == Fraction(1, 8)


def test_min_entropy_clamp_can_raise_beta():
    # Unclamped water-filling on (1/2, 3/10, 1/5) at delta = 1/5 caps at
    # 3/10; the full-alphabet floor 1/3 spends less than the budget.
    d = make_distribution([Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)])
    r = smooth_min_entropy(d, Fraction(1, 5))
    assert r.witness.beta == Fraction(1, 3)
    assert r.witness.residual == pytest.approx(1 / 6, abs=1e-15)


def test_delta_out_of_range_is_rejected():
    d = bernoulli(0.3)
    with pytest.raises(BadParamError):
        smooth_max_entropy(d, -0.01)
    with pytest.raises(BadParamError):
        smooth_max_entropy(d, 1)
    with pytest.raises(BadParamError):
        smooth_min_entropy(d, 1.5)


@st.composite
def dyadic_distribution(draw):
    # Masses k/512 are exact doubles, and their subset sums stay exact,
    # so the float greedy and the float oracle face identical comparisons.
    size = draw(st.integers(min_value=1, max_value=10))
    w = draw(
        st.lists(
            st.integers(min_value=0, max_value=64), min_size=size, max_size=size
        ).filter(lambda v: 0 < sum(v) <= 512)
    )
    rest = sum(w) - w[0]
    masses = [(512 - rest if i == 0 else x) / 512 for i, x in enumerate(w)]
    return make_distribution(masses)


@settings(max_examples=200, deadline=None)
@given(dyadic_distribution(), st.integers(min_value=0, max_value=10))
def test_greedy_max_entropy_equals_subset_oracle(d, twentieths):
    delta = twentieths / 20
    got = smooth_max_entropy(d, delta).value
    want = oracle_max_entropy(d, delta)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(dyadic_distribution(), st.integers(min_value=0, max_value=19))
def test_water_filling_matches_grid_oracle(d, twentieths):
    delta = twentieths / 20
    got = smooth_min_entropy(d, delta).value
    want = oracle_min_entropy(d, delta)
    assert abs(got - want) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(dyadic_distribution(), st.integers(min_value=0, max_value=8))
def test_smoothing_moves_each_order_monotonically(d, step):
    # Smoothing can push the min entropy above the max entropy (dropping
    # a heavy atom's tail zeroes one while capping still charges the
    # other), so only the unsmoothed pair and per-order trends are laws.
    lo, hi = step / 20, (step + 1) / 20
    assert smooth_max_entropy(d, hi).value <= smooth_max_entropy(d, lo).value + 1e-12
    assert smooth_min_entropy(d, lo).value <= smooth_min_entropy(d, hi).value + 1e-12
    assert smooth_min_entropy(d, 0).value <= smooth_max_entropy(d, 0).value + 1e-12


def test_type_class_view_agrees_with_expansion_bitwise():
    from smoothgen import expand

    base = bernoulli(0.3)
    for n in (2, 5, 9):
        view = iid_power(base, n)
        flat = expand(view)
        for delta in (0, 0.1, 0.37):
            assert smooth_max_entropy(view, delta).value == smooth_max_entropy(flat, delta).value
            assert smooth_min_entropy(view, delta).value == smooth_min_entropy(flat, delta).value


def test_large_n_views_stay_feasible():
    view = iid_power(bernoulli(0.11), 8192)
    r0 = smooth_max_entropy(view, 0.11)
    rinf = smooth_min_entropy(view, 0.11)
    assert 0 < rinf.value <= r0.value
    assert r0.value / 8192 == pytest.approx(0.3547352385, abs=1e-9)
    assert rinf.value / 8192 == pytest.approx(0.3378171282, abs=1e-9)


def test_exact_binary_65536_refuses_within_the_profile_budget():
    # 4097 levels of 435 412-bit masses do not fit the exact profile's
    # budget: both smoothers refuse with a named error that points to float
    # input, having grown no more levels than the budget holds.
    from smoothgen.distributions import _MAX_PROFILE_BITS
    from smoothgen.smooth_entropy import _profile

    view = iid_power(bernoulli(0.11), 65536)
    for smoother in (smooth_min_entropy, smooth_max_entropy):
        with pytest.raises(OverflowGuardError, match="float weights"):
            smoother(view, 0.1)
    profile = _profile(view.levels)
    assert 0 < (len(profile.cum) - 1) * view.denominator.bit_length() <= _MAX_PROFILE_BITS


def test_exact_lane_keeps_a_rational_cap():
    d = make_distribution([Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)])
    r = smooth_min_entropy(d, Fraction(1, 10))
    assert isinstance(r.witness.beta, Fraction)
    assert r.witness.beta == Fraction(2, 5)
    assert r.witness.residual <= 0.1 + 1e-15


@st.composite
def zero_padded_bases(draw):
    """(weights, the same weights with zeros inserted, exact lane?)."""
    exact = draw(st.booleans())
    size = draw(st.integers(min_value=2, max_value=4))
    w = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=size, max_size=size))
    weights = [Fraction(x, sum(w)) if exact else x / sum(w) for x in w]
    zero = Fraction(0) if exact else 0.0
    padded = list(weights)
    for at in draw(st.lists(st.integers(min_value=0, max_value=size), min_size=1, max_size=3)):
        padded.insert(min(at, len(padded)), zero)
    return weights, padded, exact


@settings(max_examples=120, deadline=None)
@given(zero_padded_bases(), st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=9))
def test_zero_mass_atoms_move_only_the_min_entropy_clamp(bases, n, twentieths):
    weights, padded, exact = bases
    delta = Fraction(twentieths, 20) if exact else twentieths / 20
    zero = Fraction(0) if exact else 0.0
    # As many zero atoms again as positive ones: the clamp 1/(2k)^n lies
    # below (1 - delta)/k^n, the least the water-filling cap can be, so
    # this source shows the unclamped cap.
    wide = weights + [zero] * len(weights)

    def source(ws):
        base = make_distribution(ws)
        return base if n == 1 else iid_power(base, n)

    f = half_variational()
    plain, zeros, unclamped = source(weights), source(padded), source(wide)
    for other in (zeros, unclamped):
        assert repr(smooth_max_entropy(other, delta)) == repr(smooth_max_entropy(plain, delta))
        assert repr(spectrum_rate(other, f, delta)) == repr(spectrum_rate(plain, f, delta))

    cap = smooth_min_entropy(unclamped, delta)
    assert cap.witness.beta > Fraction(1, (2 * len(weights)) ** n)
    for ws, src in ((weights, plain), (padded, zeros)):
        got = smooth_min_entropy(src, delta)
        size = len(ws) ** n
        if exact:
            clamp = Fraction(1, size)
            assert got.witness.beta == max(cap.witness.beta, clamp)
            clamped = cap.witness.beta <= clamp
        else:
            clamp = -math.log(size)
            assert got.witness.log_beta == max(cap.witness.log_beta, clamp)
            clamped = cap.witness.log_beta <= clamp
        if not clamped:
            assert repr(got) == repr(cap)
