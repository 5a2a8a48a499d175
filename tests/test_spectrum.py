"""Quantile rates, the entropy-spectrum bridge, and sweep summaries."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_typeclass as oracle
from smoothgen import (
    BadParamError,
    OutOfRangeError,
    TooFewPointsError,
    bernoulli,
    equivalence_report,
    expand,
    half_variational,
    iid_power,
    inverse,
    make_distribution,
    offset,
    spectrum_rate,
    sweep_statistics,
    uniform_distribution,
)
from smoothgen.distributions import _float_masses


def test_uniform_spectrum_is_a_point_mass():
    view = iid_power(uniform_distribution(4), 3)
    r = spectrum_rate(view, half_variational(), 0.2)
    assert r.kbar == r.kunder == math.log(4)


def test_bernoulli_two_step_quantiles():
    # At n = 2 the levels are {0.49, 0.21, 0.21, 0.09} and c = 0.8, so
    # the covering quantile stops at the middle level (0.49 + 0.42) and
    # the underflow quantile must descend to the top one.
    view = iid_power(bernoulli(0.3), 2)
    r = spectrum_rate(view, half_variational(), 0.2)
    c = Fraction(4, 5)
    assert r.kunder == pytest.approx(-math.log(0.49) / 2, abs=1e-12)
    assert r.kbar == pytest.approx(-math.log(0.21) / 2, abs=1e-12)
    assert float(c) == 1 - 0.2


def test_epsilon_bounds_are_enforced():
    view = iid_power(bernoulli(0.3), 2)
    with pytest.raises(OutOfRangeError):
        spectrum_rate(view, half_variational(), -0.01)
    with pytest.raises(OutOfRangeError):
        spectrum_rate(view, half_variational(), 1.0)


def test_second_order_needs_a_reference_rate():
    view = iid_power(bernoulli(0.3), 4)
    with pytest.raises(BadParamError):
        spectrum_rate(view, half_variational(), 0.2, order="second")
    r = spectrum_rate(view, half_variational(), 0.2, order="second", R=0.5)
    first = spectrum_rate(view, half_variational(), 0.2)
    assert r.kbar == pytest.approx(math.sqrt(4) * (first.kbar - 0.5), abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=99),
    st.integers(min_value=2, max_value=9),
    st.floats(min_value=0.01, max_value=0.5),
)
def test_underflow_never_exceeds_covering(p_pct, n, eps):
    # Both quantiles draw mass f0^{-1}(eps) from opposite ends of the
    # spectrum; they stay ordered as long as that threshold is >= 1/2,
    # which for this family means eps <= 1/2.
    view = iid_power(bernoulli(Fraction(p_pct, 100)), n)
    r = spectrum_rate(view, half_variational(), eps)
    assert r.kunder <= r.kbar + 1e-9


def test_crossed_quantiles_are_refused():
    view = iid_power(bernoulli(0.05), 6)
    with pytest.raises(BadParamError):
        spectrum_rate(view, half_variational(), 0.75)


def test_view_and_expansion_quantiles_agree_bitwise():
    base = bernoulli(0.3)
    for n in (2, 5, 8):
        view = iid_power(base, n)
        flat = expand(view)
        for eps in (0.1, 0.37, 0.5):
            rv = spectrum_rate(view, half_variational(), eps)
            rf = spectrum_rate(flat, half_variational(), eps)
            assert (rv.kbar, rv.kunder) == (rf.kbar / n, rf.kunder / n)


@pytest.mark.parametrize("n", [1030, 2048])
def test_float_spectrum_past_float_range_counts(n):
    # Binomial counts above 1e308 do not convert to float; those level
    # masses come from the log form, as in the independent oracle.
    view = iid_power(make_distribution([0.7, 0.3]), n)
    r = spectrum_rate(view, half_variational(), 0.21)
    c = float(inverse(offset(half_variational()), 0.21))
    tc = oracle.binomial_classes(0.3, n)
    assert (r.kbar, r.kunder) == (oracle.kbar_level(tc, c), oracle.kunder_level(tc, c))
    levels = view.levels
    masses = _float_masses(levels.probs, levels.counts, levels.logs)[0]
    assert math.fsum(masses) == pytest.approx(1.0, abs=1e-10)


def test_equivalence_report_gaps_shrink_for_bernoulli():
    rep = equivalence_report(
        bernoulli(0.3), half_variational(), 0.2, 0.01, [8, 16, 32, 64]
    )
    assert rep.h0_gap_shrank and rep.hinf_gap_shrank
    assert rep.warnings == ()
    rows = rep.rows
    assert [r.n for r in rows] == [8, 16, 32, 64]
    for r in rows:
        assert r.gap0 >= 0 and r.gapinf >= 0


def test_equivalence_growth_is_flagged_not_fatal():
    # Reversing the n list makes the gaps grow; that must warn, not raise.
    rep = equivalence_report(
        bernoulli(0.3), half_variational(), 0.2, 0.01, [64, 8]
    )
    assert not rep.h0_gap_shrank or not rep.hinf_gap_shrank
    expected = (not rep.h0_gap_shrank) + (not rep.hinf_gap_shrank)
    assert len(rep.warnings) == expected


def test_sweep_statistics_windows():
    s = sweep_statistics([3.0, 1.0, 2.0, 0.5, 1.5], window=2)
    assert s.running_liminf[-1] == 0.5
    assert s.running_limsup[-1] == 1.5
    assert len(s.running_liminf) == len(s.running_limsup) == 5


def test_sweep_statistics_needs_two_points():
    with pytest.raises(TooFewPointsError):
        sweep_statistics([1.0])
