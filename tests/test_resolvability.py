"""Seed-to-source synthesis maps, their certificates, and the converse."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothgen import (
    BadParamError,
    DegenerateSupportError,
    RateEvaluation,
    ResolvabilityMap,
    achieved_divergence,
    bernoulli,
    build_resolvability_map,
    converse_check,
    equivalence_report,
    half_variational,
    hellinger,
    iid_power,
    ir_rate_formula,
    make_distribution,
    rate_formula,
    reverse_kl,
    uniform_distribution,
)


def test_uniform_source_admits_an_exact_copy_map():
    d = uniform_distribution(4)
    map_ = build_resolvability_map(d, half_variational(), Fraction(1, 10), 0.01, M=4)
    assert map_.M == 4
    assert float(map_.achieved_divergence) == 0.0
    assert {lab for lab, _ in map_.image} == set(d.labels)


def test_induced_masses_are_seed_rationals():
    view = iid_power(bernoulli(0.3), 6)
    map_ = build_resolvability_map(view, half_variational(), 0.2, 0.3)
    for _, count in map_.image:
        assert count >= 1
    assert sum(k for _, k in map_.image) == map_.M
    assert map_.induced.exact
    for m in map_.induced.masses:
        assert m == 0 or m.denominator <= map_.M


def test_achieved_stays_below_certified_bound():
    view = iid_power(bernoulli(0.3), 8)
    for f in (half_variational(), reverse_kl(), hellinger()):
        map_ = build_resolvability_map(view, f, 0.2, 0.4)
        p = map_.params
        assert float(map_.achieved_divergence) <= p.bound + 1e-12
        assert p.slack >= 0
        assert float(map_.achieved_divergence) <= p.D + p.slack + 1e-12


def test_seed_override_skips_the_growth_formula():
    view = iid_power(bernoulli(0.3), 4)
    map_ = build_resolvability_map(view, half_variational(), 0.2, 0.5, M=7)
    assert map_.M == 7
    assert not map_.params.m_from_formula


def test_tiny_override_degenerates():
    view = iid_power(bernoulli(0.3), 6)
    with pytest.raises(DegenerateSupportError):
        build_resolvability_map(view, half_variational(), 0.01, 0.01, M=1)


def test_map_validation_rejects_inconsistent_pullbacks():
    with pytest.raises(BadParamError):
        ResolvabilityMap(
            M=3,
            image=(("a", 1), ("b", 1)),
            induced=make_distribution(
                [Fraction(1, 3), Fraction(2, 3)], labels=("a", "b")
            ),
            achieved_divergence=None,
        )


def test_converse_accepts_built_maps_and_rejects_false_claims():
    view = iid_power(bernoulli(0.3), 6)
    map_ = build_resolvability_map(view, half_variational(), 0.2, 0.3)
    assert converse_check(map_, view, half_variational())
    assert converse_check(map_, view, half_variational(), D=0.25)
    with pytest.raises(BadParamError):
        converse_check(map_, view, half_variational(), D=1e-9)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([0.05, 0.2, 0.5]),
)
def test_converse_never_fires_on_constructions(n, seed_scale, D):
    view = iid_power(bernoulli(0.3), n)
    try:
        map_ = build_resolvability_map(
            view, half_variational(), D, 0.1 * seed_scale
        )
    except DegenerateSupportError:
        return
    assert converse_check(map_, view, half_variational())


def test_rate_formula_shapes_and_alt_column():
    evals = rate_formula(bernoulli(0.3), [4, 8], half_variational(), 0.2)
    assert [e.n for e in evals] == [4, 8]
    for e in evals:
        assert len(e.first_order) == 3
        assert e.second_order is None
        assert not any(math.isnan(v) for v in e.first_order)
    with_r = rate_formula(
        bernoulli(0.3), [4], half_variational(), 0.2, nu_ladder=(0.05,), R=0.5
    )[0]
    assert with_r.second_order is not None


def test_rate_formula_alt_column_goes_nan_past_total_smoothing():
    # reverse KL keeps the direct column feasible for any target, and
    # f0^{-1}(1) = 1/e, so nu = 0.5 lifts the alternative smoothing level
    # 1 - 1/e + nu past one while nu = 0.05 stays under it.
    ev = rate_formula(
        bernoulli(0.3), [4], reverse_kl(), 1.0, nu_ladder=(0.5, 0.05)
    )[0]
    assert math.isnan(ev.first_order_alt[0])
    assert not math.isnan(ev.first_order_alt[1])


def test_rate_formula_validates_the_ladder():
    with pytest.raises(BadParamError):
        rate_formula(bernoulli(0.3), [4], half_variational(), 0.2, nu_ladder=())
    with pytest.raises(BadParamError):
        rate_formula(
            bernoulli(0.3), [4], half_variational(), 0.2, nu_ladder=(0.01, 0.1)
        )
    with pytest.raises(BadParamError):
        rate_formula(
            bernoulli(0.3), [4], half_variational(), 0.2, nu_ladder=(0.1, -0.01)
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize(
    "base", [bernoulli(0.3), make_distribution([0.7, 0.3])], ids=["exact", "float"]
)
def test_sweeps_refuse_non_finite_targets_nu_and_R(base, bad):
    # Refused before any target is read as a Fraction, which on an exact
    # base would fail with a bare ValueError or OverflowError.
    f = half_variational()
    good = [base, [4], f, 0.2, (0.1, 0.05), 0.5]
    for sweep in (rate_formula, ir_rate_formula):
        for at, value in ((3, bad), (4, (bad,)), (4, (0.1, bad)), (5, bad)):
            args = list(good)
            args[at] = value
            with pytest.raises(BadParamError, match="must be finite"):
                sweep(*args)
    for args in ((base, f, bad, 0.01, [4]), (base, f, 0.2, bad, [4])):
        with pytest.raises(BadParamError, match="must be finite"):
            equivalence_report(*args)


def test_float_targets_on_exact_bases_are_read_at_their_binary_value():
    # bernoulli reads its parameter at decimal face value; a float D or nu
    # on an exact base is read as Fraction(x), the float's binary value.
    base = bernoulli(Fraction(3, 10))
    f = half_variational()
    ns, ladder = [8, 32], (0.05, 0.01)
    for sweep in (rate_formula, ir_rate_formula):
        assert sweep(base, ns, f, 0.1, ladder) == sweep(base, ns, f, Fraction(0.1), ladder)
    assert equivalence_report(base, f, 0.1, 0.05, ns) == equivalence_report(
        base, f, Fraction(0.1), 0.05, ns
    )


def test_rate_evaluation_validates_lengths():
    with pytest.raises(BadParamError):
        RateEvaluation(
            n=4, nu_ladder=(0.1,), first_order=(0.5, 0.6), first_order_alt=(0.5, 0.6)
        )


def test_achieved_divergence_requires_matching_alphabets():
    view = iid_power(bernoulli(0.3), 4)
    other = iid_power(bernoulli(0.4), 5)
    map_ = build_resolvability_map(view, half_variational(), 0.2, 0.5)
    from smoothgen import AlphabetMismatchError

    with pytest.raises(AlphabetMismatchError):
        achieved_divergence(map_, other, half_variational())
