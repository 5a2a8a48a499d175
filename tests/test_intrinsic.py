"""Extractor construction, uniformity certificates, and the converse."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_partitions import min_achievable_uniformity
from smoothgen import (
    BadParamError,
    ExtractorMap,
    ModifiedDistribution,
    MTooSmallError,
    achieved_uniformity,
    bernoulli,
    build_extractor,
    f_divergence,
    half_variational,
    hellinger,
    iid_power,
    intrinsic_converse_check,
    ir_rate_formula,
    make_distribution,
    reverse_kl,
    uniform_distribution,
    variational,
)


def test_three_atom_worked_example():
    d = make_distribution([Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)])
    map_ = build_extractor(d, half_variational(), Fraction(1, 5), 0.05)
    # The full-alphabet floor 1/3 exceeds the water-filling cap 3/10, so
    # the clamp engages and the exact lane keeps every value rational.
    assert map_.modified.beta0 == Fraction(1, 3)
    assert map_.modified.a_n == Fraction(5, 6)
    assert map_.modified.dist.masses == (
        Fraction(2, 5),
        Fraction(9, 25),
        Fraction(6, 25),
    )
    assert map_.M == 2
    assert float(map_.achieved_divergence) == 0.0
    assert map_.params.beta0 == pytest.approx(1 / 3)
    assert map_.params.a_n == pytest.approx(5 / 6)


def test_bin_masses_respect_cap_and_floor():
    view = iid_power(bernoulli(0.3), 8)
    map_ = build_extractor(view, half_variational(), 0.2, 0.3)
    p = map_.params
    cap = 1 / map_.M
    floor = cap - float(p.beta0) / float(p.a_n)
    mod_mass = dict(zip(map_.modified.dist.labels, map_.modified.dist.masses))
    for i, b in enumerate(map_.bins):
        mass = float(sum(mod_mass[lab] for lab in b))
        if i < map_.M - 1:
            assert mass <= cap + 1e-12
        assert mass >= floor - 1e-12
    assert p.min_induced >= floor - 1e-12


def test_bins_partition_the_alphabet():
    view = iid_power(bernoulli(0.3), 6)
    map_ = build_extractor(view, variational(), 0.3, 0.2)
    seen = [lab for b in map_.bins for lab in b]
    assert len(seen) == len(set(seen)) == view.full_alphabet_size


def _hand_made(map_, **changes):
    """An ExtractorMap built by its constructor from a built map's fields, some changed."""
    mod = map_.modified
    fields = dict(
        M=map_.M,
        bins=tuple(map_.bins),
        induced=map_.induced,
        achieved_divergence=map_.achieved_divergence,
        modified=ModifiedDistribution(dist=mod.dist, beta0=mod.beta0, a_n=mod.a_n),
        params=map_.params,
    )
    fields.update(changes)
    return ExtractorMap(**fields)


def test_hand_made_extractors_are_validated():
    # Exact lane, M = 25: 1/M = 0.04 and beta0/A_n ~ 0.0119, so a bin's
    # mass must lie in [0.0281, 0.04] except the last, which has no cap.
    map_ = build_extractor(iid_power(bernoulli("0.3"), 8), half_variational(), 0.2, 0.3)
    bins = list(map_.bins)
    assert _hand_made(map_).bins == map_.bins

    by_label = dict(zip(map_.modified.dist.labels, map_.modified.dist.masses))
    heaviest = max(bins[-1], key=by_label.__getitem__)
    rest = tuple(lab for lab in bins[-1] if lab != heaviest)
    refusals = [
        ({"bins": (bins[0] + bins[1][:1], *bins[1:])}, "partition"),
        ({"bins": (bins[0][:1] + bins[1][:1], *bins[1:])}, "partition"),
        ({"bins": tuple(bins[:-1])}, "bins for M"),
        ({"bins": ((), bins[0] + bins[1], *bins[2:])}, "nonempty"),
        ({"induced": make_distribution(map_.induced.masses)}, "labeled 1..M"),
        ({"bins": (bins[0] + (heaviest,), *bins[1:-1], rest)}, "exceeds modified mass 1/M"),
        ({"bins": (bins[0][:1], *bins[1:-1], bins[-1] + bins[0][1:])}, "below 1/M - beta0/A_n"),
    ]
    for changes, message in refusals:
        with pytest.raises(BadParamError, match=message):
            _hand_made(map_, **changes)


def test_hand_made_modified_distributions_are_validated():
    mod = build_extractor(iid_power(bernoulli("0.3"), 8), half_variational(), 0.2, 0.3).modified
    assert ModifiedDistribution(dist=mod.dist, beta0=mod.beta0, a_n=mod.a_n).dist is mod.dist
    with pytest.raises(BadParamError, match="exceeds beta0/A_n"):
        ModifiedDistribution(dist=mod.dist, beta0=mod.beta0 / 2, a_n=mod.a_n)
    for beta0, a_n in ((0, mod.a_n), (mod.beta0, Fraction(3, 2))):
        with pytest.raises(BadParamError, match="must lie in"):
            ModifiedDistribution(dist=mod.dist, beta0=beta0, a_n=a_n)


def test_achieved_uniformity_is_divergence_to_uniform():
    view = iid_power(bernoulli(0.3), 6)
    map_ = build_extractor(view, half_variational(), 0.2, 0.3)
    direct = achieved_uniformity(map_, view, half_variational())
    via_divergence = f_divergence(
        half_variational(), map_.induced, uniform_distribution(map_.M)
    )
    assert direct.value == via_divergence.value


def test_achieved_stays_below_certified_bound():
    view = iid_power(bernoulli(0.3), 8)
    for f in (half_variational(), reverse_kl(), hellinger()):
        map_ = build_extractor(view, f, 0.2, 0.4)
        p = map_.params
        assert float(map_.achieved_divergence) <= p.bound + 1e-12
        assert float(map_.achieved_divergence) <= p.Delta + p.delta_n + 1e-12


def test_output_size_formula_shrinks_with_gamma():
    view = iid_power(bernoulli(0.3), 10)
    big = build_extractor(view, half_variational(), 0.2, 0.1).M
    small = build_extractor(view, half_variational(), 0.2, 1.0).M
    assert small < big


def test_m_too_small_is_reported():
    d = make_distribution([Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(MTooSmallError):
        build_extractor(d, half_variational(), 0.01, 10.0)


def test_override_bypasses_the_formula():
    view = iid_power(bernoulli(0.3), 6)
    map_ = build_extractor(view, half_variational(), 0.2, 0.3, M=3)
    assert map_.M == 3
    assert not map_.params.m_from_formula


def test_builder_sums_against_one_mass_not_a_uniform_distribution(monkeypatch):
    import smoothgen.distributions
    import smoothgen.intrinsic

    def refuse(size):
        raise AssertionError(f"built a uniform distribution of {size} atoms")

    assert not hasattr(smoothgen.intrinsic, "uniform_distribution")
    monkeypatch.setattr(smoothgen.distributions, "uniform_distribution", refuse)
    for base in (bernoulli(0.3), make_distribution([0.5, 0.3, 0.2])):
        view = iid_power(base, 6)
        for f in (half_variational(), variational(), hellinger()):
            map_ = build_extractor(view, f, 0.2, 0.3)
            assert map_.M > 1 and map_.achieved_divergence.finite
            if base.exact and f.name != "hellinger":
                assert map_.achieved_divergence == achieved_uniformity(map_, view, f)


def test_exhaustive_search_is_a_true_minimum():
    d = make_distribution([Fraction(k, 21) for k in (6, 5, 4, 3, 2, 1)])
    best, part = min_achievable_uniformity(d, half_variational(), 3)
    assert len(part) == 3
    built = build_extractor(d, half_variational(), 0.4, 0.01, M=3)
    assert float(best) <= float(built.achieved_divergence) + 1e-12


def test_intrinsic_converse_accepts_built_maps():
    view = iid_power(bernoulli(0.3), 8)
    map_ = build_extractor(view, half_variational(), 0.2, 0.3)
    # At finite n the construction may overshoot its target by delta_n,
    # so the claim presented to the converse is what the map achieved.
    claim = max(0.2, float(map_.achieved_divergence) + 1e-9)
    assert intrinsic_converse_check(map_, view, half_variational(), claim, 0.0)


def test_intrinsic_converse_rejects_maps_missing_their_claim():
    view = iid_power(bernoulli(0.3), 4)
    map_ = build_extractor(view, half_variational(), 0.3, 0.2)
    achieved = float(map_.achieved_divergence)
    with pytest.raises(BadParamError):
        intrinsic_converse_check(
            map_, view, half_variational(), achieved / 2, achieved / 4
        )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.sampled_from([0.1, 0.2, 0.35]),
)
def test_intrinsic_converse_never_fires_on_constructions(n, Delta):
    view = iid_power(bernoulli(0.3), n)
    try:
        map_ = build_extractor(view, half_variational(), Delta, 0.2)
    except MTooSmallError:
        return
    claim = max(Delta, float(map_.achieved_divergence) + 1e-9)
    assert intrinsic_converse_check(map_, view, half_variational(), claim, 0.0)


def test_ir_rate_formula_shapes():
    evals = ir_rate_formula(bernoulli(0.3), [4, 8], half_variational(), 0.2)
    assert [e.n for e in evals] == [4, 8]
    for e in evals:
        assert len(e.first_order) == len(e.nu_ladder) == 3
        firsts = list(e.first_order)
        assert firsts == sorted(firsts, reverse=True) or all(
            b <= a + 1e-12 for a, b in zip(firsts, firsts[1:])
        )


def test_ir_rate_formula_validates_the_ladder():
    with pytest.raises(BadParamError):
        ir_rate_formula(
            bernoulli(0.3), [4], half_variational(), 0.2, nu_ladder=(0.01, 0.1)
        )
