"""The extractor's bins as runs of one fill pattern, and its D_f sum.

First-fit restarts every bin from an empty one, so the builder stores
a run of equal bins once.  These tests pin what that must not change:
the bins, induced masses and achieved divergence of the per-atom
reference, and the value and type of every float map's D_f sum against
the sum over ``Fraction(1, M)``.  They also pin what it buys: a
35 987-bin extractor built from a few dozen runs without enumerating
one label.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import types
from fractions import Fraction

import pytest

import oracle_constructions as ref
import smoothgen.distributions
import smoothgen.intrinsic
from smoothgen import (
    BadParamError,
    OutOfRangeError,
    TargetInfeasibleError,
    achieved_uniformity,
    bernoulli,
    build_extractor,
    build_resolvability_map,
    expand,
    half_variational,
    hellinger,
    iid_power,
    make_distribution,
    registry,
    smooth_min_entropy,
    spectrum_rate,
)
from smoothgen.cli import main
from smoothgen.fdiv import DivergenceValue, _divergence_sum
from smoothgen.intrinsic import _Reciprocal


def _runs(map_) -> list:
    """The stored runs of a built extractor, read without building its bins."""
    return map_._makers["bins"].__self__.runs


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_n20_extractor_is_a_few_runs_and_enumerates_no_label(monkeypatch, exact):
    def refuse(source):
        raise AssertionError("enumerated the labels of the view")

    monkeypatch.setattr(smoothgen.intrinsic, "_labels", refuse)
    monkeypatch.setattr(smoothgen.distributions, "_labels", refuse)
    base = bernoulli(Fraction(3, 10)) if exact else make_distribution([0.7, 0.3])
    Delta = Fraction(1, 4) if exact else 0.25
    map_ = build_extractor(iid_power(base, 20), half_variational(), Delta, 0.1)
    runs = _runs(map_)
    assert map_.M == 35987
    assert sum(count for _, count in runs) == map_.M
    # The 35 986 bins before the last one form at most 25 runs.
    assert len(runs) - 1 <= 25 and runs[-1][1] == 1
    assert len(map_.induced.masses) == map_.M
    if exact:
        assert sum(map_.induced.masses) == 1
    else:
        assert math.isclose(math.fsum(map_.induced.masses), 1.0, rel_tol=1e-12)


def _oracle_case(base, n: int, Delta, gamma: float, explicit: bool):
    f = half_variational()
    view = iid_power(base, n)
    labels = tuple(itertools.product(base.labels, repeat=n))
    if explicit:
        masses = expand(view).masses
        source = make_distribution(list(masses), labels=labels)
    else:
        masses = tuple(math.prod(m) for m in itertools.product(base.masses, repeat=n))
        source = view
    exact = all(isinstance(m, Fraction) for m in masses)
    t = ref.inverse_level(f, Delta, exact)
    beta0 = smooth_min_entropy(source, 1 - t).witness.beta
    # An explicit distribution is its own block: n = 1 in the size formula.
    return build_extractor(source, f, Delta, gamma), ref.extract(
        labels, masses, 1 if explicit else n, f, beta0, Delta, gamma
    )


@pytest.mark.parametrize(
    "case",
    [
        # Exact view at n = 12 (M = 507): the reference takes about 2 s.
        (bernoulli(Fraction(3, 10)), 12, Fraction(1, 4), 0.1, False),
        # Float products at n = 14, given atom by atom (M = 3140).
        (make_distribution([0.7, 0.3]), 14, 0.25, 0.1, True),
    ],
    ids=["exact-view-n12", "float-explicit-n14"],
)
def test_runs_match_the_per_atom_reference(case):
    got, want = _oracle_case(*case)
    M, bins, induced, (value, finite), _, _ = want
    assert len(_runs(got)) < M
    assert got.M == M
    assert got.bins == bins
    assert got.induced.masses == induced
    assert got.achieved_divergence.finite == finite
    assert got.achieved_divergence.value == value
    assert type(got.achieved_divergence.value) is type(value)


# Float bases, n, gamma and M.  [5/12, 7/12] at n = 3 with M = 1 is one
# bin of float mass above 1, where half-variational's one term is an exact 0.
FLOAT_MAPS = (
    ([0.7, 0.3], 12, 0.1, None),
    ([0.48, 0.34, 0.18], 7, 0.1, None),
    ([5 / 12, 7 / 12], 3, 0.3, 1),
)


@pytest.mark.parametrize("f", registry(), ids=lambda f: f.name)
def test_float_maps_sum_as_over_fraction_one_over_m(f):
    for weights, n, gamma, M in FLOAT_MAPS:
        source = iid_power(make_distribution(weights), n)
        if f.c_f == math.inf:
            # No offset form, so no extractor: sum over another map's bins.
            masses = build_extractor(source, half_variational(), 0.1, gamma, M=M).induced.masses
            got = _divergence_sum(f, ((1, p, _Reciprocal(len(masses))) for p in masses))
        else:
            map_ = build_extractor(source, f, 0.1, gamma, M=M)
            masses, got = map_.induced.masses, map_.achieved_divergence
        want = _divergence_sum(f, ((1, p, Fraction(1, len(masses))) for p in masses))
        assert got == want
        assert type(got.value) is type(want.value)


def test_a_float_map_of_exact_zero_terms_keeps_its_fraction_type():
    source = iid_power(make_distribution([5 / 12, 7 / 12]), 3)
    map_ = build_extractor(source, half_variational(), 0.1, 0.3, M=1)
    assert map_.induced.masses[0] > 1.0
    assert map_.achieved_divergence.value == 0
    assert type(map_.achieved_divergence.value) is Fraction


def test_the_reciprocal_times_an_exact_zero_is_a_fraction_zero():
    q = _Reciprocal(7)
    for zero in (0, Fraction(0)):
        got = q * zero
        assert type(got) is Fraction and got == 0
    assert q * Fraction(2, 3) == Fraction(2, 21)
    assert type(q * 0.5) is float and q * 0.5 == (1.0 / 7) * 0.5


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
def test_builders_and_spectrum_refuse_non_finite_inputs(bad):
    view = iid_power(bernoulli(0.3), 6)
    f = half_variational()
    for build in (build_resolvability_map, build_extractor):
        with pytest.raises(BadParamError, match="divergence target must be finite"):
            build(view, f, bad, 0.5)
        with pytest.raises(BadParamError, match="gamma must be finite"):
            build(view, f, 0.2, bad)
    with pytest.raises(BadParamError, match="epsilon must be finite"):
        spectrum_rate(view, f, bad)


def test_finite_inputs_keep_their_errors():
    view = iid_power(bernoulli(0.3), 6)
    f = half_variational()
    for build in (build_resolvability_map, build_extractor):
        with pytest.raises(BadParamError, match="divergence target must be nonnegative"):
            build(view, f, -0.1, 0.5)
        with pytest.raises(TargetInfeasibleError, match="not below f0"):
            build(view, f, 1.0, 0.5)
        with pytest.raises(BadParamError, match="gamma must be positive, got 0.0"):
            build(view, f, 0.2, 0.0)
    with pytest.raises(OutOfRangeError, match="epsilon must lie in"):
        spectrum_rate(view, f, 1.0)


@pytest.mark.parametrize("gamma", ["nan", "inf", "0", "-0.5"])
@pytest.mark.parametrize("kind", ["resolvability", "intrinsic"])
def test_rates_refuses_a_bad_gamma_before_the_sweep(capsys, monkeypatch, gamma, kind):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(smoothgen.cli, "_rate_sweep", refuse)
    code = main([
        "rates", "--kind", kind, "--source", "bernoulli:0.3", "--f", "half-variational",
        "--D", "0.2", "--n", "4,8", f"--gamma={gamma}",
    ])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: gamma must be ")
    assert captured.err.count("\n") == 1
    assert ("finite" if gamma in ("nan", "inf") else "positive") in captured.err


def test_an_extract_run_walks_the_atom_levels_once(monkeypatch, tmp_path):
    # The clipped group orders its atoms by label and the bins list them:
    # one walk of the atoms' levels serves both.  The artifact's digest is
    # that of the map written with one walk for each.
    calls, walk = [], smoothgen.distributions._atom_levels

    def counted(source):
        calls.append(source)
        return walk(source)

    monkeypatch.setattr(smoothgen.intrinsic, "_atom_levels", counted)
    target = tmp_path / "bins.json"
    argv = ["extract", "--source", "bernoulli:0.3", "--n", "12", "--f", "half-variational"]
    assert main([*argv, "--Delta", "0.25", "--gamma", "0.5", "--emit", str(target)]) == 0
    assert len(calls) == 1
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == "4ead0c881e8f518ca277be33dc0a69223c3e4d5026cc03bab571b3688de16aef"


def _bin_by_bin(map_, source, f) -> DivergenceValue:
    """achieved_uniformity as one term (1/M) f(M P) per bin, added in bin order."""
    masses = smoothgen.distributions._bin_weights(source, map_.bins)
    if source.exact and isinstance(source, smoothgen.distributions.ProductSourceView):
        masses = [Fraction(s, source.denominator) for s in masses]
    M = map_.M
    one = Fraction(1, M) if source.exact else 1.0 / M
    total = 0
    for p in masses:
        if p == 0:
            if math.isinf(float(f.f_at_zero)):
                return DivergenceValue(value=math.inf, finite=False)
            total = total + one * f.f_at_zero
        else:
            total = total + one * f.eval(p * M)
    if total < 0:
        total = 0 if source.exact else max(total, 0.0)
    return DivergenceValue(value=total, finite=True)


@pytest.mark.parametrize("seed", range(6))
def test_the_converse_sum_groups_bins_by_mass_with_the_bin_by_bin_value_and_type(seed):
    # Random partitions of a source's labels into M bins, some of them
    # empty, on both lanes, views and plain distributions alike.
    rng = random.Random(seed)
    bases = [bernoulli(Fraction(3, 10)), make_distribution([Fraction(w, 101) for w in (48, 34, 19)])]
    bases += [make_distribution([0.7, 0.3]), make_distribution([0.48, 0.34, 0.18])]
    for base in bases:
        view = iid_power(base, rng.choice([2, 3, 4]))
        for source in (view, expand(view)):
            labels = list(expand(view).labels)
            rng.shuffle(labels)
            M = rng.randint(1, len(labels) + 2)
            cuts = sorted(rng.choices(range(len(labels) + 1), k=M - 1))
            bins = [labels[a:b] for a, b in zip([0, *cuts], [*cuts, len(labels)])]
            map_ = types.SimpleNamespace(M=M, bins=bins)
            for f in registry():
                got, want = achieved_uniformity(map_, source, f), _bin_by_bin(map_, source, f)
                assert got == want, (f.name, source)
                assert type(got.value) is type(want.value), f.name
