"""Level-wise constructions: no expansion, the label cap, and label-given maps."""

from __future__ import annotations

import itertools
import json
import re
import types
from fractions import Fraction

import pytest

import smoothgen
from smoothgen import (
    ResolvabilityMap,
    TooLargeError,
    achieved_divergence,
    achieved_uniformity,
    bernoulli,
    build_extractor,
    build_resolvability_map,
    converse_check,
    expand,
    f_divergence,
    half_variational,
    hellinger,
    iid_power,
    intrinsic_converse_check,
    make_distribution,
    uniform_distribution,
)
from smoothgen import cli, distributions, intrinsic, resolvability


def _forbid_expand(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("expand was called")

    for module in (smoothgen, distributions, resolvability, intrinsic, cli):
        if hasattr(module, "expand"):
            monkeypatch.setattr(module, "expand", refuse)


VIEWS = [
    (bernoulli(Fraction(3, 10)), 10),
    (make_distribution([48, 34, 19]), 6),
    (make_distribution([3, 0, 1, 2]), 4),
    (make_distribution([0.7, 0.3]), 12),
]


@pytest.mark.parametrize("base,n", VIEWS)
def test_constructions_and_their_checks_never_expand(monkeypatch, base, n):
    _forbid_expand(monkeypatch)
    view = iid_power(base, n)
    f = half_variational()
    res = build_resolvability_map(view, f, 0.2, 0.3)
    assert converse_check(res, view, f)
    ext = build_extractor(view, f, 0.2, 0.3)
    claim = max(0.2, float(ext.achieved_divergence) + 1e-9)
    assert intrinsic_converse_check(ext, view, f, claim, 0.0)
    # Reading the label-bearing fields enumerates labels, still without expand.
    assert sum(k for _, k in res.image) == res.M
    assert len(res.induced.labels) == view.full_alphabet_size
    assert sum(len(b) for b in ext.bins) == view.full_alphabet_size
    assert len(ext.modified.dist.masses) == view.full_alphabet_size


def test_rates_with_gamma_never_expands(monkeypatch, capsys):
    _forbid_expand(monkeypatch)
    for kind in ("resolvability", "intrinsic"):
        code = cli.main([
            "rates", "--kind", kind, "--source", "bernoulli:0.3", "--f", "half-variational",
            "--D", "0.2", "--n", "4,8,12", "--gamma", "0.3",
        ])
        assert code == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("build", [build_resolvability_map, build_extractor])
def test_label_cap_is_checked_at_build_time(build):
    view = iid_power(bernoulli(Fraction(3, 10)), 21)
    with pytest.raises(TooLargeError, match="^2097152 atoms exceed the expansion cap of 1048576$"):
        build(view, half_variational(), 0.2, 0.3)


@pytest.mark.parametrize("base,n", VIEWS)
def test_level_wise_values_match_the_expanded_source(base, n):
    # Against the same maps scored on the expanded source, atom by atom.
    view = iid_power(base, n)
    flat = expand(view)
    for f in (half_variational(), hellinger()):
        res = build_resolvability_map(view, f, 0.2, 0.3)
        by_atoms = f_divergence(f, flat, res.induced)
        assert float(res.achieved_divergence) == pytest.approx(float(by_atoms), rel=1e-12, abs=1e-15)
        if base.exact and f.name == "half-variational":
            assert res.achieved_divergence == by_atoms
        ext = build_extractor(view, f, 0.2, 0.3)
        mass = dict(zip(flat.labels, flat.masses))
        induced = [sum(mass[lab] for lab in b) for b in ext.bins]
        assert [float(m) for m in ext.induced.masses] == pytest.approx([float(m) for m in induced], rel=1e-12)
        by_view, by_flat = achieved_uniformity(ext, view, f), achieved_uniformity(ext, flat, f)
        if base.exact:
            assert by_view == by_flat
        else:
            assert float(by_view) == pytest.approx(float(by_flat), rel=1e-12, abs=1e-15)


def test_maps_given_by_labels_are_checked_over_views():
    # A hand-built map and the label-only form a JSON artifact loads into.
    view = iid_power(bernoulli(Fraction(3, 10)), 6)
    f = half_variational()
    labels = tuple(itertools.product((0, 1), repeat=6))
    image = ((labels[0], 5), (labels[1], 2), (labels[63], 1))
    by_label = dict(image)
    induced = make_distribution([Fraction(by_label.get(lab, 0), 8) for lab in labels], labels=labels)
    map_ = ResolvabilityMap(M=8, image=image, induced=induced, achieved_divergence=None)
    want = f_divergence(f, expand(view), induced)
    assert achieved_divergence(map_, view, f) == want
    assert converse_check(types.SimpleNamespace(M=8, induced=induced), view, f)
    wrong = make_distribution([Fraction(1, 64)] * 64, labels=[lab[::-1] + (0,) for lab in labels])
    with pytest.raises(smoothgen.AlphabetMismatchError):
        achieved_divergence(types.SimpleNamespace(M=64, induced=wrong), view, f)

    built = build_extractor(view, f, 0.2, 0.3)
    bins = json.loads(json.dumps(built.bins))
    loaded = types.SimpleNamespace(M=built.M, bins=tuple(tuple(map(tuple, b)) for b in bins))
    assert achieved_uniformity(loaded, view, f) == built.achieved_divergence
    # Uniform over M bins of a map that puts everything in one bin.
    one_bin = types.SimpleNamespace(M=2, bins=(labels, ()))
    assert achieved_uniformity(one_bin, view, f) == f_divergence(
        f, make_distribution([1, 0], labels=(1, 2)), uniform_distribution(2)
    )


@pytest.mark.parametrize(
    "bad",
    [(0, 1, "x"), (0, "x"), (1,), (0, 1, 1), [0, 9], "01", 5, None, (0, [1])],
    ids=[
        "extra symbol", "foreign symbol", "short", "long", "foreign list", "str", "int", "None",
        "unhashable",
    ],
)
def test_bin_labels_outside_the_alphabet_are_refused_on_a_view(bad):
    # (0, 1, "x") counts as (0, 1), whose weight is 21/100.
    view = iid_power(bernoulli(Fraction(3, 10)), 2)
    f = half_variational()
    map_ = types.SimpleNamespace(M=2, bins=(((0, 0), (1, 1)), ((1, 0), bad, (0, 1, "y"))))
    with pytest.raises(smoothgen.AlphabetMismatchError, match=f"label {re.escape(repr(bad))} is not"):
        achieved_uniformity(map_, view, f)


def test_list_labels_read_as_their_tuples():
    # A JSON-loaded bin holds lists.
    view = iid_power(bernoulli(Fraction(3, 10)), 2)
    f = half_variational()
    as_tuples = types.SimpleNamespace(M=2, bins=(((0, 0), (1, 1)), ((1, 0), (0, 1))))
    as_lists = types.SimpleNamespace(M=2, bins=tuple(tuple(map(list, b)) for b in as_tuples.bins))
    assert achieved_uniformity(as_lists, view, f) == achieved_uniformity(as_tuples, view, f)


def test_json_loaded_bins_read_on_a_distribution_with_tuple_labels():
    view = iid_power(bernoulli(Fraction(3, 10)), 4)
    f = half_variational()
    built = build_extractor(view, f, 0.2, 0.3)
    loaded = types.SimpleNamespace(M=built.M, bins=json.loads(json.dumps(built.bins)))
    assert achieved_uniformity(loaded, expand(view), f) == built.achieved_divergence


def test_json_loaded_bins_with_nested_labels_read_on_a_view():
    # The labels a JSON source gives: a list label reads as its tuple.
    base = smoothgen.from_json_obj({"weights": ["1/2", "1/3", "1/6"], "labels": ["a", None, [True, 1.5]]})
    view = iid_power(base, 3)
    f = half_variational()
    built = build_extractor(view, f, 0.25, 0.1)
    bins = json.loads(json.dumps(built.bins))
    assert ["a", [True, 1.5], None] in itertools.chain.from_iterable(bins)
    loaded = types.SimpleNamespace(M=built.M, bins=bins)
    assert achieved_uniformity(loaded, view, f) == built.achieved_divergence
    bad = ["a", [True, 2.5], None]
    outside = types.SimpleNamespace(M=built.M, bins=(*bins[:-1], [*bins[-1], bad]))
    with pytest.raises(smoothgen.AlphabetMismatchError, match=re.escape(f"label {bad!r} is not")):
        achieved_uniformity(outside, view, f)


def test_bin_labels_outside_the_alphabet_are_refused_on_a_distribution():
    source = bernoulli(Fraction(3, 10))
    map_ = types.SimpleNamespace(M=2, bins=((0,), (1, "x", "y")))
    with pytest.raises(smoothgen.AlphabetMismatchError, match="label 'x' is not"):
        achieved_uniformity(map_, source, half_variational())


def test_zero_mass_symbols_in_bins_still_read_zero():
    base = make_distribution([Fraction(1, 2), 0, Fraction(1, 2)])
    view = iid_power(base, 3)
    f = half_variational()
    labels = list(itertools.product(base.labels, repeat=3))
    through_zero = [lab for lab in labels if 1 in lab]
    map_ = types.SimpleNamespace(M=2, bins=(tuple(lab for lab in labels if 1 not in lab), tuple(through_zero)))
    assert achieved_uniformity(map_, view, f) == f_divergence(
        f, make_distribution([1, 0], labels=(1, 2)), uniform_distribution(2)
    )
    outside = types.SimpleNamespace(M=2, bins=(map_.bins[0], (*through_zero, (1, 1, 3))))
    with pytest.raises(smoothgen.AlphabetMismatchError, match=r"label \(1, 1, 3\) is not"):
        achieved_uniformity(outside, view, f)
