"""The prefix-mass profile: frozen float reference, no cycle, metamorphic checks.

``oracle_float_levels`` keeps the float smoothers and quantile scans as
one walk of the level table per quantity.  Every value and witness the
library returns, one delta at a time or a whole delta list at once,
must equal it bit for bit, on tables that reach the log-space tail
(binary n = 2048 and up, where the per-sequence probability at the
crossing underflows) and on a three-symbol base with one level per
composition.
"""

from __future__ import annotations

import gc
import math
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_float_levels as ref
import oracle_fraction_levels as fraction_ref
from smoothgen import (
    FiniteDistribution,
    bernoulli,
    half_variational,
    iid_power,
    inverse,
    make_distribution,
    offset,
    smooth_max_entropy,
    smooth_min_entropy,
    spectrum_rate,
)
from smoothgen.smooth_entropy import _profile, _smooth_entropies, _smooth_values

BINARY = make_distribution([0.89, 0.11])
TERNARY = make_distribution([w / 101 for w in (48, 34, 19)])
SOURCES = [(BINARY, n) for n in (64, 2048, 4096, 16384)] + [(TERNARY, n) for n in (64, 192)]
IDS = [f"binary-{n}" for n in (64, 2048, 4096, 16384)] + [f"ternary-{n}" for n in (64, 192)]

# Unsorted, with duplicates and 0; 0.375 and 0.3125 are the benchmark's
# levels D + nu, the rest probe both ends.
DELTAS = (0.375, 0, 0.1, 0.375, 0.9, Fraction(1, 3), 0.01, 0.5, 0.3125, 0.0, 0.999)
EPSILONS = (0.3125, 0.0, 0.1, 0.49)


@pytest.fixture(scope="module", params=SOURCES, ids=IDS)
def view(request):
    base, n = request.param
    return iid_power(base, n)


def _max_tuple(r):
    return r.value, r.witness.set_size, r.witness.mass


def _min_tuple(r):
    return r.value, r.witness.beta, r.witness.log_beta, r.witness.residual


def test_delta_lists_equal_the_single_scan_reference():
    # A fresh view per source, so that the list meets an empty profile.
    for base, n in SOURCES:
        view = iid_power(base, n)
        levels = view.levels
        for got, delta in zip(_smooth_entropies(view, "max", DELTAS), DELTAS):
            assert got.delta == float(delta)
            assert _max_tuple(got) == ref.max_entropy(levels, delta)
        for got, delta in zip(_smooth_entropies(view, "min", DELTAS), DELTAS):
            assert got.delta == float(delta)
            assert _min_tuple(got) == ref.min_entropy(levels, delta)


def test_smoothers_equal_the_single_scan_reference(view):
    levels = view.levels
    for delta in DELTAS:
        assert _max_tuple(smooth_max_entropy(view, delta)) == ref.max_entropy(levels, delta)
        assert _min_tuple(smooth_min_entropy(view, delta)) == ref.min_entropy(levels, delta)


def test_spectrum_quantiles_equal_the_single_scan_reference(view):
    levels = view.levels
    f = half_variational()
    for eps in EPSILONS:
        j_bar, j_under = ref.quantile_levels(levels, float(inverse(offset(f), eps)))
        got = spectrum_rate(view, f, eps)
        assert (got.kbar, got.kunder) == (levels.value(j_bar), levels.value(j_under))


def test_the_reference_reaches_the_log_space_tail():
    # Guards the inputs above: at least one crossing sits in the tail.
    levels = iid_power(BINARY, 4096).levels
    assert ref.max_entropy(levels, 0.375)[1] is None


@pytest.mark.parametrize("base", [make_distribution([0.89, 0.11]), bernoulli(Fraction(11, 100))])
def test_a_read_view_is_freed_without_the_cycle_collector(base):
    # The profile lives on the level table; a reference from it back to
    # the table or the view would keep both alive until a collection.
    f = half_variational()
    gc.disable()
    try:
        view = iid_power(base, 256)
        smooth_max_entropy(view, 0.375)
        smooth_min_entropy(view, 0.375)
        spectrum_rate(view, f, 0.3125)
        _smooth_entropies(view, "max", [0.5, 0.1, 0.375])
        _smooth_entropies(view, "min", [0.5, 0.1, 0.375])
        refs = [weakref.ref(view), weakref.ref(view.levels)]
        del view
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_a_sweep_fills_only_the_multiplicities_it_reads():
    # The profile reads the view's own multiplicity sequence chunk by
    # chunk; the sweep must leave every class past its depth uncomputed.
    n = 65536
    view = iid_power(BINARY, n)
    deltas = [0.25 + nu for nu in (0.125, 0.0625, 0.03125)]
    _smooth_values(view, "max", deltas)
    _smooth_values(view, "min", deltas)
    depth = len(_profile(view.levels).cum) - 1
    filled = view.multiplicities._values
    assert view.levels.counts is view.multiplicities
    assert 0 < len(filled) <= depth < len(view.compositions) // 2
    for i in (0, len(filled) - 1):
        assert filled[i] == math.comb(n, view.compositions[i][1])


def test_a_float_sweep_takes_the_exps_only_of_the_levels_it_reads():
    # A float table's probabilities are the exps of its logs, taken only as
    # far as the profile reads them.
    view = iid_power(BINARY, 16384)
    smooth_max_entropy(view, Fraction(1, 10))
    smooth_min_entropy(view, Fraction(1, 10))
    depth = len(_profile(view.levels).cum) - 1
    filled = view.levels.probs._values
    assert 0 < len(filled) <= depth < len(view.levels) // 2
    assert list(map(float.hex, filled)) == [math.exp(x).hex() for x in view.log_probs[: len(filled)]]


@pytest.mark.parametrize(
    "weights,n",
    [([0.89, 0.11], 2048), ([w / 101 for w in (48, 34, 19)], 64), ([0.5, 0.25, 0.25], 48), ([1 - 2**-1000, 2**-1000], 64)],
    ids=["binary", "ternary", "joined", "subnormal"],
)
def test_a_float_level_table_reads_the_exps_of_its_logs(weights, n):
    levels = iid_power(make_distribution(weights), n).levels
    want = tuple(math.exp(x) for x in levels.logs)
    probs = levels.probs
    # A read fills the column as far as it reaches, backwards slices included.
    assert probs[2:0:-1] == list(want[2:0:-1]) and len(probs._values) == 3
    assert probs[-1].hex() == want[-1].hex() and len(probs._values) == len(want)
    assert list(map(float.hex, probs)) == list(map(float.hex, want))
    assert len(probs) == len(levels.logs) == len(levels.counts)
    assert probs == want and want == probs and hash(probs) == hash(want) and repr(probs) == repr(want)


def test_an_exact_sweep_fills_only_the_multiplicities_it_reads():
    # The exact view's build reads no count and no numerator, so it fills
    # neither.  The sweep then fills counts only as deep as its
    # profile reads and carries the class masses exactly that deep, keeping
    # only the carry's frontier, one class on a binary base.  It reads each
    # probed level's probability (the min entropy's also past the last level
    # grown) from its composition, so it fills no numerator.
    n = 8192
    view = iid_power(bernoulli(Fraction(11, 100)), n)
    assert view.multiplicities._values == []
    assert view.numerators._values == []
    deltas = [Fraction(1, 4) + Fraction(1, 2**k) for k in (3, 4, 5)]
    _smooth_values(view, "max", deltas)
    _smooth_values(view, "min", deltas)
    depth = len(_profile(view.levels).cum) - 1
    filled = view.multiplicities._values
    assert view.levels.counts is view.multiplicities
    assert view.levels.probs is view.numerators
    assert 0 < len(filled) <= depth < len(view.compositions) // 2
    assert view.numerators._values == []
    masses = view.levels.masses
    assert masses._carried == depth and masses._values == []
    assert len(masses._known) <= 1
    for i in (0, len(filled) - 1):
        assert filled[i] == math.comb(n, view.compositions[i][1])
    for i in (0, depth - 1):
        num = view.numerators[i]
        assert num == 89 ** view.compositions[i][0] * 11 ** view.compositions[i][1]
        assert view.levels.masses[i] == filled[i] * num


@pytest.mark.parametrize(
    "weights",
    [(89, 11), (48, 34, 19), (2, 1, 1), (3, 0, 7)],
    ids=["binary", "ternary", "tied", "zero-mass"],
)
def test_probed_level_probabilities_are_products_of_their_compositions(weights):
    # The oracle: every composition's probability from the masses alone,
    # with no carry, merged into distinct levels.  The exact smoothers,
    # their clamp and the spectrum probe single levels and must fill no
    # numerator; each level reads prod w_i^k_i of its first class.
    masses = [Fraction(w, sum(weights)) for w in weights]
    n = 6
    view = iid_power(make_distribution(masses), n)
    want, alphabet = fraction_ref.view_levels(masses, n)
    levels = view.levels
    deltas = [Fraction(1, 10), Fraction(1, 2), Fraction(9, 10), Fraction(99, 100)]
    clamped = 0
    for d in deltas:
        value, beta0, residual = fraction_ref.min_entropy(want, alphabet, d)
        got = smooth_min_entropy(view, d)
        assert (got.value, got.witness.beta, got.witness.residual) == (value, beta0, residual)
        clamped += beta0 == Fraction(1, alphabet)
        assert smooth_max_entropy(view, d).value == fraction_ref.max_entropy(want, d)[0]
    spectrum_rate(view, half_variational(), Fraction(1, 8))
    assert clamped > 0
    assert view.numerators._values == []
    assert [Fraction(levels.probs[j], levels.denominator) for j in range(len(levels))] == [p for p, _ in want]
    assert view.numerators._values == []


@pytest.mark.parametrize(
    "base,n,deltas",
    [
        (BINARY, 65536, [0.25 + nu for nu in (0.125, 0.0625, 0.03125)]),
        (TERNARY, 192, [0.25 + nu for nu in (0.125, 0.0625, 0.03125)]),
        (bernoulli(Fraction(11, 100)), 8192, [Fraction(1, 4) + Fraction(1, 2**k) for k in (3, 4, 5)]),
    ],
    ids=["float-binary-65536", "float-ternary-192", "exact-binary-8192"],
)
def test_a_sweep_leaves_the_composition_tuples_unbuilt(base, n, deltas):
    # The certificate, the multiplicities and the profile read the view's
    # coordinate columns; nothing in a sweep asks for a composition tuple.
    view = iid_power(base, n)
    _smooth_values(view, "max", deltas)
    _smooth_values(view, "min", deltas)
    assert len(view.multiplicities._values) > 0
    assert view.compositions._tuples is None


# Metamorphic checks on both lanes.  Float three-symbol views are left
# out of the label permutation: a view sums its per-symbol log terms in
# label order, so a permuted base may round a level differently.  Two
# float terms commute exactly, so float binary views are included.

deltas = st.one_of(
    st.fractions(min_value=0, max_value=Fraction(19, 20), max_denominator=200),
    st.floats(min_value=0.0, max_value=0.95),
)


@st.composite
def permuted_sources(draw):
    """(source, the same source with its base labels permuted)."""
    kind = draw(st.sampled_from(["exact-view", "exact-dist", "float-binary-view", "float-dist"]))
    if kind.startswith("exact"):
        size = draw(st.integers(min_value=2, max_value=4 if kind == "exact-view" else 8))
        weights = draw(st.lists(st.integers(0, 20), min_size=size, max_size=size))
        if not any(weights):
            weights[0] = 1
        masses = list(make_distribution(weights).masses)
    else:
        size = 2 if kind == "float-binary-view" else draw(st.integers(2, 8))
        weights = draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size))
        masses = list(make_distribution(weights).masses)
    order = draw(st.permutations(range(size)))
    pair = [FiniteDistribution(tuple(range(size)), tuple(masses[i] for i in perm))
            for perm in (range(size), order)]
    if kind.endswith("view"):
        n = draw(st.integers(1, 12 if kind == "exact-view" else 300))
        pair = [iid_power(d, n) for d in pair]
    return pair


@settings(max_examples=60, deadline=None)
@given(permuted_sources(), st.lists(deltas, min_size=1, max_size=4), st.floats(0.0, 0.49))
def test_permuting_base_labels_changes_nothing(pair, ds, eps):
    source, permuted = pair
    f = half_variational()
    for delta in ds:
        assert smooth_max_entropy(source, delta) == smooth_max_entropy(permuted, delta)
        assert smooth_min_entropy(source, delta) == smooth_min_entropy(permuted, delta)
    assert spectrum_rate(source, f, eps) == spectrum_rate(permuted, f, eps)


@settings(max_examples=60, deadline=None)
@given(permuted_sources(), st.lists(deltas, min_size=1, max_size=6), st.data())
def test_delta_list_order_and_duplicates_change_nothing(pair, ds, data):
    source, _ = pair
    shuffled = data.draw(st.permutations(ds + data.draw(st.lists(st.sampled_from(ds)))))
    for order in ("max", "min"):
        # The whole list first, while the profile is empty.
        first = _smooth_entropies(source, order, ds)
        want = {d: _smooth_entropies(source, order, [d])[0] for d in ds}
        assert first == [want[d] for d in ds]
        assert _smooth_entropies(source, order, shuffled) == [want[d] for d in shuffled]


@settings(max_examples=80, deadline=None)
@given(permuted_sources(), st.lists(deltas, min_size=1, max_size=6), st.data())
def test_value_only_path_equals_the_smoothers_values(pair, ds, data):
    # Delta lists with 0 and a duplicate, read first on an empty profile;
    # repr tells -0.0 from 0.0.
    source, _ = pair
    ds = ds + [0, data.draw(st.sampled_from(ds))]
    smoothers = {"max": smooth_max_entropy, "min": smooth_min_entropy}
    for order, smoother in smoothers.items():
        got = _smooth_values(source, order, ds)
        assert repr(got) == repr([smoother(source, d).value for d in ds])
