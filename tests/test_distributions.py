"""Distribution construction, product views, and source parsing."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothgen import (
    AllZeroError,
    BadParamError,
    FiniteDistribution,
    NegativeMassError,
    OverflowGuardError,
    TooLargeError,
    bernoulli,
    build_extractor,
    build_resolvability_map,
    converse_check,
    equivalence_report,
    expand,
    from_json_obj,
    half_variational,
    iid_power,
    intrinsic_converse_check,
    ir_rate_formula,
    make_distribution,
    parse_source,
    rate_formula,
    spectrum_rate,
    uniform_distribution,
)
from smoothgen import columns, distributions


def test_make_distribution_normalizes_and_keeps_exactness():
    d = make_distribution([2, 1, 1])
    assert d.exact
    assert d.masses == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    f = make_distribution([0.5, 0.25, 0.25])
    assert not f.exact
    assert f.masses == (0.5, 0.25, 0.25)


def test_make_distribution_rejects_bad_input():
    with pytest.raises(BadParamError):
        make_distribution([])
    with pytest.raises(NegativeMassError):
        make_distribution([1, -1])
    with pytest.raises(AllZeroError):
        make_distribution([0, 0])
    with pytest.raises(BadParamError):
        make_distribution([1, 1], labels=("a", "a"))


def test_zero_mass_atoms_are_kept_and_flagged():
    d = make_distribution([Fraction(1), Fraction(0)])
    assert d.size == 2
    assert d.support_size == 1
    assert d.has_zero_mass


def test_exact_masses_off_one_by_one_part_in_the_denominator_are_refused():
    masses = (Fraction(5, 12), Fraction(1, 3), Fraction(1, 3))
    with pytest.raises(BadParamError, match=r"exact masses must sum to 1, got Fraction\(13, 12\)"):
        FiniteDistribution(labels=(0, 1, 2), masses=masses)
    # Just under one is refused too.
    with pytest.raises(BadParamError, match=r"got Fraction\(11, 12\)"):
        FiniteDistribution(labels=(0, 1), masses=(Fraction(7, 12), Fraction(1, 3)))


def test_int_masses_are_exact():
    d = FiniteDistribution(labels=("a", "b"), masses=(1, 0))
    assert d.exact and d.support_size == 1
    mixed = FiniteDistribution(labels=(0, 1, 2), masses=(0, Fraction(1, 2), Fraction(1, 2)))
    assert mixed.exact
    with pytest.raises(BadParamError, match="exact masses must sum to 1, got 2$"):
        FiniteDistribution(labels=(0, 1), masses=(1, 1))


def test_bernoulli_reads_floats_at_decimal_face_value():
    d = bernoulli(0.3)
    assert d.exact
    assert d.masses == (Fraction(7, 10), Fraction(3, 10))
    with pytest.raises(BadParamError):
        bernoulli(0)
    with pytest.raises(BadParamError):
        bernoulli(1)


def test_uniform_distribution_labels_run_from_one():
    d = uniform_distribution(4)
    assert d.labels == (1, 2, 3, 4)
    assert all(m == Fraction(1, 4) for m in d.masses)


@pytest.mark.parametrize("size", [0, -3, 2.5])
def test_uniform_distribution_rejects_bad_sizes(size):
    with pytest.raises(BadParamError):
        uniform_distribution(size)


@pytest.mark.parametrize("size", [(1 << 20) + 1, 10 ** 10])
def test_uniform_distribution_refuses_sizes_above_the_atom_cap(size):
    # Refused before its two size-long tuples are built.
    with pytest.raises(TooLargeError, match=f"^{size} atoms exceed the expansion cap of 1048576$"):
        uniform_distribution(size)


def test_descending_breaks_ties_by_label_order():
    d = make_distribution([Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)])
    assert d.descending() == (1, 0, 2)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=12).filter(any), st.booleans())
def test_exact_order_and_level_table_equal_a_fraction_reference(weights, ints):
    # Small weights give ties and zeros; int masses ride along with Fractions.
    total = sum(weights)
    masses = [Fraction(w, total) for w in weights]
    if ints:
        masses = [int(m) if m.denominator == 1 else m for m in masses]
    d = FiniteDistribution(labels=tuple(range(len(masses))), masses=tuple(masses))
    order = tuple(sorted(range(len(masses)), key=lambda i: -masses[i]))
    assert d.descending() == order
    firsts = [i for k, i in enumerate(order) if masses[i] > 0 and (k == 0 or masses[order[k - 1]] != masses[i])]
    den = math.lcm(*(masses[i].denominator for i in firsts))
    levels = d.levels
    assert levels.denominator == den
    assert levels.probs == tuple(masses[i].numerator * (den // masses[i].denominator) for i in firsts)
    assert levels.counts == tuple(masses.count(masses[i]) for i in firsts)
    assert repr(levels.logs) == repr(tuple(math.log(masses[i]) if isinstance(masses[i], int)
                                           else math.log(masses[i].numerator) - math.log(masses[i].denominator)
                                           for i in firsts))


def test_exact_masses_name_their_first_negative_mass():
    masses = (Fraction(1, 2), Fraction(-1, 4), Fraction(1), Fraction(-1, 4))
    with pytest.raises(NegativeMassError, match=r"^mass Fraction\(-1, 4\) is negative$"):
        FiniteDistribution(labels=(0, 1, 2, 3), masses=masses)
    with pytest.raises(NegativeMassError, match=r"^mass -1 is negative$"):
        FiniteDistribution(labels=(0, 1, 2), masses=(Fraction(1, 2), -1, Fraction(3, 2)))


def test_iid_power_type_classes_cover_everything():
    view = iid_power(bernoulli(0.3), 5)
    assert view.full_alphabet_size == 32
    assert sum(tc.multiplicity for tc in view.type_classes) == 32
    assert sum(tc.mass for tc in view.type_classes) == 1
    probs = [tc.per_sequence_prob for tc in view.type_classes]
    assert probs == sorted(probs, reverse=True)


def test_expand_matches_per_sequence_products():
    base = make_distribution([Fraction(7, 10), Fraction(3, 10)], labels=(0, 1))
    flat = expand(iid_power(base, 3))
    assert flat.size == 8
    for lab, mass in flat.atoms:
        want = math.prod(
            (base.masses[base.labels.index(sym)] for sym in lab), start=Fraction(1)
        )
        assert mass == want


def test_zero_mass_base_atoms_inflate_only_the_zero_count():
    base = make_distribution([Fraction(1, 2), Fraction(1, 2), Fraction(0)])
    view = iid_power(base, 3)
    assert view.full_alphabet_size == 27
    assert view.zero_mass_count == 27 - 8
    assert len(view.support_labels) == 2


def test_iid_power_guards_width_and_class_count():
    with pytest.raises(OverflowGuardError):
        iid_power(bernoulli(0.3), 10 ** 7)
    with pytest.raises(BadParamError):
        iid_power(bernoulli(0.3), 0)


# Support sizes 1 to 5; zeros are zero-mass atoms, repeats make ties.
WALK_WEIGHTS = [
    [1, 0],
    [0, 0, 5],
    [3, 0, 7],
    [48, 34, 19],
    [2, 0, 1, 1],
    [5, 0, 3, 2, 1],
    [1, 1, 2, 0, 3, 5],
    [1, 1, 1, 1, 1],
]


def _assert_matches_enumeration(view, base, n, exact):
    """The view's type classes against every composition of n, built here."""
    support = [m for m in base.masses if m > 0]
    if exact:
        d = math.lcm(*(m.denominator for m in support))
        key = lambda comp: math.prod(m ** k for m, k in zip(support, comp))
    else:
        log_masses = [math.log(m) for m in support]
        key = lambda comp: sum(k * lm for k, lm in zip(comp, log_masses))
    lexicographic = [
        comp
        for comp in itertools.product(range(n + 1), repeat=len(support))
        if sum(comp) == n
    ]
    # Stable sorts: equal probabilities keep lexicographic order.
    if exact:
        expected = sorted(lexicographic, key=key, reverse=True)
    else:
        expected = sorted(lexicographic, key=lambda comp: -key(comp))
    assert [tc.composition for tc in view.type_classes] == expected
    for tc in view.type_classes:
        comp = tc.composition
        assert tc.multiplicity == math.factorial(n) // math.prod(
            math.factorial(k) for k in comp
        )
        if exact:
            assert tc.denominator == d ** n
            assert Fraction(tc.numerator, tc.denominator) == key(comp)
        else:
            assert tc.numerator is None
            assert tc.log_prob.hex() == key(comp).hex()


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("weights", WALK_WEIGHTS, ids=str)
def test_type_classes_match_an_independent_enumeration(weights, exact):
    base = make_distribution([Fraction(w) if exact else float(w) for w in weights])
    for n in (1, 2, 7):
        _assert_matches_enumeration(iid_power(base, n), base, n, exact)


def test_no_library_path_builds_a_type_class(monkeypatch):
    class Refused:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a TypeClass was built")

    f = half_variational()
    views = []
    with monkeypatch.context() as patch:
        patch.setattr(distributions, "TypeClass", Refused)
        for base, n in ((make_distribution([48, 34, 19]), 6), (make_distribution([0.5, 0.3, 0.2]), 6)):
            rate_formula(base, [4, n], f, 0.2, [0.1, 0.05])
            ir_rate_formula(base, [4, n], f, 0.2, [0.1, 0.05])
            equivalence_report(base, f, 0.2, 0.05, [4, n])
            view = iid_power(base, n)
            spectrum_rate(view, f, 0.3)
            res = build_resolvability_map(view, f, 0.2, 0.3)
            assert converse_check(res, view, f)
            ext = build_extractor(view, f, 0.2, 0.3)
            claim = max(0.2, float(ext.achieved_divergence) + 1e-9)
            assert intrinsic_converse_check(ext, view, f, claim, 0.0)
            views.append((view, base, n))
    # Read after the patch is gone, the classes are built on first read.
    for view, base, n in views:
        _assert_matches_enumeration(view, base, n, base.exact)


@pytest.mark.parametrize("weights,n", [([0.7, 0.3], 17), ([0.5, 0.3, 0.2], 12)])
def test_float_expand_is_accepted_by_its_constructor(weights, n):
    flat = expand(iid_power(make_distribution(weights), n))
    assert flat.size == len(weights) ** n
    assert not flat.exact
    assert abs(math.fsum(flat.masses) - 1) <= 1e-12


@pytest.mark.parametrize("n", [1000, 5000])
def test_float_view_accepts_a_base_within_its_sum_tolerance(n):
    # The base sums to 1 + 5e-13, inside the distribution's 1e-12; a check
    # of the class masses' float sum compounded that slack by n.
    base = FiniteDistribution(labels=(0, 1), masses=(0.7 + 5e-13, 0.3))
    view = iid_power(base, n)
    assert sum(view.multiplicities) == 2**n
    assert view.multiplicities[n // 2] == math.comb(n, view.compositions[n // 2][1])


DERIVED = [
    "support_labels",
    "log_probs",
    "multiplicities",
    "numerators",
    "denominator",
    "full_alphabet_size",
    "zero_mass_count",
]
DERIVED_BASES = [
    make_distribution([Fraction(0), Fraction(1)]),
    bernoulli(0.3),
    make_distribution([Fraction(1, 2), Fraction(0), Fraction(3, 10), Fraction(1, 5)]),
    make_distribution([Fraction(4, 10), Fraction(3, 10), Fraction(2, 10), Fraction(1, 10)]),
    make_distribution([0.0, 1.0]),
    make_distribution([0.7, 0.3]),
    make_distribution([0.5, 0.0, 0.3, 0.2]),
    make_distribution([0.4, 0.3, 0.2, 0.1]),
]
DERIVED_IDS = ["exact1", "exact2", "exact3-zero", "exact4", "float1", "float2", "float3-zero", "float4"]


@pytest.mark.parametrize("base", DERIVED_BASES, ids=DERIVED_IDS)
def test_view_columns_are_derived_from_its_compositions(base):
    view = iid_power(base, 7)
    assert len(view.support_labels) == base.support_size == len(view.compositions.columns)
    for name in DERIVED:
        with pytest.raises(TypeError):
            distributions.ProductSourceView(
                base=base, n=7, compositions=view.compositions, **{name: getattr(view, name)}
            )
        with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
            dataclasses.replace(view, **{name: getattr(view, name)})
    # The same compositions as plain tuples derive every column bit for bit.
    replaced = dataclasses.replace(view, compositions=tuple(view.compositions))
    assert list(map(float.hex, replaced.log_probs)) == list(map(float.hex, view.log_probs))
    for name in DERIVED:
        assert type(getattr(replaced, name)) is type(getattr(view, name))
        assert getattr(replaced, name) == getattr(view, name), name


_FOLD = columns._row_logs
FOLD_CASES = [(base, 7) for base in DERIVED_BASES] + [
    (make_distribution([0.89, 0.11]), 16384),
    (bernoulli(0.11), 4096),
    (make_distribution([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]), 96),
]
FOLD_IDS = DERIVED_IDS + ["float-16384", "exact-4096", "ternary-96"]


def _counted_folds(monkeypatch) -> list:
    """Record every call of the row fold for the rest of the test."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _FOLD(*args)

    monkeypatch.setattr(columns, "_row_logs", counted)
    # A module holding the fold under its own name would call past the patch above.
    monkeypatch.setattr(distributions, "_row_logs", counted, raising=False)
    return calls


def _fresh_fold(view) -> list[str]:
    """The row fold of the view's walk, gathered through its classes' walk ranks."""
    masses = [m for m in view.base.masses if m > 0]
    s, n = len(masses), view.n
    rows = columns._rows(n, s)
    ranks = columns._ranks(view.compositions.columns, rows, n, s)
    return list(map(float.hex, columns._gather(ranks)(_FOLD(masses, rows, n))))


@pytest.mark.parametrize("base,n", FOLD_CASES, ids=FOLD_IDS)
def test_a_build_folds_each_class_once(base, n, monkeypatch):
    calls = _counted_folds(monkeypatch)
    view = iid_power(base, n)
    assert len(calls) == 1
    assert list(map(float.hex, view.log_probs)) == _fresh_fold(view)


def test_a_view_moved_onto_other_masses_folds_again(monkeypatch):
    view = iid_power(make_distribution([Fraction(3, 4), Fraction(1, 4)]), 9)
    calls = _counted_folds(monkeypatch)
    # A view given compositions folds its rows once; equal masses in the same
    # lane fold to the same bits.
    same = dataclasses.replace(view, base=make_distribution([Fraction(3, 4), Fraction(1, 4)]))
    assert len(calls) == 1
    assert list(map(float.hex, same.log_probs)) == list(map(float.hex, view.log_probs))
    # Other masses, the float lane's equal values, and columns given as tuples fold again.
    for change in (
        {"base": make_distribution([Fraction(4, 5), Fraction(1, 5)])},
        {"base": make_distribution([0.75, 0.25])},
        {"compositions": tuple(view.compositions)},
    ):
        calls.clear()
        moved = dataclasses.replace(view, **change)
        assert len(calls) == 1
        assert list(map(float.hex, moved.log_probs)) == _fresh_fold(moved)


@pytest.mark.parametrize("base", [bernoulli(0.3), make_distribution([0.7, 0.3])], ids=["exact", "float"])
def test_view_rejects_two_swapped_classes(base):
    view = iid_power(base, 8)
    comps = list(view.compositions)
    comps[0], comps[1] = comps[1], comps[0]
    with pytest.raises(BadParamError, match="not sorted"):
        dataclasses.replace(view, compositions=tuple(comps))


def test_view_equality_and_hash_leave_the_multiplicities_unfilled():
    # Two views are equal when their base, n and compositions are; the
    # derived columns, the lazily filled multinomials among them, are not read.
    first, second = (iid_power(make_distribution([0.89, 0.11]), 65536) for _ in range(2))
    assert first == second and hash(first) == hash(second)
    assert first != iid_power(make_distribution([0.89, 0.11]), 65535)
    assert not first.multiplicities._values and not second.multiplicities._values


COLUMN_BASES = [
    bernoulli(0.3),
    make_distribution([0.7, 0.3]),
    make_distribution([Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)]),
    make_distribution([0.5, 0.3, 0.2]),
]
COLUMN_IDS = ["exact2", "float2", "exact3", "float3"]


def _duplicated(cols):
    # The second class takes the first one's coordinates, which sum to n.
    for col in cols:
        col[1] = col[0]
    return cols


def _unbalanced(cols):
    # The first class gains a unit in its first coordinate and loses one in
    # its last, which goes to -1 where it was 0: the sum stays n.
    j = next(j for j in range(len(cols[0])) if cols[-1][j] == 0)
    cols[0][j] += 1
    cols[-1][j] -= 1
    return cols


@pytest.mark.parametrize("base", COLUMN_BASES, ids=COLUMN_IDS)
@pytest.mark.parametrize(
    "tamper",
    [
        _duplicated,
        _unbalanced,
        lambda cols: cols[:-1] + [cols[-1][:-1]],  # the last column one entry short
        lambda cols: cols[:-1],
    ],
    ids=["duplicated", "unbalanced", "unequal-lengths", "s-1-columns"],
)
def test_view_rejects_coordinate_columns_that_are_not_the_compositions(base, tamper):
    view = iid_power(base, 8)
    cols = tamper([list(col) for col in view.compositions.columns])
    s = len(view.support_labels)
    message = f"compositions are not the {math.comb(8 + s - 1, s - 1)} compositions of 8 into {s} parts"
    with pytest.raises(BadParamError, match=message):
        dataclasses.replace(view, compositions=distributions._Compositions(cols))


@pytest.mark.parametrize("base", COLUMN_BASES, ids=COLUMN_IDS)
@pytest.mark.parametrize("n,convert", [(8, float), (1, bool)], ids=["float", "bool"])
def test_view_rejects_coordinates_that_are_not_ints(base, n, convert):
    view = iid_power(base, n)
    s = len(view.support_labels)
    message = f"compositions are not the {math.comb(n + s - 1, s - 1)} compositions of {n} into {s} parts"
    converted = tuple(tuple(map(convert, comp)) for comp in view.compositions)
    assert converted == view.compositions
    with pytest.raises(BadParamError, match=message):
        dataclasses.replace(view, compositions=converted)
    columns = [list(map(convert, col)) for col in view.compositions.columns]
    with pytest.raises(BadParamError, match=message):
        dataclasses.replace(view, compositions=distributions._Compositions(columns))


@pytest.mark.parametrize("base", COLUMN_BASES, ids=COLUMN_IDS)
def test_compositions_read_as_a_tuple_column(base):
    view = iid_power(base, 8)
    comps = view.compositions
    plain = tuple(zip(*comps.columns))
    assert comps == plain and plain == comps and hash(comps) == hash(plain)
    assert len(comps) == len(plain) and list(comps) == list(plain)
    assert comps[3] == plain[3] and comps[-2:] == plain[-2:]
    assert comps.index(plain[5]) == 5
    # A tuple column is read into coordinate columns and certified as they are.
    replaced = dataclasses.replace(view, compositions=plain)
    assert replaced == view and hash(replaced) == hash(view)
    assert replaced.compositions.columns == [list(col) for col in view.compositions.columns]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 1 << 70)), min_size=1, max_size=30))
def test_runs_are_maximal_and_partition_the_positions(rows):
    keys = [key for key, _ in rows]
    counts = [count for _, count in rows]
    run_keys, summed, bounds = distributions._runs(keys, counts)
    assert bounds == distributions._run_bounds(keys)
    assert bounds[0] == 0 and bounds[-1] == len(keys)
    assert all(a < b for a, b in zip(bounds, bounds[1:]))
    group_of = distributions._group_of(bounds)
    assert len(group_of) == len(keys)
    for g, (a, b) in enumerate(zip(bounds, bounds[1:])):
        assert keys[a:b] == [run_keys[g]] * (b - a)
        assert group_of[a:b] == [g] * (b - a)
        assert summed[g] == sum(counts[a:b])
        if b - a == 1:
            assert summed[g] is counts[a]
    if len(bounds) == len(keys) + 1:
        # No run merges: the given sequences come back as they are.
        assert run_keys is keys and summed is counts
    # Maximal: neighbouring runs never share a key.
    assert all(x != y for x, y in zip(run_keys, run_keys[1:]))


def test_expand_respects_atom_cap():
    with pytest.raises(TooLargeError):
        expand(iid_power(bernoulli(0.3), 30))


def test_spectrum_groups_equal_levels():
    levels = iid_power(uniform_distribution(3), 4).levels
    assert len(levels) == 1
    assert levels.probs[0] * levels.counts[0] == levels.denominator
    assert levels.value(0) == pytest.approx(math.log(3))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=99),
    st.integers(min_value=2, max_value=8),
)
def test_spectrum_masses_sum_to_one_ascending(p_pct, n):
    levels = iid_power(bernoulli(Fraction(p_pct, 100)), n).levels
    masses = [prob * count / levels.denominator for prob, count in zip(levels.probs, levels.counts)]
    assert abs(math.fsum(masses) - 1) <= 1e-10
    values = [levels.value(j) for j in range(len(levels))]
    assert values == sorted(values)


def test_from_json_obj_shapes():
    d = from_json_obj({"weights": [1, 2, 1], "labels": ["a", "b", "c"]})
    assert d.labels == ("a", "b", "c")
    assert d.masses[1] == Fraction(1, 2)
    assert from_json_obj({"uniform": 3}).size == 3
    assert from_json_obj({"bernoulli": 0.25}).masses == (Fraction(3, 4), Fraction(1, 4))
    with pytest.raises(BadParamError):
        from_json_obj({"nope": 1})


def test_from_json_obj_reads_float_weights_exactly():
    d = from_json_obj({"weights": [0.5, 0.3, 0.2]})
    assert d.exact
    assert d.masses == (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))


def test_parse_source_specs(tmp_path):
    assert parse_source("uniform:5").size == 5
    assert parse_source("bernoulli:3/10").masses[1] == Fraction(3, 10)
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"weights": [1, 1]}))
    assert parse_source(str(path)).size == 2
    with pytest.raises(BadParamError):
        parse_source("uniform:x")
    with pytest.raises(FileNotFoundError):
        parse_source(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(BadParamError):
        parse_source(str(bad))
