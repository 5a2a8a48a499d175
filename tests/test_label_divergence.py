"""Maps given by labels against the frozen per-atom grouping.

``achieved_divergence`` of a map loaded back from its labels (an
``--emit`` file, say), which ``converse_check`` measures first, groups
the atoms by level and mass in one pass; ``oracle_label_divergence``
keeps the atom-by-atom dict it replaced.  Both must give the same value
and finiteness, bit for bit.
"""

from __future__ import annotations

import itertools
import types
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_label_divergence as ref
from smoothgen import (
    FiniteDistribution,
    achieved_divergence,
    alpha_divergence,
    bernoulli,
    half_variational,
    hellinger,
    iid_power,
    make_distribution,
)

# (base, largest n): binary, three-symbol and zero-mass-symbol bases, exact and float.
BASES = [
    (bernoulli(Fraction(3, 10)), 8),
    (make_distribution([0.89, 0.11]), 8),
    (make_distribution([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]), 5),
    (make_distribution([0.5, 0.3, 0.2]), 5),
    (make_distribution([Fraction(1, 2), 0, Fraction(1, 2)]), 5),
    (make_distribution([0.25, 0.0, 0.75]), 5),
]
GENERATORS = [half_variational(), hellinger(), alpha_divergence(0.5)]


def label_map(view, counts: dict, zero, as_float: bool):
    """The map that gives ``counts[i]`` seed values to atom i, as a loaded artifact holds it."""
    M = sum(counts.values())
    labels = tuple(itertools.product(view.base.labels, repeat=view.n))
    if as_float:
        masses = tuple(counts.get(i, 0) / M for i in range(len(labels)))
    else:
        masses = tuple(Fraction(counts[i], M) if i in counts else zero for i in range(len(labels)))
    return types.SimpleNamespace(M=M, induced=FiniteDistribution(labels=labels, masses=masses))


@st.composite
def maps(draw):
    base, n_max = draw(st.sampled_from(BASES))
    view = iid_power(base, draw(st.integers(min_value=1, max_value=n_max)))
    size = view.full_alphabet_size
    atoms = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=12, unique=True))
    counts = {i: draw(st.integers(min_value=1, max_value=6)) for i in atoms}
    zero = draw(st.sampled_from([0, Fraction(0)]))
    return view, label_map(view, counts, zero, draw(st.booleans()))


def assert_same(got, want):
    assert got.finite == want.finite
    assert got.value == want.value
    assert type(got.value) is type(want.value)


@settings(max_examples=120, deadline=None)
@given(maps(), st.sampled_from(GENERATORS))
def test_label_maps_match_the_per_atom_grouping(drawn, f):
    view, map_ = drawn
    want = ref.label_divergence(f, view, map_.induced)
    assert_same(achieved_divergence(map_, view, f), want)


def test_masses_mixing_int_zero_and_fractions():
    view = iid_power(bernoulli(Fraction(3, 10)), 4)
    map_ = label_map(view, {0: 5, 3: 2, 5: 2, 15: 1}, 0, as_float=False)
    assert {type(m) for m in map_.induced.masses} == {int, Fraction}
    for f in GENERATORS:
        assert_same(achieved_divergence(map_, view, f), ref.label_divergence(f, view, map_.induced))
