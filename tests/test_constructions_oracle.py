"""Both constructions against the frozen per-atom reference.

On the exact lane (exact product views and exact explicit
distributions) and on every explicit float distribution, the maps must
equal ``oracle_constructions`` bitwise: M, image or bins, induced and
modified masses, params and the achieved divergence, and so must the
extractor converse's divergence floor and verdict.  The one allowance
is a float-valued generator on an exact view, where the achieved
divergence of a resolvability map is a float sum whose order the
level-wise builder does not follow; it must agree to 1e-12 relative.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_constructions as ref
from smoothgen import (
    FiniteDistribution,
    SmoothgenError,
    build_extractor,
    build_resolvability_map,
    converse_check,
    half_variational,
    hellinger,
    iid_power,
    intrinsic_converse_check,
    make_distribution,
    offset,
    reverse_kl,
    smooth_max_entropy,
    smooth_min_entropy,
    sq_hellinger,
    variational,
)
from smoothgen.intrinsic import _divergence_floor

GENERATORS = (half_variational(), variational(), hellinger(), sq_hellinger(), reverse_kl())
# Closed inverse t = f0^{-1}(D), solved for D, for the two generators
# whose knife edges are rational.
KNIFE = {"half-variational": lambda t: 1 - t, "variational": lambda t: 2 * (1 - t)}


@st.composite
def sources(draw):
    """An exact view, an exact explicit distribution or a float one.

    Bases have 2-4 symbols with small integer weights, so zero-mass
    atoms and tied weights are common; product sources keep n <= 8 and
    at most 1024 atoms.
    """
    size = draw(st.integers(min_value=2, max_value=4))
    weights = draw(
        st.lists(st.sampled_from([0, 1, 1, 2, 3, 5]), min_size=size, max_size=size)
        .filter(lambda w: sum(w) > 0)
    )
    base = make_distribution([Fraction(w) for w in weights])
    n_max = max(n for n in range(1, 9) if size ** n <= 1024)
    n = draw(st.integers(min_value=1, max_value=n_max))
    labels = tuple(itertools.product(base.labels, repeat=n))
    masses = tuple(math.prod(m) for m in itertools.product(base.masses, repeat=n))
    kind = draw(st.sampled_from(["view", "exact", "float"]))
    if kind == "view":
        source = iid_power(base, n)
    elif kind == "exact":
        source = FiniteDistribution(labels=labels, masses=masses)
    else:
        source = make_distribution([float(m) for m in masses], labels=labels)
    atoms = (labels, source.masses if kind == "float" else masses)
    return source, atoms, (n if kind == "view" else 1)


def _prefix_masses(masses) -> list:
    ordered = sorted((m for m in masses if m > 0), reverse=True)
    return list(itertools.accumulate(ordered))


def _excess_edges(masses) -> list:
    """Smoothing levels at which water-filling lands exactly on a level."""
    levels = sorted({m for m in masses if m > 0}, reverse=True)
    return [sum(max(m - cut, 0) for m in masses) for cut in levels]


def _target(draw, f, masses, edges):
    exact = all(isinstance(m, Fraction) for m in masses)
    ceiling = offset(f).f_at_zero
    if f.name in KNIFE and draw(st.booleans()):
        t = draw(st.sampled_from(edges))
        D = KNIFE[f.name](Fraction(t) if exact else t)
        if 0 <= D < ceiling:
            return D
    frac = draw(st.fractions(min_value=0, max_value=Fraction(19, 20), max_denominator=60))
    D = frac * (ceiling if ceiling != math.inf else 3)
    return D if draw(st.booleans()) else float(D)


def _run(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), None
    except SmoothgenError as exc:
        return None, (type(exc).__name__, str(exc))
    except ref.OracleError as exc:
        return None, (exc.kind, str(exc))


def _same_value(got, want, float_sum_by_level: bool) -> None:
    if float_sum_by_level and isinstance(want, float) and math.isfinite(want):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15), (got, want)
    else:
        assert got == want and type(got) is type(want), (got, want)


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_resolvability_matches_the_per_atom_reference(data):
    source, (labels, masses), n = data.draw(sources())
    f = data.draw(st.sampled_from(GENERATORS))
    D = _target(data.draw, f, masses, _prefix_masses(masses))
    gamma = data.draw(st.sampled_from([0.05, 0.2, 0.5, 1.0]))
    M = data.draw(st.one_of(st.none(), st.integers(min_value=1, max_value=40)))
    got, got_err = _run(build_resolvability_map, source, f, D, gamma, M=M)
    want, want_err = _run(ref.resolve, labels, masses, n, f, D, gamma, M=M)
    assert got_err == want_err
    if want is None:
        return
    M_w, image, induced, (value, finite), params = want
    assert got.M == M_w
    assert got.image == image
    assert got.induced.labels == labels
    assert got.induced.masses == induced
    assert got.achieved_divergence.finite == finite
    _same_value(got.achieved_divergence.value, value, not isinstance(source, FiniteDistribution))
    assert dataclasses.astuple(got.params) == params
    if finite and all(isinstance(m, Fraction) for m in masses) and isinstance(value, Fraction):
        # The converse on the built map, from the reference's divergence.
        t = ref.inverse_level(f, value, True)
        expected = value >= offset(f).f_at_zero or (
            math.log(M_w) >= smooth_max_entropy(source, 1 - t).value - 1e-9
        )
        assert converse_check(got, source, f) == expected


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_extractor_matches_the_per_atom_reference(data):
    source, (labels, masses), n = data.draw(sources())
    f = data.draw(st.sampled_from(GENERATORS))
    edges = _prefix_masses(masses) + _excess_edges(masses)
    edges = [1 - e for e in edges if 0 < 1 - e < 1] or [Fraction(1, 2)]
    Delta = _target(data.draw, f, masses, edges)
    gamma = data.draw(st.sampled_from([0.02, 0.1, 0.3, 0.6]))
    M = data.draw(st.one_of(st.none(), st.integers(min_value=1, max_value=40)))
    got, got_err = _run(build_extractor, source, f, Delta, gamma, M=M)
    exact = all(isinstance(m, Fraction) for m in masses)
    t = ref.inverse_level(f, Delta, exact)
    beta0 = smooth_min_entropy(source, 1 - t).witness.beta
    want, want_err = _run(ref.extract, labels, masses, n, f, beta0, Delta, gamma, M=M)
    assert got_err == want_err
    if want is None:
        return
    M_w, bins, induced, (value, finite), (beta0_w, a_n, modified), params = want
    assert got.M == M_w
    assert got.bins == bins
    assert got.induced.masses == induced
    assert got.achieved_divergence.finite == finite
    _same_value(got.achieved_divergence.value, value, False)
    assert got.modified.beta0 == beta0_w and got.modified.a_n == a_n
    assert got.modified.dist.labels == labels
    assert got.modified.dist.masses == modified
    assert dataclasses.astuple(got.params) == params
    if finite and float(value) <= float(Delta) < offset(f).f_at_zero:
        floor = ref.divergence_floor(M_w, masses, f)
        hinf = smooth_min_entropy(source, 1 - t).value
        expected = math.log(M_w) <= hinf + 1e-9 or floor <= float(Delta) + 1e-12
        assert intrinsic_converse_check(got, source, f, Delta, 0.0) == expected


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_divergence_floor_matches_the_per_atom_reference(data):
    source, (labels, masses), _ = data.draw(sources())
    if not isinstance(source, FiniteDistribution):
        source = FiniteDistribution(labels=labels, masses=masses)
    f = data.draw(st.sampled_from(GENERATORS))
    for M in (1, 2, 3, 5, 8, 13, 40, 100):
        assert _divergence_floor(M, source, offset(f)) == ref.divergence_floor(M, masses, f)


def test_divergence_floor_joins_levels_of_equal_float_mass():
    # Two exact levels one part in 10^30 apart are one float level.
    eps = Fraction(1, 10 ** 30)
    masses = (Fraction(9, 26), Fraction(33, 130), Fraction(1, 5) + eps, Fraction(1, 5) - eps)
    source = FiniteDistribution(labels=(0, 1, 2, 3), masses=masses)
    assert len(source.levels) == 4
    for f in GENERATORS:
        for M in (2, 3, 4, 5, 7):
            assert _divergence_floor(M, source, offset(f)) == ref.divergence_floor(M, masses, f)
