"""Generator families, offsets, inversion, and the condition table."""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothgen import (
    AlphabetMismatchError,
    BadParamError,
    C2PrimeViolatedError,
    FiniteDistribution,
    OutOfRangeError,
    alpha_divergence,
    check_conditions,
    e_gamma,
    f_divergence,
    half_variational,
    hellinger,
    inverse,
    kl,
    make_distribution,
    offset,
    parse_generator,
    registry,
    reverse_kl,
    sq_hellinger,
    variational,
)


def _dist(weights):
    return make_distribution(weights)


def test_family_values_at_known_points():
    assert half_variational().eval(Fraction(1, 2)) == Fraction(1, 2)
    assert half_variational().eval(2) == 0
    assert variational().eval(Fraction(1, 2)) == Fraction(1, 2)
    assert variational().eval(3) == 2
    assert hellinger().eval(Fraction(1, 4)) == Fraction(1, 2)
    assert sq_hellinger().eval(Fraction(1, 4)) == Fraction(1, 4)
    assert reverse_kl().eval(1) == 0
    assert kl().eval(1) == 0
    g = e_gamma(2)
    assert g.eval(Fraction(1, 2)) == Fraction(1, 2)
    # Past t = gamma the generator goes negative: its slope at infinity
    # is already zero, so no offset ever lifts the tail.
    assert g.eval(3) == -1


def test_f_at_one_vanishes_for_every_family():
    for f in registry():
        assert f.eval(1) == 0


def test_c_f_values():
    assert half_variational().c_f == 0
    assert reverse_kl().c_f == 0
    assert hellinger().c_f == 0
    assert sq_hellinger().c_f == 1
    assert variational().c_f == 1
    assert e_gamma(2).c_f == 0
    assert kl().c_f == math.inf


def test_condition_table_matches_theory():
    expected = {
        "kl": (False, False, False, True, True),
        "reverse-kl": (True, True, True, True, True),
        "hellinger": (True, True, True, True, True),
        "half-variational": (True, True, True, True, True),
        "sq-hellinger": (False, False, True, True, True),
        "variational": (False, False, True, True, True),
        "alpha": (False, False, True, True, True),
        "e-gamma": (True, True, True, True, True),
    }
    for f in registry(alpha=0.5, gamma=2):
        key = f.name.split(":")[0]
        rep = check_conditions(f)
        assert (rep.c1, rep.c2, rep.c2_prime, rep.c3, rep.c3_prime) == expected[key], f.name


def test_divergence_of_identical_distributions_is_zero():
    p = _dist([Fraction(3, 10), Fraction(7, 10)])
    for f in registry():
        v = f_divergence(f, p, p)
        assert v.finite and v.value == 0


def test_half_variational_is_half_total_variation():
    p = _dist([Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)])
    q = _dist([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    tv = sum(abs(a - b) for a, b in zip(p.masses, q.masses))
    got = f_divergence(half_variational(), p, q)
    assert got.value == tv / 2
    assert f_divergence(variational(), p, q).value == tv


def test_zero_denominator_uses_slope_at_infinity():
    p = _dist([Fraction(1, 2), Fraction(1, 2)])
    q = make_distribution([Fraction(1), Fraction(0)])
    # variational: |t-1| with c_f = 1 adds the escaping mass once.
    assert f_divergence(variational(), p, q).value == 1
    # half-variational: (1-t)+ has c_f = 0, the escaping mass is free.
    assert f_divergence(half_variational(), p, q).value == Fraction(1, 2)
    # reverse KL has c_f = 0, so P-mass escaping Q's support is free too.
    v = f_divergence(reverse_kl(), p, q)
    assert v.finite
    assert float(v) == pytest.approx(math.log(2))


def test_reverse_kl_hits_infinity_where_p_vanishes():
    p = _dist([Fraction(1, 2), Fraction(1, 2)])
    q = make_distribution([Fraction(1), Fraction(0)])
    v = f_divergence(reverse_kl(), q, p)
    assert not v.finite


def test_alphabet_mismatch_is_reported():
    p = make_distribution([1, 1], labels=("a", "b"))
    q = make_distribution([1, 1], labels=("a", "c"))
    message = "^alphabets differ at position 1: P has label 'b', Q has 'c'$"
    with pytest.raises(AlphabetMismatchError, match=message):
        f_divergence(half_variational(), p, q)
    with pytest.raises(AlphabetMismatchError, match="^alphabets differ: 2 vs 3 labels$"):
        f_divergence(half_variational(), p, make_distribution([1, 1, 1], labels=("a", "b", "c")))


def _direct_divergence(f, p, q) -> float:
    terms = []
    for a, b in zip(p, q):
        if b > 0:
            terms.append(b * f.eval(a / b) if a > 0 else b * float(f.f_at_zero))
        elif a > 0:
            terms.append(a * float(f.c_f))
    return math.fsum(terms)


@pytest.mark.parametrize("zeros", ["each side", "shared"])
def test_wide_float_divergence_matches_a_direct_sum(zeros):
    rng = random.Random(128)
    for _ in range(5):
        p = [rng.random() for _ in range(128)]
        q = [rng.random() for _ in range(128)]
        for i in rng.sample(range(128), 24):
            if zeros == "shared":
                p[i] = q[i] = 0.0
            elif i % 2:
                p[i] = 0.0
            else:
                q[i] = 0.0
        P, Q = make_distribution(p), make_distribution(q)
        for f in registry():
            want = _direct_divergence(f, P.masses, Q.masses)
            got = f_divergence(f, P, Q)
            if want == math.inf:
                assert not got.finite, f.name
            else:
                assert got.finite and abs(float(got) - want) <= 1e-12, f.name


def test_kl_refuses_offset():
    with pytest.raises(C2PrimeViolatedError):
        offset(kl())


@st.composite
def pair_of_distributions(draw):
    size = draw(st.integers(min_value=2, max_value=8))
    def weights():
        w = draw(
            st.lists(
                st.integers(min_value=0, max_value=50),
                min_size=size,
                max_size=size,
            ).filter(lambda v: sum(v) > 0)
        )
        return [Fraction(x) for x in w]
    return _dist(weights()), _dist(weights())


@settings(max_examples=150, deadline=None)
@given(pair_of_distributions())
def test_offset_leaves_divergence_unchanged(pq):
    p, q = pq
    for f in (variational(), sq_hellinger(), alpha_divergence(0.5), e_gamma(1.5)):
        f0 = offset(f)
        direct = f_divergence(f, p, q)
        shifted = f_divergence(f0, p, q)
        assert direct.finite == shifted.finite
        if direct.finite:
            assert abs(float(direct) - float(shifted)) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1e-6, max_value=0.999))
def test_closed_inverse_agrees_with_bisection(frac_of_range):
    for f in registry():
        if f.name == "kl":
            continue
        f0 = offset(f)
        # reverse KL has f0(0) = inf; probe a finite slice of its range.
        top = min(float(f0.f_at_zero), 5.0)
        target = frac_of_range * top
        closed = inverse(f0, target)
        stripped = dataclasses.replace(f, closed_inverse=None)
        numeric = inverse(offset(stripped), target)
        assert abs(float(closed) - float(numeric)) <= 1e-9, f.name


def test_inverse_round_trip_is_exact_for_rational_families():
    f0 = offset(half_variational())
    t = inverse(f0, Fraction(1, 5))
    assert t == Fraction(4, 5)
    assert f0.eval(t) == Fraction(1, 5)
    f0v = offset(variational())
    tv = inverse(f0v, Fraction(1, 5))
    assert f0v.eval(tv) == Fraction(1, 5)


def test_inverse_rejects_targets_at_or_above_f_at_zero():
    f0 = offset(half_variational())
    with pytest.raises(OutOfRangeError):
        inverse(f0, 1)
    with pytest.raises(OutOfRangeError):
        inverse(f0, -0.1)


def test_e_gamma_above_one_matches_half_variational_on_the_unit_interval():
    # Inversion only ever queries [0, 1]; there the two families are one
    # function for every gamma >= 1, which is what makes their rate
    # tables match bit for bit.  The tails past t = gamma differ.
    hv0 = offset(half_variational())
    for g in (1, 1.5, 2, 5):
        g0 = offset(e_gamma(g))
        for t in (0, Fraction(1, 3), Fraction(1, 2), Fraction(9, 10), 1):
            assert g0.eval(t) == hv0.eval(t), (g, t)
        from smoothgen import inverse

        for d in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
            assert inverse(g0, d) == inverse(hv0, d)


def test_parse_generator_spellings():
    assert parse_generator("half-variational").name == "half-variational"
    assert parse_generator("reverse-kl").name == "reverse-kl"
    assert parse_generator("alpha:0.25").params == (0.25,)
    assert parse_generator("e-gamma:2.0").params == (2.0,)
    with pytest.raises(BadParamError):
        parse_generator("nonsense")


def test_alpha_needs_interior_parameter():
    with pytest.raises(BadParamError):
        alpha_divergence(0.0)
    with pytest.raises(BadParamError):
        alpha_divergence(1.0)


def test_e_gamma_needs_gamma_at_least_one():
    with pytest.raises(BadParamError):
        e_gamma(0.5)


def _permuted(dist, order):
    return FiniteDistribution(
        labels=tuple(dist.labels[i] for i in order),
        masses=tuple(dist.masses[i] for i in order),
    )


def _as_floats(dist):
    return FiniteDistribution(labels=dist.labels, masses=tuple(float(m) for m in dist.masses))


# Generators of registry() whose values stay rational on rational input.
RATIONAL = ("variational", "half-variational", "e-gamma:2")


def _close(a, b):
    """Both infinite, or finite and within 1e-12 relative of each other."""
    if not (a.finite and b.finite):
        return a.finite == b.finite
    return abs(float(a) - float(b)) <= 1e-12 * max(abs(float(a)), abs(float(b)))


def _exactly_zero_with_cancelling_terms(f, p, q):
    """Whether f has negative values and D_f(P || Q) is exactly 0 on the exact lane.

    Then the float sum is rounding noise of either sign, which no
    relative bound holds across summation orders; see the pinned case below.
    """
    return f.name == "e-gamma:2" and f_divergence(f, p, q).value == 0


@settings(max_examples=200, deadline=None)
@given(pair_of_distributions(), st.data())
def test_permuting_labels_of_both_leaves_every_divergence_unchanged(pq, data):
    p, q = pq
    order = data.draw(st.permutations(range(p.size)))
    for f in registry():
        for lane_p, lane_q in ((p, q), (_as_floats(p), _as_floats(q))):
            before = f_divergence(f, lane_p, lane_q)
            after = f_divergence(f, _permuted(lane_p, order), _permuted(lane_q, order))
            if lane_p.exact and f.name in RATIONAL:
                assert isinstance(before.value, (int, Fraction)), f.name
                assert repr(after) == repr(before), f.name
            elif lane_p.exact or not _exactly_zero_with_cancelling_terms(f, p, q):
                assert _close(before, after), (f.name, lane_p.exact, before, after)


@pytest.mark.xfail(strict=True, reason="float sums of cancelling terms are order dependent at 0")
def test_float_e_gamma_at_an_exact_zero_agrees_across_label_orders():
    # e-gamma takes negative values, so its terms can cancel to an exact
    # 0 with P != Q; the float sum then keeps rounding noise whose size
    # depends on the order of the atoms.
    p = _as_floats(_dist([0, 0, 0, 0, 0, 1]))
    q = _as_floats(_dist([0, 0, 0, Fraction(1, 10), Fraction(1, 5), Fraction(7, 10)]))
    order = [0, 5, 2, 3, 4, 1]
    f = e_gamma(2)
    assert f_divergence(f, _dist([0, 0, 0, 0, 0, 1]), _dist([0, 0, 0, 1, 2, 7])).value == 0
    assert _close(f_divergence(f, p, q), f_divergence(f, _permuted(p, order), _permuted(q, order)))


@st.composite
def channel(draw, inputs):
    """A stochastic matrix from ``inputs`` symbols to 1..4 outputs, small integer entries."""
    outputs = draw(st.integers(min_value=1, max_value=4))
    row = st.lists(st.integers(min_value=0, max_value=5), min_size=outputs, max_size=outputs)
    rows = [draw(row.filter(lambda r: sum(r) > 0)) for _ in range(inputs)]
    return [[Fraction(x, sum(r)) for x in r] for r in rows]


def _through(dist, W):
    out = [sum(m * row[j] for m, row in zip(dist.masses, W)) for j in range(len(W[0]))]
    return FiniteDistribution(labels=tuple(range(len(out))), masses=tuple(out))


@settings(max_examples=200, deadline=None)
@given(pair_of_distributions(), st.data())
def test_a_channel_never_raises_the_divergence(pq, data):
    # Data processing (Csiszar 1967): D_f(PW || QW) <= D_f(P || Q).
    p, q = pq
    W = data.draw(channel(p.size))
    pw, qw = _through(p, W), _through(q, W)
    for f in registry():
        before = f_divergence(f, p, q)
        after = f_divergence(f, pw, qw)
        if not before.finite:
            continue
        assert after.finite, f.name
        if f.name in RATIONAL:
            assert after.value <= before.value, f.name
        else:
            assert float(after) <= float(before) + 1e-12 * abs(float(before)), (f.name, before, after)


def _every_term_added(f, terms):
    """sum count * q * f(p / q) over (count, p, q) groups with both p and q positive, every term added."""
    total = 0
    for count, p, q in terms:
        term = q * f.eval(p / q)
        total += term if count == 1 else count * term
    return total


EXACT_ZERO_TERMS = [
    # Leading exact zeros over Fraction(1, 4), then float terms.
    [(1, Fraction(1, 2), Fraction(1, 4)), (3, Fraction(1, 3), Fraction(1, 4)), (1, 0.1, 0.25), (1, 0.3, 0.25)],
    # Exact zeros after a float term.
    [(1, 0.1, 0.25), (1, Fraction(1, 2), Fraction(1, 4)), (2, Fraction(1, 3), Fraction(1, 4))],
    # An int Q-mass gives the int 0 first; a later Fraction zero makes the total a Fraction.
    [(1, 2, 1), (1, Fraction(1, 2), Fraction(1, 4)), (1, Fraction(1, 3), Fraction(1, 4))],
    # Only int zeros: the total stays an int.
    [(1, 2, 1), (2, 3, 1)],
    # Exact zeros between exact positive terms.
    [(1, Fraction(1, 8), Fraction(1, 4)), (1, Fraction(1, 2), Fraction(1, 4)), (1, Fraction(1, 16), Fraction(1, 4))],
]


@pytest.mark.parametrize("terms", EXACT_ZERO_TERMS, ids=["leading", "after-float", "int-then-fraction", "ints", "between"])
def test_exact_zero_terms_leave_the_sum_and_its_type_as_every_term_added_would(terms):
    # half-variational is the int 0 at t >= 1, so q * f(t) is an exact zero there.
    from smoothgen.fdiv import _divergence_sum

    f = half_variational()
    want = _every_term_added(f, terms)
    got = _divergence_sum(f, iter(terms)).value
    assert got == want and type(got) is type(want)
