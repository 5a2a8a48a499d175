"""Acceptance gate: twelve numbered criteria, pinned tolerances, budgets.

Each test prints one PASS line with its runtime once every assertion in
it has held; a failure surfaces through pytest before the line prints.
Random instances are drawn from seeded generators so reruns are exact.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracle_entropy import oracle_max_entropy, oracle_min_entropy
from oracle_partitions import min_achievable_uniformity
from smoothgen import (
    DegenerateSupportError,
    MTooSmallError,
    ResolvabilityMap,
    achieved_divergence,
    alpha_divergence,
    bernoulli,
    build_extractor,
    build_resolvability_map,
    converse_check,
    e_gamma,
    equivalence_report,
    expand,
    f_divergence,
    half_variational,
    hellinger,
    iid_power,
    inverse,
    ir_rate_formula,
    make_distribution,
    offset,
    rate_formula,
    registry,
    reverse_kl,
    smooth_max_entropy,
    smooth_min_entropy,
    sq_hellinger,
    uniform_distribution,
    variational,
)
from smoothgen.cli import main as cli_main
from smoothgen.intrinsic import _divergence_floor


def _finish(num: int, started: float, budget: float, note: str = "") -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, (
        f"criterion {num} overran its budget: {elapsed:.1f}s >= {budget}s"
    )
    print(f"[criterion {num:>2}] PASS in {elapsed:.2f}s (budget {budget:.0f}s) {note}")


def _random_float_pair(rng, size):
    p = rng.random(size) + 1e-9
    q = rng.random(size) + 1e-9
    return make_distribution(tuple(p / p.sum())), make_distribution(tuple(q / q.sum()))


def test_criterion_01_divergence_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    families = registry(alpha=0.5, gamma=2)
    gammas = [(g, e_gamma(g)) for g in (1.0, 1.5, 2.0, 5.0)]
    hv, tv = half_variational(), variational()
    for i in range(10_000):
        size = int(rng.integers(2, 33))
        P, Q = _random_float_pair(rng, size)
        f_self = families[i % len(families)]
        assert abs(float(f_divergence(f_self, P, P))) <= 1e-12
        assert abs(
            float(f_divergence(hv, P, Q)) - float(f_divergence(tv, P, Q)) / 2
        ) <= 1e-12
        g, fg = gammas[i % len(gammas)]
        p = np.array(P.masses, dtype=float)
        q = np.array(Q.masses, dtype=float)
        direct = float(np.clip(g * q - p, 0.0, None).sum()) + 1.0 - g
        assert abs(float(f_divergence(fg, P, Q)) - direct) <= 1e-12
    # Identity under P = Q must hold for every family, not just a rotation.
    P, _ = _random_float_pair(rng, 32)
    for f in families:
        assert abs(float(f_divergence(f, P, P))) <= 1e-12
    _finish(1, started, 10, "3 identities x 10^4 pairs")


def test_criterion_02_offset_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    gens = [variational(), sq_hellinger(), alpha_divergence(0.25),
            alpha_divergence(0.5), alpha_divergence(0.75)]
    offsets = [offset(g) for g in gens]
    for _ in range(10_000):
        size = int(rng.integers(2, 17))
        p = rng.random(size)
        q = rng.random(size)
        # Zero out disjoint slices so both sides of the ratio degenerate.
        p[rng.random(size) < 0.2] = 0.0
        q[rng.random(size) < 0.2] = 0.0
        if p.sum() == 0 or q.sum() == 0:
            continue
        P = make_distribution(tuple(p / p.sum()))
        Q = make_distribution(tuple(q / q.sum()))
        for g, g0 in zip(gens, offsets):
            assert abs(
                float(f_divergence(g, P, Q)) - float(f_divergence(g0, P, Q))
            ) <= 1e-10
    _finish(2, started, 10, "5 generators, zero-mass atoms included")


def _dyadic(rng, size, denom=4096):
    w = rng.integers(0, 65, size)
    rest = int(w[1:].sum())
    masses = [(denom - rest) / denom] + [int(x) / denom for x in w[1:]]
    return make_distribution(masses)


def test_criterion_03_smooth_entropy_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    deltas = [k / 20 for k in range(11)]
    for i in range(10_000):
        d = _dyadic(rng, int(rng.integers(1, 13)))
        delta = deltas[i % len(deltas)]
        assert smooth_max_entropy(d, delta).value == oracle_max_entropy(d, delta)
    for i in range(10_000):
        size = int(rng.integers(2, 101))
        p = rng.random(size)
        p[rng.random(size) < 0.1] = 0.0
        if p.sum() == 0:
            continue
        d = make_distribution(tuple(p / p.sum()))
        delta = (i % 19) / 20
        got = smooth_min_entropy(d, delta).value
        assert abs(got - oracle_min_entropy(d, delta)) <= 1e-9
    _finish(3, started, 60, "greedy exact; water-filling within 1e-9")


def test_criterion_04_closed_inverses():
    started = time.perf_counter()
    for f in registry(alpha=0.5, gamma=2) + [alpha_divergence(0.25), alpha_divergence(0.75)]:
        if f.name == "kl" or f.closed_inverse is None:
            continue
        f0 = offset(f)
        stripped = offset(dataclasses.replace(f, closed_inverse=None))
        top = min(float(f0.f_at_zero), 4.0)
        for frac in np.linspace(0.0, 1.0, 1000, endpoint=False):
            target = float(frac) * top
            assert abs(
                float(inverse(f0, target)) - float(inverse(stripped, target))
            ) <= 1e-9, (f.name, target)
    _finish(4, started, 5, "1000-point grid per family")


def _random_exact_base(rng, max_size=4):
    size = int(rng.integers(2, max_size + 1))
    w = [int(x) for x in rng.integers(1, 10, size)]
    return make_distribution([Fraction(x) for x in w])


def _check_quantization_exact(dist, map_, f, D):
    """Rational recheck of the count sandwich and the overflow bound.

    Reconstructs the greedy covering prefix, then verifies with
    Fractions only: every non-absorbing count is the floor of M times
    its conditional mass, the absorbing count covers its own share, and
    the absorbing overshoot stays under (|B| - 1)/M.  When M came from
    the size formula, M itself must dominate |B| e^{n gamma}.
    """
    f0 = offset(f)
    lvl = Fraction(D) if dist.exact and isinstance(D, float) else D
    t = inverse(f0, lvl)
    if dist.exact and isinstance(t, float):
        t = Fraction(t)
    cum = Fraction(0)
    b_idx = []
    for i in dist.descending():
        b_idx.append(i)
        cum += dist.masses[i]
        if cum >= t:
            break
    else:
        b_idx = [i for i in b_idx if dist.masses[i] > 0]
    pr_b = cum
    M = map_.M
    mass_of = dict(dist.atoms)
    selected_labels = {
        dist.labels[i] for i in b_idx if mass_of[dist.labels[i]] / pr_b >= Fraction(1, M)
    }
    assert {lab for lab, _ in map_.image} == selected_labels
    for lab, k in map_.image[:-1]:
        share = M * mass_of[lab] / pr_b
        assert k == math.floor(share)
        assert 0 <= share - k < 1
    lab_star, k_star = map_.image[-1]
    share_star = M * mass_of[lab_star] / pr_b
    overshoot = k_star - share_star
    assert 0 <= overshoot <= len(b_idx) - 1
    if map_.params.m_from_formula:
        scale = Fraction(math.exp(map_.params.n * map_.params.gamma))
        assert M >= len(b_idx) * scale


def test_criterion_05_resolvability_construction():
    started = time.perf_counter()
    rng = np.random.default_rng(505)
    fams = [half_variational(), reverse_kl(), hellinger()]
    d_grid = [0.05, 0.1, 0.2, 0.4]
    g_grid = [0.1, 0.25, 0.5]
    done = attempts = 0
    while done < 500 and attempts < 2000:
        attempts += 1
        base = _random_exact_base(rng)
        n_max = int(math.log(64) / math.log(base.size))
        n = int(rng.integers(1, n_max + 1))
        source = iid_power(base, n) if n > 1 else base
        f = fams[attempts % 3]
        D = d_grid[attempts % 4]
        gamma = g_grid[attempts % 3]
        try:
            map_ = build_resolvability_map(source, f, D, gamma)
        except DegenerateSupportError:
            continue
        done += 1
        p = map_.params
        assert map_.induced.exact
        by_label = dict(map_.image)
        for lab, mass in map_.induced.atoms:
            want = Fraction(by_label.get(lab, 0), map_.M)
            assert mass == want
        dist = expand(source) if n > 1 else base
        _check_quantization_exact(dist, map_, f, D)
        achieved = map_.achieved_divergence
        assert achieved.finite
        if f.name == "half-variational":
            # Piecewise-rational generator, so the value itself is exact.
            assert isinstance(achieved.value, Fraction)
        assert float(achieved) <= p.bound + 1e-12
        assert float(achieved) <= p.D + p.slack + 1e-12
    assert done == 500, f"only {done} instances built in {attempts} attempts"

    # Pre-registered Bernoulli(0.3) sweep: certificate slack must shrink
    # as gamma*n grows, and match the frozen sequence (6-decimal pins).
    pinned = [0.098066, 0.035664, 0.015274, 0.006064, 0.002064, 0.000818]
    slacks = []
    for n in (4, 6, 8, 10, 12, 14):
        view = iid_power(bernoulli(0.3), n)
        map_ = build_resolvability_map(view, half_variational(), 0.2, 0.5)
        slacks.append(map_.params.slack)
        assert float(map_.achieved_divergence) <= 0.2 + 0.5 + 1e-12
    for got, want in zip(slacks, pinned):
        assert abs(got - want) <= 1e-6, (got, want)
    assert all(b < a for a, b in zip(slacks, slacks[1:]))
    _finish(5, started, 120, "500 instances; slack sweep pinned")


def test_criterion_06_resolvability_converse():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    fams = [half_variational(), reverse_kl(), hellinger(), variational(), sq_hellinger()]
    for i in range(10_000):
        if i % 5 == 0:
            base = bernoulli(Fraction(int(rng.integers(1, 100)), 100))
            n = int(rng.integers(2, 6))
            source = iid_power(base, n)
            dist = None
        else:
            source = _random_exact_base(rng, max_size=32)
            dist = source
        labels = (
            dist.labels
            if dist is not None
            else tuple(range(source.full_alphabet_size))
        )
        M = int(rng.integers(1, 13))
        k = int(rng.integers(1, min(M, len(labels)) + 1))
        chosen = rng.choice(len(labels), size=k, replace=False)
        cuts = sorted(rng.choice(np.arange(1, M), size=k - 1, replace=False)) if k > 1 else []
        counts = np.diff([0, *cuts, M])
        image = tuple((labels[int(c)], int(ct)) for c, ct in zip(chosen, counts))
        if dist is None:
            # Views expose no per-atom labels; score against the expansion.
            dist = expand(source)
            image = tuple((dist.labels[int(c)], int(ct)) for c, ct in zip(chosen, counts))
        by_label = dict(image)
        induced = make_distribution(
            [Fraction(by_label.get(lab, 0), M) for lab in dist.labels],
            labels=dist.labels,
        )
        map_ = ResolvabilityMap(M=M, image=image, induced=induced, achieved_divergence=None)
        f = fams[i % len(fams)]
        assert converse_check(map_, dist, f), (i, M, f.name)
    # Constructed maps must clear their own converse too.
    for n in (2, 3, 4):
        view = iid_power(bernoulli(0.3), n)
        for D in (0.05, 0.2):
            map_ = build_resolvability_map(view, half_variational(), D, 0.3)
            assert converse_check(map_, view, half_variational())
    _finish(6, started, 60, "10^4 random maps, zero violations")


def test_criterion_07_extractor_construction():
    started = time.perf_counter()
    rng = np.random.default_rng(707)
    fams = [half_variational(), reverse_kl(), hellinger()]
    d_grid = [0.1, 0.2, 0.35]
    g_grid = [0.1, 0.25, 0.5]
    done = attempts = 0
    while done < 500 and attempts < 2000:
        attempts += 1
        base = _random_exact_base(rng)
        n_max = int(math.log(64) / math.log(base.size))
        n = int(rng.integers(1, n_max + 1))
        source = iid_power(base, n) if n > 1 else base
        f = fams[attempts % 3]
        Delta = d_grid[attempts % 3]
        gamma = g_grid[attempts % 3]
        try:
            map_ = build_extractor(source, f, Delta, gamma)
        except MTooSmallError:
            continue
        done += 1
        p = map_.params
        beta0, a_n = map_.modified.beta0, map_.modified.a_n
        cap = Fraction(1, map_.M)
        floor = cap - beta0 / a_n
        mod_mass = dict(map_.modified.dist.atoms)
        for i, b in enumerate(map_.bins):
            mass = sum((mod_mass[lab] for lab in b), start=Fraction(0))
            if i < map_.M - 1:
                assert mass <= cap
            assert mass >= floor
        if floor > 0:
            # Original mass dominates A_n times the modified mass, so the
            # induced floor transfers at scale a_n.
            for m in map_.induced.masses:
                assert m >= a_n * floor
        assert p.min_induced >= float(a_n * floor) - 1e-12
        assert float(map_.achieved_divergence) <= p.Delta + p.delta_n + 1e-12
        assert float(map_.achieved_divergence) <= p.bound + 1e-12
    assert done == 500, f"only {done} instances built in {attempts} attempts"

    pinned = [0.294304, 0.178504, 0.108268, 0.065668, 0.039830, 0.024158]
    deltas = []
    for n in (4, 6, 8, 10, 12, 14):
        view = iid_power(bernoulli(0.3), n)
        map_ = build_extractor(view, half_variational(), 0.2, 0.5)
        deltas.append(map_.params.delta_n)
        assert float(map_.achieved_divergence) <= 0.2 + map_.params.delta_n + 1e-12
    for got, want in zip(deltas, pinned):
        assert abs(got - want) <= 1e-6, (got, want)
    assert all(b < a for a, b in zip(deltas, deltas[1:]))
    _finish(7, started, 120, "500 instances; delta_n sweep pinned")


def test_criterion_08_intrinsic_exhaustive_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(808)
    f = half_variational()
    f0 = offset(f)
    for _ in range(100):
        w = [int(x) for x in rng.integers(1, 10, 6)]
        d = make_distribution([Fraction(x) for x in w])
        for M in (1, 2, 3, 4):
            best, part = min_achievable_uniformity(d, f, M)
            assert len(part) == M
            # The converse's refutation floor must stay at or below what
            # the exhaustively best map really achieves.
            floor = _divergence_floor(M, d, f0)
            assert floor <= float(best) + 1e-9, (w, M, floor, float(best))
    _finish(8, started, 300, "100 sources x M <= 4, exhaustive")


def _nan_safe_equal(a, b):
    return (math.isnan(a) and math.isnan(b)) or a == b


def test_criterion_09_e_gamma_rate_independence():
    started = time.perf_counter()
    base = bernoulli(0.3)
    n_list = [4, 8, 12]
    hv = half_variational()
    hv_res = rate_formula(base, n_list, hv, 0.2)
    hv_ir = ir_rate_formula(base, n_list, hv, 0.2)
    hv_eq = equivalence_report(base, hv, 0.2, 0.01, n_list)
    for g in (1.0, 1.5, 2.0, 5.0):
        fg = e_gamma(g)
        # Bitwise equality; rounding to 1e-12 would already pass.
        for a, b in zip(hv_res, rate_formula(base, n_list, fg, 0.2)):
            assert a.first_order == b.first_order
            assert all(
                _nan_safe_equal(x, y)
                for x, y in zip(a.first_order_alt, b.first_order_alt)
            )
        for a, b in zip(hv_ir, ir_rate_formula(base, n_list, fg, 0.2)):
            assert a.first_order == b.first_order
        for ra, rb in zip(hv_eq.rows, equivalence_report(base, fg, 0.2, 0.01, n_list).rows):
            assert (ra.h0_rate, ra.hinf_rate, ra.kbar, ra.kunder) == (
                rb.h0_rate, rb.hinf_rate, rb.kbar, rb.kunder
            )
            assert (ra.gap0, ra.gapinf) == (rb.gap0, rb.gapinf)
    _finish(9, started, 10, "gamma in {1,1.5,2,5} == half-variational")


def _load_oracle():
    path = Path(__file__).with_name("oracle_typeclass.py")
    spec = importlib.util.spec_from_file_location("oracle_typeclass", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_criterion_10_first_order_convergence():
    started = time.perf_counter()
    oracle = _load_oracle()
    tc = oracle.binomial_classes(0.11, 8192)
    oracle_h0 = oracle.h0_rate(tc, 0.11)
    oracle_hinf = oracle.hinf_rate(tc, 0.11)

    base = bernoulli(0.11)
    n_list = [256, 512, 1024, 2048, 4096]
    h0_seq = [
        rate_formula(base, [n], half_variational(), 0.1, nu_ladder=(0.01,))[0].first_order[0]
        for n in n_list
    ]
    hinf_seq = [
        ir_rate_formula(base, [n], half_variational(), 0.1, nu_ladder=(0.01,))[0].first_order[0]
        for n in n_list
    ]
    assert abs(h0_seq[-1] - oracle_h0) <= 0.05
    assert abs(hinf_seq[-1] - oracle_hinf) <= 0.05
    for a, b in zip(h0_seq, h0_seq[1:]):
        assert b <= a + 1e-6
    for a, b in zip(hinf_seq, hinf_seq[1:]):
        assert b >= a - 1e-6
    # Frozen regression pins recorded before the main build.
    pinned_h0 = [0.3816807045, 0.3742589465, 0.3674292275, 0.3619901110, 0.3578076627]
    pinned_hinf = [0.2998212536, 0.3131739608, 0.3227995516, 0.3292434438, 0.3342089831]
    for got, want in zip(h0_seq, pinned_h0):
        assert abs(got - want) <= 1e-9
    for got, want in zip(hinf_seq, pinned_hinf):
        assert abs(got - want) <= 1e-9
    _finish(10, started, 120, "vs independent oracle at n=8192")


def test_criterion_11_spectrum_equivalence_diagnostic():
    started = time.perf_counter()
    # Same covering level the library derives from (D, nu) = (0.2, 0.01).
    c = inverse(offset(half_variational()), Fraction(0.2) + Fraction(0.01))
    if isinstance(c, float):
        c = Fraction(c)
    for m in (2, 4):
        rep = equivalence_report(uniform_distribution(m), half_variational(), 0.2, 0.01, [2, 3, 5])
        for row in rep.rows:
            assert row.gapinf == 0.0
            count = math.ceil(c * Fraction(m) ** row.n)
            analytic = abs(math.log(count) / row.n - math.log(m ** row.n) / row.n)
            assert abs(row.gap0 - analytic) <= 1e-12
    thresholds0 = (1.88e-2, 9.79e-3, 5.36e-3, 2.89e-3)
    thresholds_inf = (5.10e-3, 3.26e-3, 1.81e-3, 5.08e-4)
    rep = equivalence_report(bernoulli(0.3), half_variational(), 0.2, 0.01, [256, 512, 1024, 2048])
    for row, t0, ti in zip(rep.rows, thresholds0, thresholds_inf):
        assert row.gap0 <= t0, (row.n, row.gap0, t0)
        assert row.gapinf <= ti, (row.n, row.gapinf, ti)
    assert rep.h0_gap_shrank and rep.hinf_gap_shrank
    _finish(11, started, 60, "uniform exact; Bernoulli below thresholds")


def test_criterion_12_cli_determinism(tmp_path):
    started = time.perf_counter()
    runs = {
        "map.json": [
            "resolve", "--source", "bernoulli:0.3", "--n", "8",
            "--f", "half-variational", "--D", "0.2", "--gamma", "0.1",
            "--seed", "7", "--emit",
        ],
        "extractor.json": [
            "extract", "--source", "bernoulli:0.3", "--n", "6",
            "--f", "variational", "--Delta", "0.2", "--gamma", "0.1",
            "--seed", "7", "--emit",
        ],
        "rates.csv": [
            "rates", "--kind", "intrinsic", "--source", "bernoulli:0.3",
            "--f", "half-variational", "--D", "0.2", "--nu", "0.05,0.01",
            "--n", "4,8", "--gamma", "0.5", "--out",
        ],
        "equivalence.csv": [
            "equivalence", "--source", "bernoulli:0.3", "--f", "half-variational",
            "--D", "0.2", "--nu", "0.01", "--n", "8,16,32", "--out",
        ],
    }
    for name, argv in runs.items():
        first = tmp_path / f"run1_{name}"
        second = tmp_path / f"run2_{name}"
        assert cli_main(argv + [str(first)]) == 0
        assert cli_main(argv + [str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name
    _finish(12, started, 60, "4 artifact kinds, byte-identical")
