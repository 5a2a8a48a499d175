"""The benchmark's three workloads: inputs drawn from a seed, jobs and checks.

A job is one call into smoothgen, either its CLI (``smoothgen.cli.main``
called in-process) or its library API.  ``call`` is the timed part;
``prepare`` turns earlier outputs of the same pass into the call's
inputs and ``check`` compares the output (or the file the CLI wrote)
against ``reference``.  Both run outside the timed region.  Every check
returns a list of problems, empty when the output is right.

All divergences use the half-variational generator and dyadic budgets,
so the CLI's float arguments and their decimal readings are the same
rationals and every exact comparison below is well defined.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import random
import types
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import reference as ref

WORKLOADS = ("exact-rates", "float-rates", "constructions")

F = "half-variational"
D = Fraction(1, 4)
NUS = (Fraction(1, 8), Fraction(1, 16), Fraction(1, 32))
NU_EQ = Fraction(1, 16)

BIN_RATES = ("bernoulli:0.11", (89, 11))
BIN_BUILD = ("bernoulli:0.3", (7, 3))
FLOAT_BIN_BUILD = (0.7, 0.3)

# exact-rates: n ladders of the CLI sweeps.
EXACT_BIN_NS = (256, 512, 768, 1024)
EXACT_TRI_NS = (12, 24, 36, 48)
# float-rates: n ladders of the library sweeps on float sources.  The
# binary spectrum calls at n >= 1030 raise OverflowError every time (the
# float lane converts each class multiplicity to a float) and are kept
# as failed operations.
FLOAT_BIN_RATES = (0.89, 0.11)
FLOAT_BIN_NS = (2048, 4096, 8192, 16384)
FLOAT_TRI_NS = (64, 128, 192)
FLOAT_SPECTRUM = (("bin", 1024), ("tri", 128), ("bin", 2048))
FLOAT_EQUIV = (("bin", (256, 512, 1024)), ("tri", (32, 64, 128)), ("bin", (1024, 2048)))
# constructions: (n, gamma) of each emitted map.
RESOLVE_BIN = ((10, 0.5), (12, 0.1), (14, 0.5))
EXTRACT_BIN = ((10, 0.5), (10, 0.1), (12, 0.5))
RESOLVE_TRI = ((6, 0.1), (8, 0.5))
EXTRACT_TRI = ((6, 0.5), (6, 0.1))
RATES_GAMMA = (0.5, (8, 10), Fraction(1, 8), (Fraction(1, 8), Fraction(1, 16)))
FLOAT_RESOLVE = (("bin", 12, 0.5), ("bin", 16, 0.5), ("tri", 8, 0.5))
FLOAT_EXTRACT = (("bin", 12, 0.5), ("bin", 12, 0.1), ("bin", 14, 0.5), ("tri", 8, 0.5), ("tri", 7, 0.1))

# Float-lane outputs must match the reference to within these, fixed
# before any comparison was made: entropies and quantile levels relative,
# masses and divergences absolute.
FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-9
# A certified bound is a float computed from float inputs; an achieved
# divergence may sit on it up to this rounding allowance.
BOUND_ATOL = 1e-12

# Three-symbol weights over the prime 101, so that no mass reduces to a
# smaller denominator.  The ratios of the weights are multiplicatively
# independent, so every composition has a probability level of its own.
# The seed draws the label order only: drawing the two smaller weights
# too (from (34, 19), (33, 20), (32, 21)) moved the bin-filling work by
# 3% per step, a spread between seeds that says nothing of speed.
TRI_WEIGHTS = (48, 34, 19)


def draw_tri_weights(seed: int) -> tuple[int, ...]:
    """Integer weights over 101: 48, 34 and 19 in a drawn label order."""
    rng = random.Random(seed)
    w = list(TRI_WEIGHTS)
    rng.shuffle(w)
    return tuple(w)


@dataclass
class Job:
    name: str
    call: Callable[[Any], Any]
    check: Callable[[Any], list[str]]
    prepare: Callable[[dict], Any] = lambda outputs: None


def _fmt(x: Fraction) -> str:
    return repr(float(x))


def _ladder(xs) -> str:
    return ",".join(str(x) for x in xs)


class _Problems(list):
    def equal(self, got, want, what: str) -> None:
        if got != want:
            self.append(f"{what}: got {got!r}, want {want!r}")

    def close(self, got: float, want: float, what: str, rtol: float = FLOAT_RTOL) -> None:
        if not abs(got - want) <= rtol * max(abs(want), 1.0):
            self.append(f"{what}: got {got!r}, want {want!r} within {rtol:g}")

    def true(self, cond: bool, what: str) -> None:
        if not cond:
            self.append(what)


class _Levels:
    """Reference level tables per (source, n), computed once per run."""

    def __init__(self, build: Callable) -> None:
        self._build = build
        self._cache: dict = {}

    def __call__(self, source, n: int):
        key = (tuple(source), n)
        if key not in self._cache:
            self._cache[key] = self._build(source, n)
        return self._cache[key]


def _h_max(lv: ref.ExactLevels, delta: Fraction) -> float:
    return ref.h_max_value(ref.max_set_size(lv, delta))


def _h_min(lv: ref.ExactLevels, delta: Fraction) -> float:
    return ref.h_min_value(ref.beta0(lv, delta))


class CliError(RuntimeError):
    """The CLI exited with a nonzero code."""


def _cli(argv: list[str]) -> str:
    """Run the CLI in-process; return what it wrote to stderr."""
    import contextlib
    import io

    from smoothgen import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise CliError(f"exit code {rc}: {err.getvalue().strip()[:300]}")
    return err.getvalue()


def _read_csv(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


RATES_HEADER = ["n", "nu", "first_order [nats]", "second_order [nats]", "achieved_Df", "M"]
EQUIV_HEADER = [
    "n", "nu", "h0_rate [nats]", "hinf_rate [nats]", "kbar [nats]", "kunder [nats]",
    "gap0 [nats]", "gapinf [nats]",
]


def _check_monotone(values: list[float], rising: bool, what: str, p: _Problems) -> None:
    """Along the decreasing nu ladder covering rates must not fall, extraction rates not rise."""
    for a, b in zip(values, values[1:]):
        p.true(b >= a if rising else b <= a, f"{what}: {values} not monotone along the nu ladder")


def _check_entropy_order(h0_rate: float, hinf_rate: float, delta, n: int, p: _Problems) -> None:
    """H_min^delta <= H_max^delta + log(1 / (1 - 2 delta)).

    If A covers mass 1 - delta with |A| atoms, an admissible cap beta
    leaves at most delta above it, so delta >= P(A) - beta |A| and
    beta >= (1 - 2 delta) / |A|.  With no smoothing this is the familiar
    H_min <= H_max; at equal positive smoothing a near-uniform source can
    have H_min above H_max, so the slack term is needed.
    """
    slack = -math.log(1 - 2 * float(delta)) / n
    p.true(
        hinf_rate <= h0_rate + slack + 1e-12,
        f"n={n}: H_min rate {hinf_rate!r} above H_max rate {h0_rate!r} + {slack!r}",
    )


# --------------------------------------------------------------------------
# exact-rates


def _exact_rates(jobs: list[Job], out: str, tri_spec: str, tri_weights) -> None:
    levels = _Levels(ref.exact_levels)
    sources = (
        ("bin", BIN_RATES[0], BIN_RATES[1], EXACT_BIN_NS),
        ("tri", tri_spec, tri_weights, EXACT_TRI_NS),
    )
    for tag, spec, weights, ns in sources:
        for kind in ("resolvability", "intrinsic"):
            path = os.path.join(out, f"rates-{kind}-{tag}.csv")
            argv = [
                "rates", "--kind", kind, "--source", spec, "--f", F, "--D", _fmt(D),
                "--nu", _ladder(_fmt(v) for v in NUS), "--n", _ladder(ns), "--out", path,
            ]
            jobs.append(Job(
                name=f"cli rates {kind} {tag}",
                call=lambda _, argv=argv: _cli(argv),
                check=lambda _, kind=kind, path=path, weights=weights, ns=ns: _check_rates(
                    path, kind, weights, ns, levels),
            ))
        path = os.path.join(out, f"equivalence-{tag}.csv")
        argv = [
            "equivalence", "--source", spec, "--f", F, "--D", _fmt(D), "--nu", _fmt(NU_EQ),
            "--n", _ladder(ns), "--out", path,
        ]
        jobs.append(Job(
            name=f"cli equivalence {tag}",
            call=lambda _, argv=argv: _cli(argv),
            check=lambda _, path=path, weights=weights, ns=ns: _check_equivalence(
                path, weights, ns, levels),
        ))


def _check_rates(path, kind, weights, ns, levels: _Levels) -> list[str]:
    p = _Problems()
    rows = _read_csv(path)
    header = RATES_HEADER + (["beta0", "A_n"] if kind == "intrinsic" else [])
    p.equal(rows[0], header, "rates header")
    body = rows[1:]
    p.equal(len(body), len(ns) * len(NUS), "rates row count")
    if p:
        return p
    for i, n in enumerate(ns):
        firsts = []
        for j, nu in enumerate(NUS):
            row = body[i * len(NUS) + j]
            p.equal(int(row[0]), n, "rates n")
            p.equal(float(row[1]), float(nu), "rates nu")
            want = (_h_max if kind == "resolvability" else _h_min)(levels(weights, n), D + nu) / n
            got = float(row[2])
            p.equal(got, want, f"{kind} first-order rate n={n} nu={nu}")
            p.true(all(c == "" for c in row[3:]), f"rates n={n}: cells filled without --R/--gamma")
            firsts.append(got)
        _check_monotone(firsts, kind == "resolvability", f"{kind} n={n}", p)
    return p


def _check_equivalence(path, weights, ns, levels: _Levels) -> list[str]:
    p = _Problems()
    rows = _read_csv(path)
    p.equal(rows[0], EQUIV_HEADER, "equivalence header")
    p.equal(len(rows) - 1, len(ns), "equivalence row count")
    if p:
        return p
    delta = D + NU_EQ
    for n, row in zip(ns, rows[1:]):
        lv = levels(weights, n)
        h0 = _h_max(lv, delta) / n
        hinf = _h_min(lv, delta) / n
        kbar, kunder = ref.quantiles(lv, 1 - delta)
        want = [n, float(NU_EQ), h0, hinf, kbar, kunder, abs(h0 - kbar), abs(hinf - kunder)]
        got = [int(row[0])] + [float(c) for c in row[1:]]
        for name, g, x in zip(EQUIV_HEADER, got, want):
            p.equal(g, x, f"equivalence n={n} {name}")
        _check_entropy_order(got[2], got[3], delta, n, p)
    return p


# --------------------------------------------------------------------------
# float-rates


def _float_rates(jobs: list[Job], tri_masses) -> None:
    import smoothgen as sg

    flevels = _Levels(ref.float_levels)
    f = sg.half_variational()
    masses = {"bin": FLOAT_BIN_RATES, "tri": tuple(tri_masses)}
    bases = {tag: sg.make_distribution(list(ms)) for tag, ms in masses.items()}
    nus = tuple(float(v) for v in NUS)
    eps = float(D + NU_EQ)
    for tag, ns in (("bin", FLOAT_BIN_NS), ("tri", FLOAT_TRI_NS)):
        base, ms = bases[tag], masses[tag]
        # Looked up at call time, so that a traced run sees the wrapped function.
        for kind, fn in (("resolvability", "rate_formula"), ("intrinsic", "ir_rate_formula")):
            jobs.append(Job(
                name=f"api {fn} {tag}",
                call=lambda _, fn=fn, base=base, ns=ns: getattr(sg, fn)(base, list(ns), f, float(D), nus),
                check=lambda res, kind=kind, ms=ms, ns=ns: _check_float_rates(res, kind, ms, ns, flevels),
            ))
    for tag, n in FLOAT_SPECTRUM:
        base, ms = bases[tag], masses[tag]
        jobs.append(Job(
            name=f"api spectrum_rate {tag} n={n}",
            call=lambda _, base=base, n=n: sg.spectrum_rate(sg.iid_power(base, n), f, eps),
            check=lambda res, ms=ms, n=n: _check_float_spectrum(res, flevels(ms, n)),
        ))
    for tag, ns in FLOAT_EQUIV:
        base, ms = bases[tag], masses[tag]
        jobs.append(Job(
            name=f"api equivalence_report {tag} n={_ladder(ns)}",
            call=lambda _, base=base, ns=ns: sg.equivalence_report(base, f, float(D), float(NU_EQ), list(ns)),
            check=lambda res, ms=ms, ns=ns: _check_float_equivalence(res, ms, ns, flevels),
        ))


def _check_float_rates(res, kind, ms, ns, flevels: _Levels) -> list[str]:
    p = _Problems()
    p.equal([ev.n for ev in res], list(ns), f"float {kind} n list")
    h = ref.float_h_max if kind == "resolvability" else ref.float_h_min
    for ev in res:
        lv = flevels(ms, ev.n)
        p.equal(ev.nu_ladder, tuple(float(v) for v in NUS), f"float {kind} n={ev.n} nu ladder")
        p.true(ev.second_order is None, f"float {kind} n={ev.n}: second order without R")
        for nu, got, alt in zip(NUS, ev.first_order, ev.first_order_alt):
            # For the half-variational generator both routes smooth at D + nu.
            want = h(lv, float(D + nu)) / ev.n
            p.close(got, want, f"float {kind} first-order rate n={ev.n} nu={nu}")
            p.close(alt, want, f"float {kind} first-order alt rate n={ev.n} nu={nu}")
        _check_monotone(list(ev.first_order), kind == "resolvability", f"float {kind} n={ev.n}", p)
    return p


def _float_quantile_bounds(lv: ref.FloatLevels) -> tuple[tuple[float, float], tuple[float, float]]:
    """Admissible (low, high) for kbar and for kunder at threshold 1 - (D + nu).

    A float sum of masses may cross the threshold one class early or late
    when it lies within FLOAT_ATOL of a class boundary; kbar grows and
    kunder falls with the threshold, so the scans at the threshold moved
    by FLOAT_ATOL either way bound what a correct float program returns.
    """
    c = 1 - float(D + NU_EQ)
    kbar_lo, kunder_hi = ref.float_quantiles(lv, c - FLOAT_ATOL)
    kbar_hi, kunder_lo = ref.float_quantiles(lv, c + FLOAT_ATOL)
    return (kbar_lo, kbar_hi), (kunder_lo, kunder_hi)


def _check_quantile(got: float, bounds: tuple[float, float], what: str, p: _Problems) -> None:
    lo, hi = bounds
    slack = FLOAT_RTOL * max(abs(hi), 1.0)
    p.true(lo - slack <= got <= hi + slack, f"{what}: got {got!r}, want within [{lo!r}, {hi!r}]")


def _check_float_spectrum(sr, lv: ref.FloatLevels) -> list[str]:
    p = _Problems()
    p.equal(sr.n, lv.n, "float spectrum n")
    kbar_b, kunder_b = _float_quantile_bounds(lv)
    _check_quantile(sr.kbar, kbar_b, f"float spectrum n={lv.n} kbar", p)
    _check_quantile(sr.kunder, kunder_b, f"float spectrum n={lv.n} kunder", p)
    # Above half the mass, the lower-tail quantile sits at or above the upper-tail one.
    p.true(sr.kunder <= sr.kbar + 1e-12, f"float spectrum n={lv.n}: kunder above kbar")
    return p


def _check_float_equivalence(rep, ms, ns, flevels: _Levels) -> list[str]:
    p = _Problems()
    p.equal([row.n for row in rep.rows], list(ns), "float equivalence n list")
    delta = D + NU_EQ
    for row in rep.rows:
        n, lv = row.n, flevels(ms, row.n)
        p.equal(row.nu, float(NU_EQ), f"float equivalence n={n} nu")
        p.close(row.h0_rate, ref.float_h_max(lv, float(delta)) / n, f"float equivalence n={n} h0_rate")
        p.close(row.hinf_rate, ref.float_h_min(lv, float(delta)) / n, f"float equivalence n={n} hinf_rate")
        kbar_b, kunder_b = _float_quantile_bounds(lv)
        _check_quantile(row.kbar, kbar_b, f"float equivalence n={n} kbar", p)
        _check_quantile(row.kunder, kunder_b, f"float equivalence n={n} kunder", p)
        p.equal(row.gap0, abs(row.h0_rate - row.kbar), f"float equivalence n={n} gap0")
        p.equal(row.gapinf, abs(row.hinf_rate - row.kunder), f"float equivalence n={n} gapinf")
        _check_entropy_order(row.h0_rate, row.hinf_rate, delta, n, p)
    return p


# --------------------------------------------------------------------------
# constructions


def _seqs(raw) -> tuple:
    return tuple(tuple(s) for s in raw)


def _check_alphabet(seqs, m: int, n: int, what: str, p: _Problems) -> None:
    p.true(
        all(len(s) == n and all(isinstance(x, int) and 0 <= x < m for x in s) for s in seqs),
        f"{what}: a label is not a length-{n} sequence over {m} symbols",
    )


def _check_resolve_json(path, weights, n, levels: _Levels) -> list[str]:
    p = _Problems()
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    M = obj["M"]
    image = [(tuple(e["sequence"]), e["count"]) for e in obj["image"]]
    _check_alphabet([s for s, _ in image], len(weights), n, "resolve image", p)
    p.equal(sum(c for _, c in image), M, "resolve counts sum")
    p.true(all(c >= 1 for _, c in image), "resolve: a count below 1")
    p.equal(len({s for s, _ in image}), len(image), "resolve distinct image labels")
    div = ref.resolve_divergence(weights, n, M, image)
    p.equal(Fraction(obj["achieved_exact"]), div, f"resolve n={n} exact divergence")
    p.equal(obj["achieved"], float(div), f"resolve n={n} divergence")
    p.true(float(div) <= obj["bound"] + BOUND_ATOL, f"resolve n={n}: {float(div)} above bound {obj['bound']}")
    p.equal(obj["b_size"], ref.max_set_size(levels(weights, n), D), f"resolve n={n} |B|")
    return p


def _check_extract_json(path, weights, n, levels: _Levels) -> list[str]:
    p = _Problems()
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    bins = [_seqs(b) for b in obj["bins"]]
    m = len(weights)
    flat = [s for b in bins for s in b]
    _check_alphabet(flat, m, n, "extract bins", p)
    p.true(len(flat) == m ** n and len(set(flat)) == m ** n, f"extract n={n}: bins do not partition X^n")
    p.equal(len(bins), obj["M"], "extract bin count")
    div = ref.extract_divergence(weights, n, bins)
    p.equal(Fraction(obj["achieved_exact"]), div, f"extract n={n} exact divergence")
    p.equal(obj["achieved"], float(div), f"extract n={n} divergence")
    p.true(float(div) <= obj["bound"] + BOUND_ATOL, f"extract n={n}: {float(div)} above bound {obj['bound']}")
    lv = levels(weights, n)
    beta = ref.beta0(lv, D)
    p.equal(obj["beta0"], float(beta), f"extract n={n} beta0")
    p.equal(obj["A_n"], float(ref.clipped_mass(lv, beta)), f"extract n={n} A_n")
    denom = sum(weights) ** n
    induced = [
        float(Fraction(sum(ref.sequence_numerator(weights, s) for s in b), denom)) for b in bins
    ]
    p.equal(obj["induced"], induced, f"extract n={n} induced masses")
    return p


def _load_map(path: str, kind: str, base, n: int):
    """The emitted map as the object the library's converse checks read."""
    import smoothgen as sg

    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    M = obj["M"]
    if kind == "resolve":
        counts = {tuple(e["sequence"]): e["count"] for e in obj["image"]}
        labels = tuple(itertools.product(base.labels, repeat=n))
        induced = sg.FiniteDistribution(
            labels=labels, masses=tuple(Fraction(counts.get(lab, 0), M) for lab in labels)
        )
        return types.SimpleNamespace(M=M, induced=induced), obj
    bins = tuple(_seqs(b) for b in obj["bins"])
    return types.SimpleNamespace(M=M, bins=bins), obj


def _claim(achieved: float) -> float:
    # At finite n a map may overshoot its target by its certified slack,
    # so the converse is asked about what the map achieved.
    return max(float(D), achieved + 1e-9)


def _converse_job(jobs: list[Job], kind: str, build_job: str, base, n: int, load) -> None:
    import smoothgen as sg

    f = sg.half_variational()
    if kind == "resolve":
        call = lambda prep: sg.converse_check(prep[0], sg.iid_power(base, n), f)
    else:
        call = lambda prep: sg.intrinsic_converse_check(
            prep[0], sg.iid_power(base, n), f, _claim(prep[1]), 0.0)
    jobs.append(Job(
        name=f"api converse {build_job}",
        prepare=load,
        call=call,
        check=lambda res: [] if res is True else [f"converse rejected {build_job}"],
    ))


def _constructions(jobs: list[Job], out: str, tri_spec: str, tri_weights, tri_masses) -> None:
    import smoothgen as sg

    levels = _Levels(ref.exact_levels)
    flevels = _Levels(ref.float_levels)
    f = sg.half_variational()
    exact_bases = {"bin": sg.bernoulli(Fraction(3, 10)), "tri": sg.make_distribution(list(tri_weights))}
    specs = {"bin": BIN_BUILD[0], "tri": tri_spec}
    weights_of = {"bin": BIN_BUILD[1], "tri": tri_weights}
    plan = (
        ("resolve", "bin", RESOLVE_BIN), ("extract", "bin", EXTRACT_BIN),
        ("resolve", "tri", RESOLVE_TRI), ("extract", "tri", EXTRACT_TRI),
    )
    for kind, tag, cells in plan:
        weights = weights_of[tag]
        for n, gamma in cells:
            path = os.path.join(out, f"{kind}-{tag}-{n}-{gamma}.json")
            target = "--D" if kind == "resolve" else "--Delta"
            argv = [
                kind, "--source", specs[tag], "--n", str(n), "--f", F, target, _fmt(D),
                "--gamma", repr(gamma), "--emit", path,
            ]
            name = f"cli {kind} {tag} n={n} gamma={gamma}"
            checker = _check_resolve_json if kind == "resolve" else _check_extract_json
            jobs.append(Job(
                name=name,
                call=lambda _, argv=argv: _cli(argv),
                check=lambda _, checker=checker, path=path, weights=weights, n=n: checker(
                    path, weights, n, levels),
            ))

            def load(outputs, kind=kind, path=path, base=exact_bases[tag], n=n, name=name):
                if name not in outputs:
                    raise RuntimeError(f"{name} produced no map")
                map_, obj = _load_map(path, kind, base, n)
                return map_, obj["achieved"]

            _converse_job(jobs, kind, name, exact_bases[tag], n, load)

    gamma, ns, d_rates, nus = RATES_GAMMA
    path = os.path.join(out, "rates-intrinsic-gamma.csv")
    argv = [
        "rates", "--kind", "intrinsic", "--source", BIN_BUILD[0], "--f", F, "--D", _fmt(d_rates),
        "--nu", _ladder(_fmt(v) for v in nus), "--n", _ladder(ns), "--gamma", repr(gamma), "--out", path,
    ]
    jobs.append(Job(
        name="cli rates intrinsic --gamma",
        call=lambda _: _cli(argv),
        check=lambda _: _check_rates_gamma(path, levels),
    ))

    float_bases = {"bin": sg.make_distribution(list(FLOAT_BIN_BUILD)), "tri": sg.make_distribution(list(tri_masses))}
    float_masses = {"bin": FLOAT_BIN_BUILD, "tri": tuple(tri_masses)}
    for kind, cells in (("resolve", FLOAT_RESOLVE), ("extract", FLOAT_EXTRACT)):
        for tag, n, gamma in cells:
            base, ms = float_bases[tag], float_masses[tag]
            name = f"api float {kind} {tag} n={n} gamma={gamma}"
            if kind == "resolve":
                call = lambda _, base=base, n=n, gamma=gamma: sg.build_resolvability_map(
                    sg.iid_power(base, n), f, float(D), gamma)
            else:
                call = lambda _, base=base, n=n, gamma=gamma: sg.build_extractor(
                    sg.iid_power(base, n), f, float(D), gamma)
            jobs.append(Job(
                name=name,
                call=call,
                check=lambda res, kind=kind, ms=ms, n=n: _check_float_map(res, kind, ms, flevels(ms, n)),
            ))

            def load(outputs, name=name):
                map_ = outputs[name]
                return map_, float(map_.achieved_divergence)

            _converse_job(jobs, kind, name, base, n, load)


def _check_float_map(res, kind, ms, lv: ref.FloatLevels) -> list[str]:
    p = _Problems()
    n = lv.n
    if kind == "resolve":
        image = list(res.image)
        _check_alphabet([s for s, _ in image], len(ms), n, "float resolve image", p)
        p.equal(sum(c for _, c in image), res.M, "float resolve counts sum")
        # |B| is the covering set of the smooth max entropy at delta = D.
        p.close(math.log(res.params.b_size), ref.float_h_max(lv, float(D)), f"float resolve n={n} log|B|")
        want = ref.float_resolve_divergence(ms, res.M, image)
    else:
        p.close(
            -math.log(res.params.beta0), ref.float_h_min(lv, float(D)), f"float extract n={n} -log beta0"
        )
        flat = [s for b in res.bins for s in b]
        _check_alphabet(flat, len(ms), n, "float extract bins", p)
        p.true(
            len(flat) == len(ms) ** n and len(set(flat)) == len(flat),
            f"float extract n={n}: bins do not partition X^n",
        )
        want = ref.float_extract_divergence(ms, res.bins)
    got = float(res.achieved_divergence)
    p.close(got, want, f"float {kind} n={n} divergence", rtol=FLOAT_ATOL)
    p.true(got <= res.params.bound + FLOAT_ATOL, f"float {kind} n={n}: {got} above bound {res.params.bound}")
    return p


def _check_rates_gamma(path, levels: _Levels) -> list[str]:
    gamma, ns, d_rates, nus = RATES_GAMMA
    p = _Problems()
    rows = _read_csv(path)
    p.equal(rows[0], RATES_HEADER + ["beta0", "A_n"], "rates --gamma header")
    p.equal(len(rows) - 1, len(ns) * len(nus), "rates --gamma row count")
    if p:
        return p
    weights = BIN_BUILD[1]
    for i, n in enumerate(ns):
        for j, nu in enumerate(nus):
            row = rows[1 + i * len(nus) + j]
            lv = levels(weights, n)
            delta = d_rates + nu
            beta = ref.beta0(lv, delta)
            a_n = ref.clipped_mass(lv, beta)
            p.equal(float(row[2]), ref.h_min_value(beta) / n, f"rates --gamma n={n} nu={nu} rate")
            if not all(row[4:]):
                p.append(f"rates --gamma n={n} nu={nu}: construction cells empty")
                continue
            p.equal(float(row[6]), float(beta), f"rates --gamma n={n} nu={nu} beta0")
            p.equal(float(row[7]), float(a_n), f"rates --gamma n={n} nu={nu} A_n")
            M = int(row[5])
            p.true(1 <= M <= a_n / beta, f"rates --gamma n={n} nu={nu}: M={M} outside [1, A_n/beta0]")
            p.true(float(row[4]) >= 0, f"rates --gamma n={n} nu={nu}: negative divergence")
    return p


# --------------------------------------------------------------------------


def build(name: str, seed: int, out: str) -> list[Job]:
    """Draw the seed's inputs, write the source file the CLI reads, list the jobs."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    tri_weights = draw_tri_weights(seed)
    tri_masses = tuple(x / sum(tri_weights) for x in tri_weights)
    tri_spec = os.path.join(out, "tri.json")
    with open(tri_spec, "w", encoding="utf-8") as fh:
        json.dump({"weights": list(tri_weights)}, fh)
    jobs: list[Job] = []
    if name == "exact-rates":
        _exact_rates(jobs, out, tri_spec, tri_weights)
    elif name == "float-rates":
        _float_rates(jobs, tri_masses)
    else:
        _constructions(jobs, out, tri_spec, tri_weights, tri_masses)
    return jobs
