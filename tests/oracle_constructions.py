"""Frozen per-atom reference for the two constructions.

A copy of the atom-by-atom resolvability and extractor builders, kept
as an independent oracle for the level-wise ones in ``smoothgen``.  It
imports nothing from ``smoothgen``: sources are explicit label and mass
tuples (a product source is passed expanded, in ``itertools.product``
order), generators are read through their ``eval``, ``f_at_zero``,
``c_f``, ``closed_inverse`` and ``name`` attributes, and the extractor's
clipping level beta0 is passed in.  Errors are reported by class name
and message so that no error class has to be imported.
"""

from __future__ import annotations

import math
from fractions import Fraction


class OracleError(Exception):
    """A construction refused its inputs; ``kind`` names the library's error class."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _descending(masses) -> tuple:
    return tuple(sorted(range(len(masses)), key=lambda i: -masses[i]))


def f0_eval(f, t):
    return f.eval(t) + f.c_f * (1 - t)


def f0_at_zero(f):
    return f.f_at_zero + f.c_f


def _inverse(f, D):
    if f.closed_inverse is not None:
        return f.closed_inverse(D)
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f0_eval(f, mid) <= D:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-13:
            break
    return hi


def inverse_level(f, level, exact: bool):
    lvl = Fraction(level) if exact and isinstance(level, float) else level
    t = _inverse(f, lvl)
    if exact and isinstance(t, float):
        t = Fraction(t)
    return t


def f_divergence(f, P_masses, Q_masses):
    """sum_z Q f(P/Q) with the boundary conventions; (value, finite)."""
    total = 0
    for p, q in zip(P_masses, Q_masses):
        if q > 0:
            if p > 0:
                total += q * f.eval(p / q)
            elif f.f_at_zero == math.inf:
                return math.inf, False
            else:
                total += q * f.f_at_zero
        elif p > 0:
            if f.c_f == math.inf:
                return math.inf, False
            if f.c_f != 0:
                total += p * f.c_f
    if total < 0 and total > -1e-12:
        total = 0
    return total, True


def resolve(labels, masses, n, f, D, gamma, M=None):
    """Greedy set B, quantization into multiples of 1/M, absorbing atom.

    Returns (M, image, induced masses, achieved, params) with params a
    tuple in the field order of ``ResolvabilityParams``.
    """
    exact = all(_is_exact(m) for m in masses)
    gamma_f = float(gamma)
    target = inverse_level(f, D, exact)
    order = _descending(masses)
    b_idx = []
    cum = 0
    for i in order:
        b_idx.append(i)
        cum += masses[i]
        if cum >= target:
            break
    else:
        b_idx = [i for i in b_idx if masses[i] > 0]
    if not b_idx:
        raise OracleError("DegenerateSupportError", "construction set is empty")
    pr_b = cum
    b_size = len(b_idx)

    if M is None:
        scale = math.exp(n * gamma_f)
        if not math.isfinite(scale):
            raise OracleError(
                "OverflowGuardError", f"e^(n*gamma) overflows at n={n}, gamma={gamma_f}"
            )
        M = math.ceil(Fraction(scale) * b_size)
        m_from_formula = True
    else:
        m_from_formula = False

    threshold = Fraction(1, M) if exact else 1.0 / M
    selected = []
    for i in b_idx:
        pbar = masses[i] / pr_b
        if pbar >= threshold:
            selected.append((pbar, i))
    if not selected:
        raise OracleError(
            "DegenerateSupportError",
            f"no conditional mass reaches 1/M = 1/{M}; M is too small for this set",
        )
    selected.sort(key=lambda t: (t[0], t[1]))

    image = []
    assigned = 0
    for j, (pbar, i) in enumerate(selected):
        if j < len(selected) - 1:
            k = math.floor(M * pbar)
            if k < 1:
                raise OracleError(
                    "DegenerateSupportError",
                    "quantization stopped early: a selected atom got no seed values",
                )
        else:
            k = M - assigned
            if k < 1:
                raise OracleError(
                    "DegenerateSupportError",
                    "quantization overflow: nothing left for the absorbing atom",
                )
            if exact and k < M * pbar:
                raise OracleError(
                    "DegenerateSupportError",
                    "absorbing atom received less than its conditional share",
                )
        assigned += k
        image.append((labels[i], k))

    by_label = dict(image)
    induced = tuple(Fraction(by_label.get(lab, 0), M) for lab in labels)
    achieved = f_divergence(f, masses, induced)

    pbar_star = float(selected[-1][0])
    ptilde_star = image[-1][1] / M
    pr_b_f = min(float(pr_b), 1.0)
    u = max(pbar_star + math.exp(-n * gamma_f), ptilde_star)
    bound = (1.0 - ptilde_star) * float(f0_eval(f, pr_b_f)) + u * float(
        f0_eval(f, pbar_star * pr_b_f / u)
    )
    params = (
        f.name, float(D), gamma_f, n, pr_b_f, b_size, m_from_formula,
        bound, max(0.0, bound - float(D)), pbar_star, float(selected[0][0]),
    )
    return M, tuple(image), induced, achieved, params


def fill_bins(atoms, zeros, M, cap):
    """First-fit over descending masses; the last bin takes the rest."""
    bins = []
    remaining = list(atoms)
    for _ in range(M - 1):
        if not remaining:
            raise OracleError(
                "DegenerateSupportError", "ran out of positive atoms before the last bin"
            )
        cur = []
        cur_mass = 0
        kept = []
        smallest = remaining[-1][0]
        for j, (mass, pos, lab) in enumerate(remaining):
            if cur_mass + smallest > cap:
                kept.extend(remaining[j:])
                break
            if cur_mass + mass <= cap:
                cur.append(lab)
                cur_mass = cur_mass + mass
            else:
                kept.append((mass, pos, lab))
        if not cur:
            raise OracleError(
                "DegenerateSupportError",
                "an atom alone exceeds 1/M; M is too large for this source",
            )
        remaining = kept
        bins.append(cur)
    last = [lab for _, _, lab in remaining] + list(zeros)
    if not last:
        raise OracleError("DegenerateSupportError", "nothing left for the last bin")
    bins.append(last)
    return bins


def extract(labels, masses, n, f, beta0, Delta, gamma, M=None):
    """Clip at beta0, renormalize by A_n, first-fit into M bins.

    Returns (M, bins, induced masses, achieved, (beta0, a_n, modified
    masses), params) with params in the field order of ``ExtractorParams``.
    """
    exact = all(_is_exact(m) for m in masses)
    gamma_f = float(gamma)
    if beta0 == 0:
        raise OracleError(
            "OverflowGuardError", "clipping level underflowed; source is too large for floats"
        )
    if exact and not isinstance(beta0, Fraction):
        beta0 = Fraction(beta0)
    a_n = 1 - sum((m - beta0 for m in masses if m > beta0), start=beta0 * 0)

    if M is None:
        shrink = math.exp(-n * gamma_f / 2.0)
        m_real = Fraction(a_n) / Fraction(beta0) * Fraction(shrink)
        M = math.floor(m_real)
        if M < 1:
            raise OracleError(
                "MTooSmallError",
                f"(A_n/beta0)*e^(-n*gamma/2) = {float(m_real):.6g} admits no M >= 1",
            )
        m_from_formula = True
    else:
        m_from_formula = False

    modified = tuple(min(m, beta0) / a_n for m in masses)
    triples = [
        (mass, pos, lab) for pos, (lab, mass) in enumerate(zip(labels, modified)) if mass > 0
    ]
    triples.sort(key=lambda t: (-t[0], t[1]))
    zeros = [lab for lab, mass in zip(labels, modified) if mass == 0]
    cap = Fraction(1, M) if exact else 1.0 / M
    bins = fill_bins(triples, zeros, M, cap)

    source_mass = dict(zip(labels, masses))
    induced = tuple(sum(source_mass[lab] for lab in b) for b in bins)
    uniform = (Fraction(1, M),) * M
    achieved = f_divergence(f, induced, uniform)

    beta0_f = float(beta0)
    a_n_f = float(a_n)
    min_induced = min(float(m) for m in induced)
    if m_from_formula:
        arg = a_n_f * (1.0 - math.exp(-n * gamma_f / 2.0))
    else:
        arg = M * min_induced
    if arg <= 0:
        bound = float(f0_at_zero(f))
    else:
        bound = float(f0_eval(f, min(arg, 1.0)))
    params = (
        f.name, float(Delta), gamma_f, n, beta0_f, a_n_f, m_from_formula,
        bound, max(0.0, bound - float(Delta)), min_induced,
    )
    return M, tuple(tuple(b) for b in bins), induced, achieved, (beta0, a_n, modified), params


def _pair_bound(m, M, pr_t, f):
    def ev(x):
        if x <= 0:
            return float(f0_at_zero(f))
        return float(f0_eval(f, x))

    if m >= M:
        return 0.0
    rest = (M - m) / M
    cand = (m / M) * ev(M / m) + rest * ev((1.0 - pr_t) * M / (M - m))
    if pr_t * M >= m:
        alt = (m / M) * ev(pr_t * M / m) + rest * ev((1.0 - pr_t) * M / (M - m))
        cand = max(cand, alt)
    return cand


def _min_over_m(M, m_max, pr_t, f):
    if m_max <= 64:
        return min(_pair_bound(m, M, pr_t, f) for m in range(1, m_max + 1))
    lo, hi = 1, m_max
    while hi - lo > 2:
        third = (hi - lo) // 3
        a, b = lo + third, hi - third
        if _pair_bound(a, M, pr_t, f) <= _pair_bound(b, M, pr_t, f):
            hi = b
        else:
            lo = a
    return min(_pair_bound(m, M, pr_t, f) for m in range(lo, hi + 1))


def divergence_floor(M, masses, f):
    """Lower bound on D_f(output || uniform M) over every M-bin map."""
    best = 0.0
    count = 0
    mass = 0.0
    ordered = [float(masses[i]) for i in _descending(masses)]
    i = 0
    while i < len(ordered):
        level = ordered[i]
        if level <= 0:
            break
        while i < len(ordered) and ordered[i] == level:
            mass += ordered[i]
            count += 1
            i += 1
        m_max = min(M, count)
        if m_max >= M:
            continue
        cand = _min_over_m(M, m_max, min(mass, 1.0), f)
        best = max(best, cand)
    return best
