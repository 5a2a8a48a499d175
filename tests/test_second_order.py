"""Second-order band and duality of the smooth entropies on i.i.d. sources.

For an i.i.d. source with entropy H and varentropy V (in nats),

    H_max^δ(Pⁿ) = nH − √(nV)·Φ⁻¹(δ) + O(log n),
    H_min^δ(Pⁿ) = nH + √(nV)·Φ⁻¹(δ) + O(log n)

(Strassen 1962; Hayashi 2008, IEEE TIT 54(10); Tomamichel & Hayashi
2013, IEEE TIT 59(11)).  Why log n bounds the residual: Strassen's
expansion puts H_max^δ's third-order term at −½ log n + O(1)
(Kontoyiannis & Verdú 2014, IEEE TIT 60(2)), so |residual| ≤ log n
leaves ½ log n for the O(1) term at these n.  The same bound is taken
for H_min^δ and for the duality gap (H_max^δ + H_min^δ)/2 − nH, where
the √n terms cancel.  The bound comes from the theory and is not to be
widened to make a test pass; a miss is a finding.  These are oracles
built from the base's H, V and ``statistics.NormalDist`` alone, with
no code shared with the smoothers.

The spectrum quantiles have a band of their own.  With c the mass
threshold, n·kbar is the c-quantile of the self-information sum and
n·kunder its (1 − c)-quantile, so they sit near nH ± √(nV)·Φ⁻¹(c).  The
Berry–Esseen theorem bounds the sum's distribution function within
ε_n = C·ρ/(V^{3/2}·√n) of the normal one, where ρ = E|−log P(X) − H|³
and C = 0.4748 (Shevtsova 2011, arXiv:1111.6554); it holds for the
left limits too, so a quantile lies between the normal quantiles at
c − ε_n and c + ε_n.  Where c ± ε_n leaves (0, 1) that side of the band
is open.
"""

from __future__ import annotations

import math
from fractions import Fraction
from statistics import NormalDist

import pytest

from smoothgen import (
    half_variational,
    iid_power,
    inverse,
    make_distribution,
    offset,
    rate_formula,
    smooth_max_entropy,
    smooth_min_entropy,
    spectrum_rate,
)

DELTAS = (0.05, 0.2)
# Shevtsova's constant in sup |F_n − Φ| ≤ C·ρ/(V^{3/2}·√n), i.i.d. summands.
BERRY_ESSEEN_C = 0.4748
BINARY = [0.89, 0.11]
TERNARY = [0.5, 0.3, 0.2]
# (weights, block lengths): both lanes, the exact lane at smaller n.
CASES = [
    (BINARY, [2 ** k for k in range(6, 15)]),
    (TERNARY, [2 ** k for k in range(4, 10)]),
    ([Fraction(89, 100), Fraction(11, 100)], [2 ** k for k in range(6, 12)]),
    ([Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)], [16, 32, 64, 128]),
]


def _entropy_and_varentropy(weights) -> tuple[float, float]:
    p = [float(w) for w in weights]
    h = -math.fsum(x * math.log(x) for x in p)
    return h, math.fsum(x * math.log(x) ** 2 for x in p) - h * h


@pytest.mark.parametrize("weights,ns", CASES, ids=["float2", "float3", "exact2", "exact3"])
def test_smooth_entropies_lie_in_the_second_order_band(weights, ns):
    base = make_distribution(weights)
    h, v = _entropy_and_varentropy(weights)
    for n in ns:
        view = iid_power(base, n)
        bound = math.log(n)
        for delta in DELTAS:
            spread = math.sqrt(n * v) * NormalDist().inv_cdf(delta)
            h_max = smooth_max_entropy(view, delta).value
            h_min = smooth_min_entropy(view, delta).value
            assert abs(h_max - (n * h - spread)) <= bound, (n, delta, h_max)
            assert abs(h_min - (n * h + spread)) <= bound, (n, delta, h_min)
            assert abs((h_max + h_min) / 2 - n * h) <= bound, (n, delta, h_max, h_min)


@pytest.mark.parametrize("n", [4096, 8192])
def test_the_exact_binary_band_holds_past_2048(n):
    # An exact view is checked by one numerator carry, with no product per
    # class, so the exact binary ladder reaches n = 8192.
    weights, _ = CASES[2]
    test_smooth_entropies_lie_in_the_second_order_band(weights, [n])


@pytest.mark.parametrize("weights,ns", CASES[:2], ids=["float2", "float3"])
def test_second_order_column_at_the_entropy_rate(weights, ns):
    # Half-variational inverts to 1 − D, so the rung D + ν = δ smooths at δ.
    f = half_variational()
    h, v = _entropy_and_varentropy(weights)
    base = make_distribution(weights)
    for delta in DELTAS:
        level = 1 - inverse(offset(f), delta / 2 + delta / 2)
        expected = -math.sqrt(v) * NormalDist().inv_cdf(level)
        for row in rate_formula(base, ns, f, delta / 2, (delta / 2,), R=h):
            (got,) = row.second_order
            assert abs(got - expected) <= math.log(row.n) / math.sqrt(row.n), (row.n, delta, got)


@pytest.mark.parametrize("weights,ns", CASES[:2], ids=["float2", "float3"])
def test_spectrum_quantiles_lie_in_the_berry_esseen_band(weights, ns):
    # Half-variational inverts to 1 − ε, so the threshold at ε = δ is c = 1 − δ.
    f = half_variational()
    h, v = _entropy_and_varentropy(weights)
    rho = math.fsum(float(w) * abs(-math.log(w) - h) ** 3 for w in weights)
    z = NormalDist().inv_cdf
    base = make_distribution(weights)
    for n in ns:
        view = iid_power(base, n)
        eps_n = BERRY_ESSEEN_C * rho / (v ** 1.5 * math.sqrt(n))
        for delta in DELTAS:
            c = float(inverse(offset(f), delta))
            below = z(c - eps_n) if c - eps_n > 0 else -math.inf
            above = z(c + eps_n) if c + eps_n < 1 else math.inf
            sr = spectrum_rate(view, f, delta)
            scale = math.sqrt(n * v)
            assert n * h + scale * below <= n * sr.kbar <= n * h + scale * above, (n, delta, sr.kbar)
            assert n * h - scale * above <= n * sr.kunder <= n * h - scale * below, (n, delta, sr.kunder)
