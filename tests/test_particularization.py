"""Both rate sweeps are the smoothers at delta = 1 - f0^{-1}(D + nu), written out.

Each generator's inverse offset form is spelled out here, not taken
from the library, so the sweeps are checked against the particularized
smooth entropies themselves: 1 - D for half-variational and
e-gamma:2, 1 - D/2 for variational, (1 - D)^2 for hellinger,
(1 - D/2)^2 for sq-hellinger and e^{-D} for reverse-KL.  On the exact
lane the comparison is bitwise.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from smoothgen import (
    bernoulli,
    e_gamma,
    half_variational,
    hellinger,
    iid_power,
    ir_rate_formula,
    make_distribution,
    rate_formula,
    reverse_kl,
    smooth_max_entropy,
    smooth_min_entropy,
    sq_hellinger,
    variational,
)

CLOSED_FORMS = [
    (half_variational(), lambda d: 1 - d),
    (e_gamma(2), lambda d: 1 - d),
    (variational(), lambda d: 1 - d / 2),
    (hellinger(), lambda d: (1 - d) ** 2),
    (sq_hellinger(), lambda d: (1 - d / 2) ** 2),
    (reverse_kl(), lambda d: math.exp(-d)),
]
BASES = [bernoulli(Fraction(3, 10)), make_distribution([48, 34, 19]), make_distribution([0.7, 0.3])]
NUS = (0.125, 0.0625)


@pytest.mark.parametrize("base", BASES, ids=["exact-binary", "exact-ternary", "float-binary"])
@pytest.mark.parametrize("f,t_of", CLOSED_FORMS, ids=[f.name for f, _ in CLOSED_FORMS])
def test_rate_sweeps_particularize_to_the_smoothers(base, f, t_of):
    D = Fraction(1, 4) if base.exact else 0.25
    ns = [4, 16]
    covering = rate_formula(base, ns, f, D, nu_ladder=NUS)
    extraction = ir_rate_formula(base, ns, f, D, nu_ladder=NUS)
    for n, cov, ext in zip(ns, covering, extraction):
        view = iid_power(base, n)
        for j, nu in enumerate(NUS):
            level = D + (Fraction(nu) if base.exact else nu)
            t = t_of(level)
            if base.exact and isinstance(t, float):
                # An irrational inverse is taken at its float value, exactly.
                t = Fraction(t)
            delta = 1 - t
            assert cov.first_order[j] == smooth_max_entropy(view, delta).value / n
            assert ext.first_order[j] == smooth_min_entropy(view, delta).value / n
