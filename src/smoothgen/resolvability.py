"""Source-resolvability synthesis and its converse at finite n.

Given a target divergence level D under a generator f (through its
offset form f0), the builder selects the smallest high-probability set
whose mass reaches f0^{-1}(D), conditions the source on it, and
quantizes the conditional masses into integer multiples of 1/M.  The
induced distribution is the law of the mapping applied to a uniform
seed of size M.  Everything the proof chain guarantees per instance is
either validated at construction time or reported as a certified bound;
asymptotic claims are never asserted at finite n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .distributions import FiniteDistribution, ProductSourceView, expand, iid_power
from .errors import (
    AlphabetMismatchError,
    BadParamError,
    DegenerateSupportError,
    OverflowGuardError,
    TargetInfeasibleError,
)
from .fdiv import DivergenceValue, FFunction, OffsetFunction, f_divergence, inverse, offset
from .smooth_entropy import smooth_max_entropy

Number = Union[int, float, Fraction]
Source = Union[FiniteDistribution, ProductSourceView]

__all__ = [
    "ResolvabilityParams",
    "ResolvabilityMap",
    "RateEvaluation",
    "build_resolvability_map",
    "achieved_divergence",
    "converse_check",
    "rate_formula",
]


@dataclass(frozen=True)
class ResolvabilityParams:
    """Construction report attached to a map.

    ``bound`` is the per-instance certified divergence bound assembled
    from the quantization inequalities; ``slack`` is its excess over the
    target, floored at zero.  ``min_selected_modified_mass`` and
    ``pbar_absorbing`` report the conditional-mass extremes of the
    selected atoms, which the asymptotic theory constrains but a single
    instance cannot enforce.
    """

    f_name: str
    D: float
    gamma: float
    n: int
    pr_b: float
    b_size: int
    m_from_formula: bool
    bound: float
    slack: float
    pbar_absorbing: float
    min_selected_modified_mass: float


@dataclass(frozen=True)
class ResolvabilityMap:
    """A synthesized mapping from a uniform seed {1..M} into sequences.

    ``image`` lists (sequence label, pull-back count) for every label
    that receives seed values; ``induced`` is the resulting distribution
    over the full source alphabet, with exact masses count/M.
    """

    M: int
    image: tuple[tuple[object, int], ...]
    induced: FiniteDistribution
    achieved_divergence: DivergenceValue
    params: Optional[ResolvabilityParams] = None

    def __post_init__(self) -> None:
        if self.M < 1:
            raise BadParamError(f"M must be positive, got {self.M}")
        counts = [k for _, k in self.image]
        if any(k < 1 for k in counts):
            raise BadParamError("every image label needs a positive pull-back count")
        if sum(counts) != self.M:
            raise BadParamError(f"pull-back counts sum to {sum(counts)}, not M={self.M}")
        image_labels = {lab for lab, _ in self.image}
        if len(image_labels) != len(self.image):
            raise BadParamError("image labels must be distinct")
        by_label = dict(self.image)
        for lab, mass in self.induced.atoms:
            expected = Fraction(by_label.get(lab, 0), self.M)
            if mass != expected:
                raise BadParamError(
                    f"induced mass at {lab!r} is {mass!r}, expected {expected}"
                )


def _as_distribution(source: Source, max_atoms: int = 1 << 20) -> tuple[FiniteDistribution, int]:
    if isinstance(source, ProductSourceView):
        return expand(source, max_atoms=max_atoms), source.n
    if isinstance(source, FiniteDistribution):
        return source, 1
    raise BadParamError(f"unsupported source type {type(source).__name__}")


def _inverse_level(f0: OffsetFunction, level: Number, exact: bool) -> Number:
    """f0^{-1}(level), coerced to Fraction when exact mass compares follow."""
    lvl = Fraction(level) if exact and isinstance(level, float) else level
    t = inverse(f0, lvl)
    if exact and isinstance(t, float):
        t = Fraction(t)
    return t


def build_resolvability_map(
    source: Source,
    f: FFunction,
    D: Number,
    gamma: float,
    M: Optional[int] = None,
    max_atoms: int = 1 << 20,
) -> ResolvabilityMap:
    """Synthesize the quantization mapping for divergence target D.

    M defaults to ceil(|B| * e^{n*gamma}) where B is the greedy covering
    set of mass f0^{-1}(D); pass M explicitly to pin a different size
    (the smallest spec-compliant sizes are unreachable by the formula
    because gamma must stay positive).  The absorbing atom is the
    largest selected conditional mass; ties go to label order.
    """
    f0 = offset(f)
    if D < 0:
        raise BadParamError(f"divergence target must be nonnegative, got {D}")
    if not D < f0.f_at_zero:
        raise TargetInfeasibleError(f"target {D} not below f0(0) = {f0.f_at_zero}")
    gamma_f = float(gamma)
    if not gamma_f > 0:
        raise BadParamError(f"gamma must be positive, got {gamma}")
    dist, n = _as_distribution(source, max_atoms)

    target = _inverse_level(f0, D, dist.exact)
    order = dist.descending()
    b_idx: list[int] = []
    cum: Number = 0
    for i in order:
        b_idx.append(i)
        cum += dist.masses[i]
        if cum >= target:
            break
    else:
        b_idx = [i for i in b_idx if dist.masses[i] > 0]
    if not b_idx:
        raise DegenerateSupportError("construction set is empty")
    pr_b = cum
    b_size = len(b_idx)

    if M is None:
        scale = math.exp(n * gamma_f)
        if not math.isfinite(scale):
            raise OverflowGuardError(f"e^(n*gamma) overflows at n={n}, gamma={gamma_f}")
        M = math.ceil(Fraction(scale) * b_size)
        m_from_formula = True
    else:
        if not isinstance(M, int) or M < 1:
            raise BadParamError(f"M override must be a positive integer, got {M!r}")
        m_from_formula = False

    threshold: Number = Fraction(1, M) if dist.exact else 1.0 / M
    selected = []
    for i in b_idx:
        pbar = dist.masses[i] / pr_b
        if pbar >= threshold:
            selected.append((pbar, i))
    if not selected:
        raise DegenerateSupportError(
            f"no conditional mass reaches 1/M = 1/{M}; M is too small for this set"
        )
    selected.sort(key=lambda t: (t[0], t[1]))

    image: list[tuple[object, int]] = []
    assigned = 0
    for j, (pbar, i) in enumerate(selected):
        if j < len(selected) - 1:
            k = math.floor(M * pbar)
            if k < 1:
                raise DegenerateSupportError(
                    "quantization stopped early: a selected atom got no seed values"
                )
        else:
            k = M - assigned
            if k < 1:
                raise DegenerateSupportError(
                    "quantization overflow: nothing left for the absorbing atom"
                )
            if dist.exact and k < M * pbar:
                raise DegenerateSupportError(
                    "absorbing atom received less than its conditional share"
                )
        assigned += k
        image.append((dist.labels[i], k))

    by_label = {lab: k for lab, k in image}
    induced = FiniteDistribution(
        labels=dist.labels,
        masses=tuple(Fraction(by_label.get(lab, 0), M) for lab in dist.labels),
    )
    achieved = f_divergence(f, dist, induced)

    pbar_star = float(selected[-1][0])
    ptilde_star = image[-1][1] / M
    pr_b_f = min(float(pr_b), 1.0)
    u = max(pbar_star + math.exp(-n * gamma_f), ptilde_star)
    bound = (1.0 - ptilde_star) * float(f0.eval(pr_b_f)) + u * float(
        f0.eval(pbar_star * pr_b_f / u)
    )
    params = ResolvabilityParams(
        f_name=f.name,
        D=float(D),
        gamma=gamma_f,
        n=n,
        pr_b=pr_b_f,
        b_size=b_size,
        m_from_formula=m_from_formula,
        bound=bound,
        slack=max(0.0, bound - float(D)),
        pbar_absorbing=pbar_star,
        min_selected_modified_mass=float(selected[0][0]),
    )
    return ResolvabilityMap(
        M=M,
        image=tuple(image),
        induced=induced,
        achieved_divergence=achieved,
        params=params,
    )


def achieved_divergence(map_: ResolvabilityMap, source: Source, f: FFunction) -> DivergenceValue:
    """D_f(source || induced), source first, boundary conventions applied.

    Atoms outside the image contribute their mass times c_f; with an
    unbounded generator that flags the value infinite.
    """
    dist, _ = _as_distribution(source)
    if dist.labels != map_.induced.labels:
        raise AlphabetMismatchError("mapping was built over a different alphabet")
    return f_divergence(f, dist, map_.induced)


def converse_check(map_, source: Source, f: FFunction, D: Optional[Number] = None) -> bool:
    """Verify log M >= H0(1 - f0^{-1}(D) | X^n) - 1e-9.

    ``map_`` is anything exposing ``M`` and ``induced``.  When D is
    omitted the measured divergence of the mapping is used, so the
    precondition (divergence at most D) holds by construction; an
    explicit D below the measured value is rejected.  Targets at or
    above f0(0) make every M compliant.

    A float-valued D (an irrational divergence has no exact lane) gets
    its inverted level shaved by 1e-12 relative before smoothing.  The
    greedy count moves in whole steps, so without the shave a mapping
    sitting exactly on the bound can trip it by one ULP of roundtrip
    error; any real violation dwarfs the shave.
    """
    f0 = offset(f)
    measured = achieved_divergence(map_, source, f)
    if D is None:
        if not measured.finite:
            return True
        D = measured.value
    elif not measured.finite or measured.value > D + 1e-12:
        raise BadParamError(
            f"mapping achieves {float(measured)}, above the claimed target {D}"
        )
    if not D < f0.f_at_zero:
        return True
    t = _inverse_level(f0, D, source.exact)
    if isinstance(D, float) and t > 0:
        t = t * (1 - (Fraction(1, 10 ** 12) if source.exact else 1e-12))
    h0 = smooth_max_entropy(source, 1 - t)
    return math.log(map_.M) >= h0.value - 1e-9


@dataclass(frozen=True)
class RateEvaluation:
    """Per-n finite forms of the optimum first and second order rates.

    ``first_order[j]`` evaluates the smoothed entropy at divergence
    budget D + nu_j, scaled by 1/n (the covering entropy for synthesis
    rates, the min entropy for extraction rates).  ``first_order_alt``
    moves the slack outside the inversion, smoothing at level
    1 - f0^{-1}(D) + nu_j instead; NaN where that level reaches 1.
    ``second_order`` replaces the 1/n scaling by (H - n*R)/sqrt(n)
    against a reference rate R.
    """

    n: int
    nu_ladder: tuple[float, ...]
    first_order: tuple[float, ...]
    first_order_alt: tuple[float, ...]
    second_order: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise BadParamError("n must be positive")
        if not (
            len(self.nu_ladder) == len(self.first_order) == len(self.first_order_alt)
        ):
            raise BadParamError("ladder and value lengths differ")
        if self.second_order is not None and len(self.second_order) != len(self.nu_ladder):
            raise BadParamError("ladder and second-order lengths differ")


def _rate_sweep(
    base: FiniteDistribution,
    n_list: Sequence[int],
    f: FFunction,
    D: Number,
    nu_ladder: Sequence[float],
    R: Optional[float],
    smoother: Callable,
    rising: bool,
    on_view: Optional[Callable[[ProductSourceView], object]] = None,
) -> list[RateEvaluation]:
    """Smoothed-entropy rates along an n list, at budget D + nu per rung.

    Both optimum rates share this sweep: ``smoother`` is the smooth max
    entropy for synthesis and the smooth min entropy for extraction.
    ``rising`` says the decreasing ladder must produce nondecreasing
    values (covering rates fall as nu grows); otherwise nonincreasing.
    ``on_view``, if given, is called with each n's view, so that a caller
    can build maps on the views the sweep built.
    """
    f0 = offset(f)
    nus = tuple(float(v) for v in nu_ladder)
    if not nus or any(v <= 0 for v in nus):
        raise BadParamError("nu ladder must be positive")
    if any(b >= a for a, b in zip(nus, nus[1:])):
        raise BadParamError("nu ladder must be strictly decreasing")
    out: list[RateEvaluation] = []
    exact = base.exact
    d_exact = Fraction(D) if exact and isinstance(D, float) else D
    t_at_d = inverse(f0, d_exact)
    for n in n_list:
        view = iid_power(base, int(n))
        if on_view is not None:
            on_view(view)
        firsts: list[float] = []
        alts: list[float] = []
        seconds: list[float] = []
        for nu in nus:
            lvl = d_exact + (Fraction(nu) if exact else nu)
            t = _inverse_level(f0, lvl, exact)
            h = smoother(view, 1 - t)
            firsts.append(h.value / n)
            if R is not None:
                seconds.append((h.value - n * R) / math.sqrt(n))
            delta_alt = 1 - t_at_d + (
                Fraction(nu) if exact and isinstance(t_at_d, Fraction) else nu
            )
            if delta_alt < 1:
                alts.append(smoother(view, delta_alt).value / n)
            else:
                alts.append(math.nan)
        for a, b in zip(firsts, firsts[1:]):
            if rising and b < a - 1e-12:
                raise BadParamError("first-order values must be nonincreasing in nu")
            if not rising and b > a + 1e-12:
                raise BadParamError("first-order values must be nondecreasing in nu")
        out.append(
            RateEvaluation(
                n=int(n),
                nu_ladder=nus,
                first_order=tuple(firsts),
                first_order_alt=tuple(alts),
                second_order=tuple(seconds) if R is not None else None,
            )
        )
    return out


def rate_formula(
    base: FiniteDistribution,
    n_list: Sequence[int],
    f: FFunction,
    D: Number,
    nu_ladder: Sequence[float] = (0.1, 0.01, 0.001),
    R: Optional[float] = None,
) -> list[RateEvaluation]:
    """Evaluate the finite-n resolvability rate along an n list.

    The nu ladder must be positive and strictly decreasing; targets
    D + nu outside [0, f0(0)) propagate OutOfRange from the inversion.
    """
    return _rate_sweep(base, n_list, f, D, nu_ladder, R, smooth_max_entropy, rising=True)
