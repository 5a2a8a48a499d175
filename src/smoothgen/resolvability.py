"""Source-resolvability synthesis and its converse at finite n.

Given a target divergence level D under a generator f (through its
offset form f0), the builder selects the smallest high-probability set
whose mass reaches f0^{-1}(D), conditions the source on it, and
quantizes the conditional masses into integer multiples of 1/M.  The
induced distribution is the law of the mapping applied to a uniform
seed of size M.  Everything the proof chain guarantees per instance is
either validated at construction time or reported as a certified bound;
asymptotic claims are never asserted at finite n.

The construction is level-wise.  Atoms of equal probability are
interchangeable, so it reads only the source's :class:`Levels` table:
the set is whole levels plus the first atoms, in label order, of the
level where it reaches its mass, and each level gets one quantized
count floor(M * p / Pr(B)).  On exact sources B is the covering set of
the smooth max entropy H_max at 1 - f0^{-1}(D), read from the table's
prefix-mass profile, and the map stays in integers over the table's
denominator.  Labels are enumerated only when ``image`` or
``induced`` is read; a view of more than 2^20 atoms, too many to
enumerate, is refused at build time.  A float view's level
probabilities are the exact products of its base masses, rounded once.
Its maps can differ from those of the same source expanded atom by
atom, whose float products can round the atoms of one type class
apart: in which atoms of a level go where, and in the last bits of the
achieved divergence.
"""

from __future__ import annotations

import bisect
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

from .distributions import (
    FiniteDistribution,
    ProductSourceView,
    _atom_levels,
    _check_cap,
    _construction_levels,
    _group_of,
    _labels,
    _LazyFields,
    _lazily,
    _runs,
    iid_power,
)
from .errors import (
    AlphabetMismatchError,
    BadParamError,
    DegenerateSupportError,
    OverflowGuardError,
    TargetInfeasibleError,
)
from .fdiv import (
    DivergenceValue,
    FFunction,
    _check_finite,
    _divergence_sum,
    _inverse_level,
    f_divergence,
    inverse,
    offset,
)
from .smooth_entropy import _profile, _smooth_values, smooth_max_entropy

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
class ResolvabilityMap(_LazyFields):
    """A synthesized mapping from a uniform seed {1..M} into sequences.

    ``image`` lists (sequence label, pull-back count) for every label
    that receives seed values; ``induced`` is the resulting distribution
    over the full source alphabet, with exact masses count/M.  A built
    map makes both on first read.
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


def _same_source(a: Source, b: Source) -> bool:
    """Whether two sources are the same product source (a view of one base at one n)."""
    if a is b:
        return True
    if isinstance(a, ProductSourceView) and isinstance(b, ProductSourceView):
        return a.n == b.n and a.base == b.base
    return False


def _level_divergence(f: FFunction, levels, terms, in_image: Sequence[int]) -> DivergenceValue:
    """D_f(P || Q) from groups of atoms that share a level of P and a mass of Q.

    ``terms`` holds (count, level, q) with q > 0, level -1 for atoms of
    zero P-mass; ``in_image[j]`` counts level j's atoms among them, and
    the rest of each level has q = 0.  The groups, then all of the mass
    outside the image as one last group, go to the counted sum of
    :mod:`smoothgen.fdiv`.  On an exact source with a rational-valued
    generator the value equals the atom-by-atom :func:`f_divergence`;
    with a float-valued one it is summed per group.
    """
    exact = levels.exact

    def mass(j: int) -> Number:
        if j < 0:
            return 0
        return Fraction(levels.probs[j], levels.denominator) if exact else levels.probs[j]

    groups = [(count, mass(j), q) for count, j, q in terms]
    outside = [count - k for count, k in zip(levels.counts, in_image)]
    if any(outside):
        weight = sum(k * p for k, p in zip(outside, levels.probs))
        groups.append((1, Fraction(weight, levels.denominator) if exact else weight, 0))
    return _divergence_sum(f, groups)


def _greedy_set(levels, target: Number) -> tuple[list[int], Number]:
    """Atoms the covering set B takes from each level, and its mass.

    Most probable levels first: whole levels, then the first atoms of
    the level where the mass reaches ``target``; every level if it never
    does.  On exact levels B is the witness of H_max at 1 - target,
    split at the profile's level bounds, and its mass is a numerator over
    the table's denominator; float levels add one atom at a time, as an
    atom-by-atom scan would.
    """
    if levels.exact:
        profile = _profile(levels)
        size = profile.max_entropy(1 - Fraction(target))[1].set_size
        j = bisect.bisect_right(profile.whole, size) - 1
        taken, cum = list(levels.counts[:j]), profile.cum[j]
        extra = size - profile.whole[j]
        if extra:
            taken.append(extra)
            cum += extra * levels.probs[j]
        return taken, cum
    taken = []
    cum_f: Number = 0
    for p, count in zip(levels.probs, levels.counts):
        j = 0
        while j < count:
            cum_f += p
            j += 1
            if cum_f >= target:
                break
        taken.append(j)
        if cum_f >= target:
            break
    return taken, cum_f


class _Quantization:
    """A resolvability map by levels: which atoms receive seed values, and how many.

    The image holds the first ``taken[j]`` atoms, in label order, of each
    selected level j.  Group g runs over the selected levels
    ``bounds[g]:bounds[g+1]``; a group joins neighbouring levels of equal
    conditional mass (only float rounding makes one span two levels)
    and orders its atoms by label.  Every image atom of group g gets
    ``seeds[g]`` seed values except the absorbing atom, the last one of
    group 0, which gets ``absorbing``.
    """

    def __init__(self, source: Source, levels, M: int, taken, bounds, seeds, absorbing: int) -> None:
        self.source = source
        self.levels = levels
        self.M = M
        self.taken = taken
        self.bounds = bounds
        self.seeds = seeds
        self.absorbing = absorbing
        self.group_of = _group_of(bounds)

    def _members(self) -> list[list[tuple[object, int]]]:
        """(label, level) of each group's image atoms, in label order."""
        left = list(self.taken)
        members: list[list[tuple[object, int]]] = [[] for _ in self.seeds]
        for lab, j in zip(_labels(self.source), _atom_levels(self.source)):
            if 0 <= j < len(left) and left[j]:
                left[j] -= 1
                members[self.group_of[j]].append((lab, j))
        return members

    @cached_property
    def image(self) -> tuple[tuple[object, int], ...]:
        """Least conditional mass first, label order within a group."""
        members = self._members()
        image = [(lab, self.seeds[g]) for g in reversed(range(len(members))) for lab, _ in members[g]]
        image[-1] = (image[-1][0], self.absorbing)
        return tuple(image)

    @cached_property
    def induced(self) -> FiniteDistribution:
        by_label = dict(self.image)
        labels = tuple(_labels(self.source))
        return FiniteDistribution(
            labels=labels,
            masses=tuple(Fraction(by_label.get(lab, 0), self.M) for lab in labels),
        )

    def divergence(self, f: FFunction) -> DivergenceValue:
        """D_f(source || induced), read off the level table."""
        levels = self.levels
        # The absorbing atom lies in level 0 unless float rounding joined
        # level 0 to the next ones; then its label decides.
        top = 0 if self.bounds[1] == 1 else self._members()[0][-1][1]
        terms = [
            (taken - (j == top), j, Fraction(self.seeds[g], self.M))
            for j, (taken, g) in enumerate(zip(self.taken, self.group_of))
        ]
        terms.append((1, top, Fraction(self.absorbing, self.M)))
        in_image = list(self.taken) + [0] * (len(levels) - len(self.taken))
        return _level_divergence(f, levels, terms, in_image)


def _construction_start(source: Source, f: FFunction, target: Number, gamma: float):
    """The checks both builders open with, and what they read next.

    Refuses a non-finite, negative or infeasible divergence target, a
    non-finite or nonpositive gamma and a view of more than 2^20 atoms,
    in that order; the cap comes before the level table, whose float
    products cost big-integer work at large n.  Returns the offset form
    of f, gamma as a float and the source's construction level table.
    """
    f0 = offset(f)
    _check_finite("divergence target", target)
    if target < 0:
        raise BadParamError(f"divergence target must be nonnegative, got {target}")
    if not target < f0.f_at_zero:
        raise TargetInfeasibleError(f"target {target} not below f0(0) = {f0.f_at_zero}")
    gamma_f = _check_gamma(gamma)
    if isinstance(source, ProductSourceView):
        _check_cap(source.full_alphabet_size)
    return f0, gamma_f, _construction_levels(source)


def _check_gamma(gamma: Number) -> float:
    """gamma as a float, refused unless finite and positive."""
    _check_finite("gamma", gamma)
    if not float(gamma) > 0:
        raise BadParamError(f"gamma must be positive, got {gamma}")
    return float(gamma)


def _check_m_override(M) -> None:
    if not isinstance(M, int) or M < 1:
        raise BadParamError(f"M override must be a positive integer, got {M!r}")


def build_resolvability_map(
    source: Source,
    f: FFunction,
    D: Number,
    gamma: float,
    M: Optional[int] = None,
) -> ResolvabilityMap:
    """Synthesize the quantization mapping for divergence target D.

    M defaults to ceil(|B| * e^{n*gamma}) where B is the greedy covering
    set of mass f0^{-1}(D); pass M explicitly to pin a different size
    (the smallest spec-compliant sizes are unreachable by the formula
    because gamma must stay positive).  The absorbing atom is the
    largest selected conditional mass; ties go to label order.  Views
    of more than 2^20 atoms are refused with TooLargeError.
    """
    f0, gamma_f, levels = _construction_start(source, f, D, gamma)
    n, exact = levels.n, levels.exact

    taken, cum = _greedy_set(levels, _inverse_level(f0, D, exact))
    pr_b = Fraction(cum, levels.denominator) if exact else cum
    b_size = sum(taken)

    m_from_formula = M is None
    if m_from_formula:
        scale = math.exp(n * gamma_f)
        if not math.isfinite(scale):
            raise OverflowGuardError(f"e^(n*gamma) overflows at n={n}, gamma={gamma_f}")
        M = math.ceil(Fraction(scale) * b_size)
    else:
        _check_m_override(M)

    # Conditional masses p / Pr(B), one per level of B; they fall with
    # the level, so the levels reaching 1/M are a prefix.
    probs = levels.probs[: len(taken)]
    pbars = [Fraction(p, cum) for p in probs] if exact else [p / pr_b for p in probs]
    threshold: Number = Fraction(1, M) if exact else 1.0 / M
    sel = sum(1 for pbar in pbars if pbar >= threshold)
    if not sel:
        raise DegenerateSupportError(
            f"no conditional mass reaches 1/M = 1/{M}; M is too small for this set"
        )
    group_pbars, group_atoms, bounds = _runs(pbars[:sel], taken[:sel])
    seeds = [math.floor(M * pbar) for pbar in group_pbars]
    assigned = 0
    for g in reversed(range(len(seeds))):
        atoms = group_atoms[g] - (g == 0)
        if atoms and seeds[g] < 1:
            raise DegenerateSupportError(
                "quantization stopped early: a selected atom got no seed values"
            )
        assigned += atoms * seeds[g]
    absorbing = M - assigned
    if absorbing < 1:
        raise DegenerateSupportError(
            "quantization overflow: nothing left for the absorbing atom"
        )
    if exact and absorbing < M * pbars[0]:
        raise DegenerateSupportError(
            "absorbing atom received less than its conditional share"
        )
    plan = _Quantization(source, levels, M, tuple(taken[:sel]), bounds, seeds, absorbing)
    if isinstance(source, FiniteDistribution):
        # The atoms are at hand: a float sum in label order, as before.
        achieved = f_divergence(f, source, plan.induced)
    else:
        achieved = plan.divergence(f)

    pbar_star = float(pbars[0])
    ptilde_star = absorbing / M
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
        min_selected_modified_mass=float(pbars[sel - 1]),
    )
    return _lazily(
        ResolvabilityMap,
        {"image": lambda: plan.image, "induced": lambda: plan.induced},
        M=M,
        achieved_divergence=achieved,
        params=params,
        _plan=plan,
    )


def _label_divergence(f: FFunction, view: ProductSourceView, induced) -> DivergenceValue:
    """D_f(view || induced) for a map given by labels, grouped by level.

    One pass counts the atoms of each (level, mass).  Exact masses key
    on their integer (numerator, denominator), since a ``Fraction``'s
    hash takes a modular inverse; any other map keys on the mass itself.
    The groups keep the order of their first atoms, so float sums add
    in label order.
    """
    labels = induced.labels
    if len(labels) != view.full_alphabet_size or any(map(operator.ne, labels, _labels(view))):
        raise AlphabetMismatchError("mapping was built over a different alphabet")
    levels = _construction_levels(view)
    masses = induced.masses
    exact = set(map(type, masses)) <= {int, Fraction}
    keys = map(operator.attrgetter("numerator", "denominator"), masses) if exact else masses
    terms = []
    in_image = [0] * len(levels)
    for (j, q), count in Counter(zip(_atom_levels(view), keys)).items():
        if exact:
            q = Fraction(*q)
        if q > 0:
            terms.append((count, j, q))
            if j >= 0:
                in_image[j] += count
    return _level_divergence(f, levels, terms, in_image)


def achieved_divergence(map_: ResolvabilityMap, source: Source, f: FFunction) -> DivergenceValue:
    """D_f(source || induced), source first, boundary conventions applied.

    Atoms outside the image contribute their mass times c_f; with an
    unbounded generator that flags the value infinite.  A map built
    level-wise on this view is measured from the level table; any other
    map over a view is grouped by level from its labels.
    """
    if isinstance(source, ProductSourceView):
        plan = getattr(map_, "_plan", None)
        if plan is not None and _same_source(plan.source, source):
            return plan.divergence(f)
        return _label_divergence(f, source, map_.induced)
    if not isinstance(source, FiniteDistribution):
        raise BadParamError(f"unsupported source type {type(source).__name__}")
    if source.labels != map_.induced.labels:
        raise AlphabetMismatchError("mapping was built over a different alphabet")
    return f_divergence(f, source, map_.induced)


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
    order: str,
    on_view: Optional[Callable[[ProductSourceView], object]] = None,
) -> list[RateEvaluation]:
    """Smoothed-entropy rates along an n list, at budget D + nu per rung.

    Both optimum rates share this sweep: ``order`` "max" smooths the max
    entropy for synthesis, whose values must not fall along the
    decreasing ladder, and "min" the min entropy for extraction, whose
    values must not rise.  Every smoothing level of one n, first-order
    and alternative, is answered from that view's profile in one pass.
    ``on_view``, if given, is called with each n's view, so that a caller
    can build maps on the views the sweep built.
    """
    f0 = offset(f)
    nus = tuple(float(v) for v in nu_ladder)
    _check_finite("divergence target", D)
    _check_finite("nu", *nus)
    _check_finite("R", R)
    if not nus or any(v <= 0 for v in nus):
        raise BadParamError("nu ladder must be positive")
    if any(b >= a for a, b in zip(nus, nus[1:])):
        raise BadParamError("nu ladder must be strictly decreasing")
    out: list[RateEvaluation] = []
    exact = base.exact
    d_exact = Fraction(D) if exact and isinstance(D, float) else D
    t_at_d = inverse(f0, d_exact)
    alts_d = [
        1 - t_at_d + (Fraction(nu) if exact and isinstance(t_at_d, Fraction) else nu)
        for nu in nus
    ]
    # The first-order levels, then the alternative ones below 1: the same for every n.
    deltas = [
        1 - _inverse_level(f0, d_exact + (Fraction(nu) if exact else nu), exact) for nu in nus
    ] + [d for d in alts_d if d < 1]
    for n in n_list:
        view = iid_power(base, int(n))
        if on_view is not None:
            on_view(view)
        hs = _smooth_values(view, order, deltas)
        values = hs[: len(nus)]
        alt_values = iter(hs[len(nus):])
        firsts = [v / n for v in values]
        alts = [next(alt_values) / n if d < 1 else math.nan for d in alts_d]
        for a, b in zip(firsts, firsts[1:]):
            if order == "max" and b < a - 1e-12:
                raise BadParamError("first-order values must be nonincreasing in nu")
            if order == "min" and b > a + 1e-12:
                raise BadParamError("first-order values must be nondecreasing in nu")
        out.append(
            RateEvaluation(
                n=int(n),
                nu_ladder=nus,
                first_order=tuple(firsts),
                first_order_alt=tuple(alts),
                second_order=(
                    tuple((v - n * R) / math.sqrt(n) for v in values) if R is not None else None
                ),
            )
        )
        # Free this view and its profile before the next n's view is built.
        del view
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

    The nu ladder must be positive and strictly decreasing, and a float
    D, nu or R must be finite (BadParamError); finite targets D + nu
    outside [0, f0(0)) propagate OutOfRange from the inversion.

    On an exact base a float ``D`` or nu is read at its binary value,
    ``Fraction(D)``, not at its decimal face value as :func:`bernoulli`
    reads its parameter: ``D=0.1`` is 3602879701896397/2**55.  Pass a
    ``Fraction`` for a decimal target.
    """
    return _rate_sweep(base, n_list, f, D, nu_ladder, R, "max")
