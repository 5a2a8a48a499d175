"""Finite distributions and implicit i.i.d. product views.

Two source representations are used everywhere in this package:

* :class:`FiniteDistribution` — an explicit probability vector over an
  ordered finite alphabet.  Masses are either all exact (``int`` or
  ``Fraction``) or all floats; exact vectors must sum to 1 exactly.
* :class:`ProductSourceView` — the n-fold i.i.d. power of a base
  distribution, compressed into multinomial type classes so that desk
  machines can reach n in the thousands without materializing the
  |base|^n atoms.

A view's type classes (the method of types) come from one iterative
walk over the compositions of n.  The walk emits one row per head, the
classes that share all but their last two coordinates: row (head, m)
stands for the classes (head, j, m - j), j = 0..m, and each class's walk
rank is its lexicographic rank.  A view is its base, n and compositions;
it keeps its classes as parallel columns rather than one object per
class, and derives every other column from them.  Its compositions are
held as s coordinate columns, one per support symbol
(:class:`_Compositions`), expanded from the rows once and gathered
through the sort's order; the derived columns and the class readers read
them where they are, the composition tuples are built only when a reader
asks for an entry, and ``type_classes`` builds :class:`TypeClass` objects
from the columns on first read.  The column routines live in
:mod:`smoothgen.columns`.

Both lanes order, certify and group classes by one column, the log fold
of :func:`_row_logs`, computed once per build from the rows: a row adds
slices of the k log m tables, one C-level pass each.  :func:`iid_power`
sorts the walk ranks by it, ties in walk order; on an exact base every
pair of neighbours whose float gap lies within the fold's proven rounding
bound (:func:`_fold_bound`) is compared exactly by :func:`_exact_compare`,
which cancels the common powers and builds neither probability.  The fold
is gathered with the coordinate columns through the one order and becomes
the view's ``log_probs``.  The view certifies its classes from the row
table and the order alone (:func:`_check_classes`): the rows are the
compositions of n into s - 1 parts and the order is a permutation of the
walk ranks, so every composition of n is a class once.  It certifies
their order with the pair rule of :func:`_certified_runs`, with no count
and no numerator read, and the same pair decisions give its level runs.
By the multinomial theorem the masses of the certified compositions sum
to 1.

Every column past the log fold is filled on demand, only as far as a
read reaches: the multiplicities (:class:`_Multinomials`), and on exact
bases the numerators and the class masses (:class:`_Carried`), each
carried from a neighbouring class by one exact product and division by
small integers.  A numerator read on its own is computed from its
class's composition, and the class masses keep only the carry's
frontier.  The level table shares these columns, so a sweep computes
the counts and masses of the levels it reads, and the probabilities of
the levels it probes, one product each.
Exact masses are read as integers in one place, :func:`_numerators`:
numerators over the least common denominator of the masses.  The
normalisation of exact weights, a distribution's sum check and level
keys, and a view's support weights all use it.  Sequence probabilities
inside a view of an exact base are integer numerators over one common
denominator d^n, where d is that denominator of the base's support
masses; a natural-log float is kept alongside every class so that
large-n computations can stay in log space.  A float view's class
probabilities, as the constructions read them, are the same carry over
its support masses' exact values (integers over a power of two), each
divided once.  Each source builds its :class:`Levels` table of distinct
probability levels once and caches it; when no two classes share a
level the table holds the view's own columns.  The smooth entropies,
the spectrum and the constructions read only that table and the
columns.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .columns import (
    _Carried,
    _certified_runs,
    _check_classes,
    _composition_codes,
    _Compositions,
    _coordinates,
    _descending,
    _exact_compare,
    _fold_bound,
    _gather,
    _is_exact,
    _is_exact_type,
    _log_exact,
    _Multinomials,
    _numerators,
    _ranks,
    _row_logs,
    _rows,
    _RunColumn,
    _Sorted,
)
from .errors import (
    AllZeroError,
    AlphabetMismatchError,
    BadParamError,
    NegativeMassError,
    OverflowGuardError,
    TooLargeError,
)

Number = Union[int, float, Fraction]

# Size caps: atoms a source may enumerate, bits of |base|^n, type classes of a view.
_MAX_ATOMS = 1 << 20
_MAX_BITS = 1 << 20
_MAX_CLASSES = 5_000_000
# Bits an exact prefix-mass profile may hold in one column: levels read times
# the bits of the table's denominator (64 MiB).
_MAX_PROFILE_BITS = 1 << 29
# Every integer below 2^53 converts to a float exactly.
_EXACT_FLOAT_INTS = 1 << 53

__all__ = [
    "FiniteDistribution",
    "TypeClass",
    "ProductSourceView",
    "Levels",
    "make_distribution",
    "uniform_distribution",
    "bernoulli",
    "iid_power",
    "expand",
    "from_json_obj",
    "parse_source",
]


@dataclass(frozen=True)
class FiniteDistribution:
    """An ordered probability vector over an opaque finite alphabet.

    Labels must be hashable and unique.  The vector is exact when every
    mass is an ``int`` or ``Fraction``; exact vectors must sum to one
    exactly, float vectors within 1e-12.  Zero-mass atoms are permitted
    and reported through :attr:`has_zero_mass`.
    """

    labels: tuple
    masses: tuple

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.masses):
            raise BadParamError("labels and masses must have equal length")
        if not self.labels:
            raise BadParamError("a distribution needs at least one atom")
        if len(set(self.labels)) != len(self.labels):
            raise BadParamError("labels must be unique")
        if self.exact:
            # A mass has the sign of its numerator.  Both checks are C-level
            # passes that hold no list the size of the masses.
            if min(map(operator.attrgetter("numerator"), self.masses)) < 0:
                m = next(m for m in self.masses if m.numerator < 0)
                raise NegativeMassError(f"mass {m!r} is negative")
            nums, den = _numerators(self.masses)
            if sum(nums) != den:
                raise BadParamError(f"exact masses must sum to 1, got {sum(self.masses)!r}")
            return
        for m in self.masses:
            if m < 0:
                raise NegativeMassError(f"mass {m!r} is negative")
        # A plain running sum of 2^17 float product masses drifts past 1e-12.
        total = math.fsum(self.masses)
        if abs(total - 1) > 1e-12:
            raise BadParamError(f"masses sum to {total!r}, outside 1 ± 1e-12")

    @cached_property
    def exact(self) -> bool:
        # Exactness is a property of each mass's type: check each type once.
        return all(_is_exact_type(t) for t in set(map(type, self.masses)))

    @property
    def atoms(self) -> tuple[tuple[object, Number], ...]:
        return tuple(zip(self.labels, self.masses))

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def support_size(self) -> int:
        return sum(1 for m in self.masses if m > 0)

    @property
    def has_zero_mass(self) -> bool:
        return self.support_size < self.size

    def descending(self) -> tuple[int, ...]:
        """Atom indices sorted by mass descending, ties in label order."""
        if self.exact:
            # Integer numerators compare at C speed; Fractions would not.
            key = list(_numerators(self.masses)[0]).__getitem__
            return tuple(sorted(range(self.size), key=key, reverse=True))
        return tuple(sorted(range(self.size), key=lambda i: -self.masses[i]))

    @cached_property
    def levels(self) -> Levels:
        """Distinct positive masses, descending, with their atom counts."""
        den = None
        if self.exact:
            # Runs of equal integer numerators over the lcm; zeros sort last.
            nums, den = _numerators(self.masses)
            nums = list(nums)
            order = sorted(range(self.size), key=nums.__getitem__, reverse=True)
            keys = list(map(nums.__getitem__, order))
            del keys[len(keys) - keys.count(0) :]
        else:
            order = [i for i in self.descending() if self.masses[i] > 0]
            keys = list(map(self.masses.__getitem__, order))
        bounds = _run_bounds(keys)
        firsts = bounds[:-1]
        masses = [self.masses[order[i]] for i in firsts]
        probs = tuple(map(keys.__getitem__, firsts)) if self.exact else tuple(map(float, masses))
        counts = tuple(map(operator.sub, bounds[1:], firsts))
        return Levels(
            probs=probs,
            counts=counts,
            logs=tuple(map(_log_exact, masses)),
            denominator=den,
            alphabet_size=self.size,
            n=1,
            masses=tuple(map(operator.mul, probs, counts)) if self.exact else None,
        )


def make_distribution(
    weights: Sequence[Number], labels: Optional[Sequence] = None
) -> FiniteDistribution:
    """Normalize nonnegative weights into a distribution, preserving order.

    All-exact inputs produce exact ``Fraction`` masses.  Weights already
    summing to one (within 1e-12 for floats) are kept verbatim.
    """
    weights = list(weights)
    if not weights:
        raise BadParamError("need at least one weight")
    for i, w in enumerate(weights):
        if w < 0:
            raise NegativeMassError(f"weight {w!r} at index {i} is negative")
    exact = all(_is_exact(w) for w in weights)
    # Exact weights are summed as integers over their common denominator.
    nums = list(_numerators(weights)[0]) if exact else weights
    total = sum(nums)
    if total == 0:
        raise AllZeroError("all weights are zero")
    if labels is None:
        labels = tuple(range(len(weights)))
    else:
        labels = tuple(labels)
    if exact:
        masses: tuple = tuple(map(Fraction, nums, itertools.repeat(total)))
    elif abs(total - 1) <= 1e-12:
        masses = tuple(float(w) for w in weights)
    else:
        masses = tuple(float(w) / total for w in weights)
    return FiniteDistribution(labels=labels, masses=masses)


def uniform_distribution(size: int) -> FiniteDistribution:
    """The uniform distribution on {1..size}, kept exact; at most 2^20 atoms."""
    if not isinstance(size, int) or size < 1:
        raise BadParamError(f"uniform size must be a positive integer, got {size!r}")
    _check_cap(size)
    return FiniteDistribution(
        labels=tuple(range(1, size + 1)),
        masses=(Fraction(1, size),) * size,
    )


def bernoulli(p: Union[Number, str]) -> FiniteDistribution:
    """Binary distribution with P(1) = p, exact at decimal face value.

    Floats are read as their shortest decimal representation, so
    ``bernoulli(0.3)`` carries mass exactly 3/10.
    """
    p_exact = Fraction(str(p)) if isinstance(p, float) else Fraction(p)
    if not 0 < p_exact < 1:
        raise BadParamError(f"bernoulli parameter must lie strictly in (0, 1), got {p}")
    return FiniteDistribution(labels=(0, 1), masses=(1 - p_exact, p_exact))


@dataclass(frozen=True)
class TypeClass:
    """All length-n sequences sharing one composition of support symbols.

    ``composition`` counts occurrences of each support symbol, aligned
    with the parent view's ``support_labels``.  ``multiplicity`` is the
    exact multinomial coefficient; ``log_prob`` is the natural log of
    ``per_sequence_prob`` and stays finite when the exact probability
    underflows a float.  On exact views ``numerator`` is the
    per-sequence probability times the view's common ``denominator``
    d^n; both are None on float views.
    """

    composition: tuple[int, ...]
    log_prob: float
    multiplicity: int
    numerator: Optional[int] = None
    denominator: Optional[int] = None

    @property
    def per_sequence_prob(self) -> Number:
        """Exact ``Fraction`` (built on each access) or float probability."""
        if self.numerator is None:
            return math.exp(self.log_prob)
        return Fraction(self.numerator, self.denominator)

    @property
    def mass(self) -> Number:
        return self.multiplicity * self.per_sequence_prob

    @property
    def log_mass(self) -> float:
        return self.log_prob + math.log(self.multiplicity)


@dataclass(frozen=True)
class Levels:
    """Distinct positive probability levels of a source, most probable first.

    ``probs[j]`` is the probability of one atom of level j: an integer
    numerator over the shared ``denominator`` on exact sources, a float
    on float sources (``denominator`` is None).  ``counts[j]`` atoms
    share it and ``logs[j]`` is its natural log as the source stores it.
    ``alphabet_size`` also counts zero-mass atoms; ``n`` is the block
    length that spectrum values are divided by (1 for a distribution).
    On exact sources ``masses[j]`` is the level's total mass, counts[j] *
    probs[j], as a numerator over ``denominator``; a view carries it
    class by class rather than multiplying, keeping no entry, so it is
    read in order, as the prefix-mass profile sums it.  It is None on
    float sources and takes no part in comparisons.  On a view ``probs[j]``
    computes the numerator of level j's first class from its composition,
    prod w_i^k_i: the one reader of a single level's probability, which
    the profile's probes and :meth:`value` share.
    """

    probs: Sequence
    counts: Sequence[int]
    logs: tuple[float, ...]
    denominator: Optional[int]
    alphabet_size: int
    n: int
    masses: Optional[Sequence[int]] = dataclasses.field(default=None, compare=False, repr=False)

    @property
    def exact(self) -> bool:
        return self.denominator is not None

    def __len__(self) -> int:
        return len(self.probs)

    def value(self, j: int) -> float:
        """Self-information (1/n) log(1/p) of level j, in nats.

        Exact levels take the big-int log of the reduced fraction, so
        the value agrees bitwise with the smooth-entropy routes.
        """
        if self.exact:
            return -_log_exact(Fraction(self.probs[j], self.denominator)) / self.n
        return -self.logs[j] / self.n


def _float_masses(probs, counts, logs) -> tuple[list[float], list[float], list[float]]:
    """Total mass of each float level, computed without overflow, and its parts.

    Returns the masses, log(count) per level and exp(log_prob +
    log(count)) per level.  A mass is the linear prob * count while the
    probability is representable and the count converts exactly, and
    that exponential otherwise.
    """
    log_counts = list(map(math.log, counts))
    exps = list(map(math.exp, map(operator.add, logs, log_counts)))
    masses = [p * c if p > 0.0 and c < _EXACT_FLOAT_INTS else e for p, c, e in zip(probs, counts, exps)]
    return masses, log_counts, exps


def _derived():
    """A view column that follows from its base, n and compositions: not set, compared or printed."""
    return dataclasses.field(init=False, compare=False, repr=False)


def _check_n(n) -> None:
    """Refuse a block length that is not a positive integer with BadParamError."""
    if not isinstance(n, int) or n < 1:
        raise BadParamError(f"n must be a positive integer, got {n!r}")


@dataclass(frozen=True)
class ProductSourceView:
    """The i.i.d. n-fold power of a base distribution, by type classes.

    A view is its ``base``, its block length ``n`` and its classes'
    ``compositions`` (support-symbol counts aligned with
    ``support_labels``), most probable first; it compares and hashes by
    these three.  Every other column follows from them and cannot be
    passed in: ``log_probs`` (natural log of one sequence's probability),
    ``multiplicities`` (exact multinomial coefficients) and, on exact
    views, ``numerators``, each sequence's probability times the common
    ``denominator`` d^n.  Both are None on float views.  Classes
    enumerate compositions of the base's support only; sequences touching
    a zero-mass base atom are counted in ``zero_mass_count`` so that the
    full alphabet size ``full_alphabet_size`` = |base|^n stays available
    to min-entropy clamping without inflating the class list.

    ``compositions`` is a read-only sequence over s coordinate columns,
    one per support symbol (its ``columns``): :func:`iid_power` expands
    them from the walk's rows and gathers them through its sort, and the
    derived columns and the class readers read them where they are.  It
    builds the composition tuples on the first read of an entry; no
    library path reads one.  ``type_classes`` builds one
    :class:`TypeClass` per class from the columns on first read; nothing
    in the library reads it.

    A view holds its classes as the walk's row table (:func:`_rows`) and
    an order, the walk ranks of its classes most probable first.  The
    build folds the rows once (:func:`_row_logs`) and computes nothing
    else per class; :func:`iid_power` hands the view its rows, its order
    and the fold its sort gathered.  Compositions given any other way, as
    a plain tuple column (:func:`dataclasses.replace` passes the view's
    own) or as hand-built coordinate columns, are read into the same form
    by their ranks (:func:`_ranks`): non-``int`` counts, classes that are
    not compositions of n into the s support symbols and columns of the
    wrong length are refused, and the rows are folded and the fold
    gathered through the ranks.  The certificate then reads only the row
    table and the order (:func:`_check_classes`): the rows must be the
    C(n + s - 2, s - 2) compositions of n into s - 1 parts and the order
    a permutation of the C(n + s - 1, s - 1) walk ranks with ``int``
    entries, so a repeated class is refused; the view keeps neither.
    Every pair of neighbours must descend by :func:`_certified_runs`.  A
    pair whose log gap exceeds the fold's rounding bound
    (:func:`_fold_bound`, 0 on float views) is ordered by the floats; a
    pair within it is compared exactly from its coordinates
    (:func:`_exact_compare`) on exact views; on float views it must have
    equal logs, and is one level.  By the multinomial theorem the class
    masses then sum to 1.  The same pair decisions give the runs of
    classes that share a level.

    ``multiplicities`` and ``numerators`` are read-only sequences over
    the coordinate columns that are filled only as far as a read reaches;
    the build fills neither.  A slice of the numerators, or iteration,
    carries them class by class from the most probable one
    (:class:`_Carried`); one entry read by its index is computed from its
    composition and fills nothing.  The level table's exact masses are the
    same carry times the multinomials, keeping only its frontier, so the
    prefix-mass profile computes the counts and masses of the levels it
    reads and no count * numerator product, and its probes fill no
    numerator.  Iteration, ``type_classes``, a float view's upper-tail
    spectrum quantile and the constructions read the columns whole.
    """

    base: FiniteDistribution
    n: int
    compositions: Sequence[tuple[int, ...]]
    support_labels: tuple = _derived()
    log_probs: tuple[float, ...] = _derived()
    multiplicities: Sequence[int] = _derived()
    full_alphabet_size: int = _derived()
    zero_mass_count: int = _derived()
    numerators: Optional[Sequence[int]] = _derived()
    denominator: Optional[int] = _derived()
    _level_bounds: Sequence[int] = _derived()

    def __post_init__(self) -> None:
        comps, n = self.compositions, self.n
        _check_n(n)
        support = [(lab, m) for lab, m in self.base.atoms if m > 0]
        masses, s, full = [m for _, m in support], len(support), self.base.size**n
        if isinstance(comps, _Sorted):  # iid_power's sort over these masses and n
            rows, order, logs, comps = comps
        else:
            if not isinstance(comps, _Compositions):
                comps = _Compositions(_coordinates(comps))
            rows, logs = _rows(n, s), None
            order = _ranks(comps.columns, rows, n, s)
        _check_classes(rows, order, n, s)
        if logs is None:
            logs = _gather(order)(_row_logs(masses, rows, n))
        cols = comps.columns
        numerators = denominator = compare = None
        if self.exact:
            weights, d = _numerators(masses)
            numerators, denominator = _Carried(weights, cols), d**n
            compare = functools.partial(_exact_compare, numerators.weights, cols)
        derived = dict(
            compositions=comps,
            support_labels=tuple(lab for lab, _ in support),
            log_probs=logs,
            multiplicities=_Multinomials(cols),
            full_alphabet_size=full,
            zero_mass_count=full - s**n,
            numerators=numerators,
            denominator=denominator,
            _level_bounds=_certified_runs(logs, _fold_bound(masses, n), compare),
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def exact(self) -> bool:
        return self.base.exact

    @cached_property
    def type_classes(self) -> tuple[TypeClass, ...]:
        """The classes as :class:`TypeClass` objects, built from the columns once."""
        nums = self.numerators or itertools.repeat(None)
        return tuple(
            TypeClass(comp, lp, mult, num, self.denominator)
            for comp, lp, mult, num in zip(self.compositions, self.log_probs, self.multiplicities, nums)
        )

    @cached_property
    def levels(self) -> Levels:
        """Runs of classes sharing one probability level, built once.

        The runs are the certificate's.  When every level is one class the
        table holds the view's own columns; otherwise it reads them through
        :class:`_RunColumn`, so it too fills them only as far as a read
        reaches.  An exact table's masses are the class-mass carry, summed
        per run in level order.
        """
        bounds, logs = self._level_bounds, self.log_probs
        probs, counts = self.numerators, self.multiplicities
        masses = _Carried(probs.weights, self.compositions.columns, counts=True) if self.exact else None
        if len(bounds) <= len(logs):  # some level joins several classes
            logs = tuple(_firsts(logs, bounds))
            counts = _RunColumn(counts, bounds, summed=True)
            if self.exact:
                probs, masses = _RunColumn(probs, bounds), _RunColumn(masses, bounds, summed=True)
        return Levels(
            probs=probs if self.exact else tuple(map(math.exp, logs)),
            counts=counts,
            logs=logs,
            denominator=self.denominator,
            alphabet_size=self.full_alphabet_size,
            n=self.n,
            masses=masses,
        )


def _run_bounds(keys: Sequence) -> list[int]:
    """Where each run of equal consecutive keys starts, then ``len(keys)``.

    Run g spans positions ``bounds[g]:bounds[g + 1]``; ``keys`` is nonempty.
    """
    changes = itertools.compress(range(1, len(keys)), map(operator.ne, keys[1:], keys))
    return [0, *changes, len(keys)]


def _firsts(column: Sequence, bounds: Sequence[int]) -> Sequence:
    """The column's value at the start of every run; the column itself if no run merges."""
    if len(bounds) > len(column):
        return column
    return [column[i] for i in bounds[:-1]]


def _runs(keys: Sequence, counts: Sequence[int]) -> tuple[Sequence, Sequence[int], list[int]]:
    """Merge consecutive positions of equal key.

    Returns each run's key and summed count, and the run bounds of
    :func:`_run_bounds`.  A run of one position keeps that position's
    count object rather than a copy, and when every run is one position
    the given ``keys`` and ``counts`` are returned as they are.
    """
    bounds = _run_bounds(keys)
    if len(bounds) > len(keys):
        return keys, counts, bounds
    spans = zip(bounds, bounds[1:])
    summed = [counts[a] if b - a == 1 else sum(counts[a:b]) for a, b in spans]
    return _firsts(keys, bounds), summed, bounds


def _group_of(bounds: Sequence[int]) -> list[int]:
    """The run of every position, from run bounds."""
    return [g for g, (a, b) in enumerate(zip(bounds, bounds[1:])) for _ in range(a, b)]


def _levels_of(source: Union[FiniteDistribution, ProductSourceView]) -> Levels:
    """The cached level table of a distribution or a product view."""
    if not isinstance(source, (FiniteDistribution, ProductSourceView)):
        raise BadParamError(f"unsupported source type {type(source).__name__}")
    return source.levels


def _check_cap(atoms: int) -> None:
    """Refuse to enumerate more than 2^20 atoms with TooLargeError."""
    if atoms > _MAX_ATOMS:
        raise TooLargeError(f"{atoms} atoms exceed the expansion cap of {_MAX_ATOMS}")


def _labels(source: Union[FiniteDistribution, ProductSourceView]) -> Iterable:
    """Every atom's label in label order (``itertools.product`` order for views)."""
    if isinstance(source, FiniteDistribution):
        return source.labels
    return itertools.product(source.base.labels, repeat=source.n)


def _class_probs(view: ProductSourceView) -> Sequence:
    """Each class's per-sequence probability, as the constructions read it.

    An exact view gives its numerators over ``view.denominator``.  A float
    view gives prod w_i^k_i / d^n, with its support masses read exactly as
    integers w_i over their common denominator d, a power of two: the
    exact product, rounded once by an integer true division.  The view's
    ``exp(log_prob)`` can be some ulps away, enough to move a floor(M * p)
    across an integer.
    """
    if view.exact:
        return view.numerators
    weights, d = _numerators([Fraction(m) for m in view.base.masses if m > 0])
    nums = _Carried(weights, view.compositions.columns)
    return list(map(operator.truediv, nums, itertools.repeat(d**view.n)))


def _construction_levels(source: Union[FiniteDistribution, ProductSourceView]) -> Levels:
    """The level table the constructions read.

    It is the source's own table, except that a float view's level
    probabilities are its :func:`_class_probs` at the run starts.
    """
    levels = _levels_of(source)
    if levels.exact or isinstance(source, FiniteDistribution):
        return levels
    probs = _firsts(_class_probs(source), source._level_bounds)
    return dataclasses.replace(levels, probs=tuple(probs))


def _atom_levels(source: Union[FiniteDistribution, ProductSourceView]) -> list[int]:
    """Level index of every atom in label order; -1 marks a zero-mass atom.

    A view's atoms are walked as :func:`_composition_codes`, built by the
    same product loop that orders the labels: each support symbol adds
    its digit and the last adds 0; a zero-mass symbol adds (n+1)^(s-1),
    past every class code.
    """
    if isinstance(source, FiniteDistribution):
        levels = source.levels
        keys = _numerators(source.masses)[0] if levels.exact else map(float, source.masses)
        index = {p: j for j, p in enumerate(levels.probs)}
        return [index[k] if k > 0 else -1 for k in keys]
    n, s = source.n, len(source.support_labels)
    digits = iter([(n + 1) ** (s - 2 - i) for i in range(s - 1)] + [0])
    steps = [next(digits) if m > 0 else (n + 1) ** (s - 1) for m in source.base.masses]
    classes = _composition_codes(source.compositions.columns, n)
    code_level = dict(zip(classes, _group_of(source._level_bounds)))
    codes = [0]
    for _ in range(n):
        codes = [c + st for c in codes for st in steps]
    return list(map(code_level.get, codes, itertools.repeat(-1)))


def _bin_weights(source: Union[FiniteDistribution, ProductSourceView], bins: Sequence[Sequence]) -> list:
    """The summed weight of each bin, a sequence of the source's labels.

    A distribution gives its masses.  A view reads each label off its
    length and composition and gives its :func:`_class_probs`; labels
    through a zero-mass symbol give 0.  All labels are looked up at once
    in C-level passes; a label missed there is read again on its own as
    :func:`_canon_label` reads a JSON label, lists becoming tuples at
    every depth.  A label that still misses, one that is not a label of
    the distribution or not a length-n sequence over the base alphabet,
    raises AlphabetMismatchError naming the first such label in bin order.
    """
    flat = list(itertools.chain.from_iterable(bins))
    if isinstance(source, FiniteDistribution):
        table = dict(zip(source.labels, source.masses))
        keys: Iterable = flat
        weight = table.get
        what = "a label of the source"
    else:
        n, symbols, alphabet = source.n, source.support_labels, set(source.base.labels)
        # A key found here is a length-n sequence of support symbols.
        table = dict(zip(zip(itertools.repeat(n), *source.compositions.columns), _class_probs(source)))
        counters = [operator.methodcaller("count", symbol) for symbol in symbols]
        keys = zip(map(len, flat), *(map(count, flat) for count in counters))

        def weight(label):
            if len(label) == n and alphabet.issuperset(label):
                return table.get((n, *map(label.count, symbols)), 0)
            return None

        what = f"a length-{n} sequence over the base alphabet"
    try:
        found = list(map(table.get, keys))
    except (TypeError, AttributeError):
        # A label with no length or count, or an unhashable one.
        found = [None] * len(flat)
    for i in itertools.compress(range(len(found)), map(operator.is_, found, itertools.repeat(None))):
        try:
            found[i] = weight(_canon_label(flat[i]))
        except (BadParamError, TypeError, AttributeError):
            found[i] = None
        if found[i] is None:
            raise AlphabetMismatchError(f"label {flat[i]!r} is not {what}")
    bounds = list(itertools.accumulate(map(len, bins), initial=0))
    return [sum(found[a:b]) for a, b in zip(bounds, bounds[1:])]


class _LazyFields:
    """Dataclass mixin for results whose label-bearing fields are built on first read.

    An instance made by :func:`_lazily` leaves those fields out of its
    ``__dict__``; reading one calls its maker once and keeps the value.
    Instances made by the dataclass constructor never reach the makers.
    """

    def __getattr__(self, name: str):
        makers = self.__dict__.get("_makers")
        if makers is None or name not in makers:
            raise AttributeError(name)
        value = makers[name]()
        object.__setattr__(self, name, value)
        return value


def _lazily(cls, makers: dict, **fields):
    """An instance of dataclass ``cls`` with ``fields`` set and ``makers`` deferred."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    object.__setattr__(obj, "_makers", makers)
    return obj


def iid_power(base: FiniteDistribution, n: int) -> ProductSourceView:
    """Build the type-class view of base^n.

    One walk visits the compositions of n over the s support symbols in
    lexicographic order and emits one row per head (:func:`_rows`).  The
    rows are folded (:func:`_row_logs`), the walk ranks sorted by the
    fold, most probable first, ties in walk order (:func:`_descending`),
    and the rows expanded once into coordinate columns, which are gathered
    with the fold through that order; the view certifies the rows and the
    order and derives its other columns.  Guards: the sequence-count width
    n*log2(|base|) must stay within 2^20 bits and the composition count
    within 5 000 000.
    """
    _check_n(n)
    if base.size < 2:
        raise BadParamError("base alphabet needs at least two symbols")
    if n * math.log2(base.size) > _MAX_BITS:
        raise OverflowGuardError(
            f"|base|^n needs more than {_MAX_BITS} bits at n={n}"
        )
    s = base.support_size
    n_classes = math.comb(n + s - 1, s - 1)
    if n_classes > _MAX_CLASSES:
        raise OverflowGuardError(
            f"{n_classes} type classes exceed the cap of {_MAX_CLASSES}"
        )
    comps = _descending([m for m in base.masses if m > 0], _rows(n, s), n)
    return ProductSourceView(base=base, n=n, compositions=comps)


def expand(view: ProductSourceView) -> FiniteDistribution:
    """Materialize a view atom-by-atom, zero-mass base atoms included.

    Labels are n-tuples of base labels in ``itertools.product`` order.
    Views of more than 2^20 atoms are refused with TooLargeError.
    """
    _check_cap(view.full_alphabet_size)
    labels = tuple(_labels(view))
    masses: list[Number] = [Fraction(1) if view.exact else 1.0]
    for _ in range(view.n):
        masses = [m * b for m in masses for b in view.base.masses]
    return FiniteDistribution(labels=labels, masses=tuple(masses))


def from_json_obj(obj: dict) -> FiniteDistribution:
    """Read a distribution from a parsed JSON object.

    Accepted shapes: {"weights": [...], "labels": [...]} with labels
    optional, {"uniform": M}, or {"bernoulli": p}.  Numeric strings and
    floats are read at decimal face value and kept exact.  A value that
    is not a number, a fractional uniform size and labels that cannot
    be hashed raise BadParamError.
    """
    if not isinstance(obj, dict):
        raise BadParamError("distribution JSON must be an object")
    try:
        if "weights" in obj:
            raw = obj["weights"]
            if not isinstance(raw, list) or not raw:
                raise BadParamError("weights must be a nonempty list")
            weights = [Fraction(str(w)) for w in raw]
            labels = obj.get("labels")
            if labels is not None:
                labels = tuple(_canon_label(lab) for lab in labels)
            return make_distribution(weights, labels=labels)
        if "uniform" in obj:
            size = Fraction(str(obj["uniform"]))
            if size.denominator != 1:
                raise BadParamError(f"uniform size must be an integer, got {obj['uniform']!r}")
            return uniform_distribution(int(size))
        if "bernoulli" in obj:
            return bernoulli(str(obj["bernoulli"]))
    except (ValueError, ZeroDivisionError) as exc:
        raise BadParamError(f"distribution JSON holds a malformed number: {exc}")
    raise BadParamError("distribution JSON needs weights, uniform, or bernoulli")


def _canon_label(lab):
    """A JSON label as a hashable value: lists become tuples at every depth."""
    if isinstance(lab, list):
        return tuple(map(_canon_label, lab))
    try:
        hash(lab)
    except TypeError:
        raise BadParamError(f"label {lab!r} is not a number, a string or a list of them")
    return lab


def parse_source(spec: str) -> FiniteDistribution:
    """Parse a CLI source spec: uniform:M, bernoulli:p, or a JSON path."""
    spec = spec.strip()
    kind, _, arg = spec.partition(":")
    if kind == "uniform" and arg:
        try:
            size = int(arg)
        except ValueError:
            raise BadParamError(f"uniform size must be an integer, got {arg!r}")
        return uniform_distribution(size)
    if kind == "bernoulli" and arg:
        try:
            return bernoulli(Fraction(arg))
        except (ValueError, ZeroDivisionError):
            raise BadParamError(f"cannot parse bernoulli parameter {arg!r}")
    path = Path(spec)
    try:
        text = path.read_text()
    except OSError:
        if kind in ("uniform", "bernoulli"):
            raise BadParamError(f"malformed source spec {spec!r}")
        raise
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadParamError(f"{spec}: not valid JSON ({exc})")
    return from_json_obj(obj)
