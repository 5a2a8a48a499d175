"""Type-class columns of a product view: coordinates, the log fold and its certified order.

A view keeps its classes as columns (see :mod:`smoothgen.distributions`).
This module holds the routines those columns are made of: the
compositions as s coordinate columns (:class:`_Compositions`) and their
certificate (:func:`_are_compositions`); the log fold
(:func:`_class_logs`) that orders, certifies and groups the classes of
both lanes, with its proven rounding bound (:func:`_fold_bound`), the
exact compare of two classes (:func:`_exact_compare`), the sort of
:func:`_descending`, which gathers the fold it sorts by with the columns
so that a view folds no class twice, and the pair rule of
:func:`_certified_runs`; and the read-only columns filled only as far as
a read reaches: multinomials (:class:`_Multinomials`), numerators and
class masses (:class:`_Carried`) and per-run views of a class column
(:class:`_RunColumn`).  Exact masses are read as integers in one place,
:func:`_numerators`.
"""

from __future__ import annotations

import collections.abc
import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import BadParamError, InexactCarryError

Number = Union[int, float, Fraction]
# The unit roundoff of a double.
_UNIT_ROUNDOFF = 2.0**-53


def _is_exact(x: Number) -> bool:
    return _is_exact_type(type(x))


def _is_exact_type(t: type) -> bool:
    return issubclass(t, (int, Fraction)) and not issubclass(t, bool)


def _log_exact(x: Number) -> float:
    """Natural log of a positive number, exact-aware for huge fractions."""
    if isinstance(x, Fraction):
        return math.log(x.numerator) - math.log(x.denominator)
    return math.log(x)


def _numerators(masses: Sequence[Number]) -> tuple[Iterable[int], int]:
    """Exact masses as integer numerators over the lcm of their denominators, lazily.

    The one place where exact masses become integers: adding or comparing
    the numerators replaces a gcd per ``Fraction`` operation.
    """
    denominator = operator.attrgetter("denominator")
    den = math.lcm(*set(map(denominator, masses)))
    scales = map(operator.floordiv, itertools.repeat(den), map(denominator, masses))
    return map(operator.mul, map(operator.attrgetter("numerator"), masses), scales), den


def _coordinates(comps: Sequence[tuple[int, ...]]) -> list[list[int]]:
    """The coordinates of equal-length tuples, one list per position, read in one pass.

    Tuples of unequal length have no coordinate columns: the result is empty.
    """
    lengths = set(map(len, comps))
    if len(lengths) != 1:
        return []
    s = lengths.pop()
    flat = list(itertools.chain.from_iterable(comps))
    return [flat[i::s] for i in range(s)]


def _composition_codes(cols: Sequence[Sequence[int]], n: int) -> Iterable[int]:
    """Each composition's code, lazily: its first s - 1 coordinates as base n + 1 digits.

    The first coordinate is the most significant digit.  The last is n less
    the others, so distinct compositions of n have distinct codes, all below
    (n + 1)^(s - 1).
    """
    codes = cols[0] if len(cols) > 1 else itertools.repeat(0, len(cols[0]))
    for col in cols[1:-1]:
        codes = map(operator.add, map(operator.mul, codes, itertools.repeat(n + 1)), col)
    return codes


def _are_compositions(cols: Sequence[Sequence[int]], n: int, s: int) -> bool:
    """Whether the coordinate columns ``cols`` hold exactly the compositions of n into s parts.

    s columns of C(n + s - 1, s - 1) nonnegative ``int`` counts, each class
    summing to n, with distinct :func:`_composition_codes` are every
    composition once.
    """
    count = math.comb(n + s - 1, s - 1)
    if len(cols) != s or any(len(col) != count for col in cols):
        return False
    if any(set(map(type, col)) != {int} for col in cols):
        return False
    totals = cols[0]
    for col in cols[1:]:
        totals = list(map(operator.add, totals, col))
    return (
        min(map(min, cols)) >= 0
        and totals.count(n) == count
        and len(set(_composition_codes(cols, n))) == count
    )


def _class_logs(masses: Sequence[Number], cols: Sequence[Sequence[int]], n: int) -> tuple[float, ...]:
    """Each class's natural-log probability, the sum of k_i log(m_i), in the order of ``cols``.

    ``masses`` are the support masses and ``cols`` the classes'
    coordinates, one column per support symbol.  The terms k log(m_i) are
    tabled for every count k <= n.  A class sums the terms of all but its
    last two coordinates (its head) with ``sum``, from 0, once per distinct
    head, then adds the second-to-last and the last term in turn.
    """
    log_terms = [list(map(operator.mul, itertools.repeat(_log_exact(m)), range(n + 1))) for m in masses]
    s = len(cols)
    if s <= 3:  # a head of at most one term: the fold starts from 0 + the first term
        first = log_terms[0]
        # 0 + x is x bit for bit but for x = -0.0, the entry k = 0 of a negative log.
        first[0] = 0.0
        folded: Iterable = map(first.__getitem__, cols[0])
        rest = range(1, s)
    else:
        heads = list(zip(*cols[:-2]))
        lead_of = {head: sum(map(list.__getitem__, log_terms, head)) for head in set(heads)}
        folded = map(lead_of.__getitem__, heads)
        rest = range(s - 2, s)
    for i in rest:
        folded = map(operator.add, folded, map(log_terms[i].__getitem__, cols[i]))
    return tuple(folded)


def _fold_bound(masses: Sequence[Number], n: int) -> float:
    """How far apart two classes' :func:`_class_logs` can lie and still be misordered.

    Float masses give 0: a float view's stored logs are its probabilities.
    For exact masses m_i = a_i / b_i (in lowest terms) over s support symbols
    the bound is derived from the fold's operations, with u = 2^-53:

    * ``math.log`` of a positive int x is within eta(x) = 5u(|log x| + 1) of
      log x.  The int is rounded to a double (at most u/(1 - u) in the log),
      or past the double range split into a mantissa times 2^e, whose
      e * log(2) adds about 3u|log x|; the C library's log is taken to be
      within one ulp, 2u times its result.
    * ``_log_exact`` subtracts once: l_i = fl(log a_i - log b_i) is within
      eta(a_i) + eta(b_i) + u|l_i| of log m_i.  A bound scaled by |log m_i|
      alone misses the cancellation when m_i is near 1 (999/1000).
    * The table entry fl(k * l_i) is within k(eta(a_i) + eta(b_i) + 2u|l_i|)
      of k log m_i.
    * A class adds its s entries from 0, at most s - 1 rounded additions,
      each pair within gamma_{s-1} = (s - 1)u / (1 - (s - 1)u) times the
      sum of the entries' magnitudes (Higham, *Accuracy and Stability of
      Numerical Algorithms*, 2002, section 4.2); Python's compensated
      ``sum`` of a head is within the same.

    With k_1 + ... + k_s = n, a class's computed log is within E = n *
    max_i(eta(a_i) + eta(b_i) + (s + 3)u|l_i|) of its exact log, the extra
    u|l_i| covering the second-order terms.  Two classes whose computed
    logs differ by more than 2E are ordered by them.  The bound returned is
    2E(1 + 2^-20), which also covers the rounding of E and of the gap.
    """
    if not all(map(_is_exact, masses)):
        return 0.0
    s, u = len(masses), _UNIT_ROUNDOFF

    def eta(x: int) -> float:
        return 5 * u * (abs(math.log(x)) + 1)

    worst = max(
        eta(m.numerator) + eta(m.denominator) + (s + 3) * u * abs(_log_exact(m)) for m in masses
    )
    return 2 * n * worst * (1 + 2.0**-20)


def _exact_compare(weights: Sequence[int], cols: Sequence[Sequence[int]], i: int, j: int) -> int:
    """The sign of prod_t w_t^k_t(i) - prod_t w_t^k_t(j), classes i and j of the columns ``cols``.

    The common powers cancel: the ratio of the two is prod_t w_t^(k_t(i) -
    k_t(j)), so the products over the positive and the negative
    differences are compared, and neither class's own product is built.
    """
    up = down = 1
    for w, col in zip(weights, cols):
        d = col[i] - col[j]
        if d > 0:
            up *= w**d
        elif d < 0:
            down *= w**-d
    return (up > down) - (up < down)


def _certified_runs(logs: Sequence[float], bound: float, compare) -> Sequence[int]:
    """Certify that classes descend, and return where each run of equal probability starts.

    ``logs`` is the classes' :func:`_class_logs` column and ``bound`` its
    :func:`_fold_bound`.  A pair of neighbours whose computed gap exceeds
    the bound descends strictly and starts a run.  A pair within it is
    settled by ``compare(i, i + 1)``, the sign of the first class's exact
    probability less the second's; on a float view (``compare`` None,
    bound 0) such a pair is one level if its stored logs are equal and
    out of order if not.  The result is the run starts, then
    ``len(logs)``, as :func:`_run_bounds` gives them: a range when every
    class is its own run, found in one pass when every gap clears the
    bound.
    """
    nexts = logs[1:]
    if all(map(operator.gt, map(operator.sub, logs, nexts), itertools.repeat(bound))):
        return range(len(logs) + 1)
    starts = list(map(operator.gt, map(operator.sub, logs, nexts), itertools.repeat(bound)))
    for i in itertools.compress(range(len(starts)), map(operator.not_, starts)):
        sign = compare(i, i + 1) if compare else (logs[i] == logs[i + 1]) - 1
        if sign < 0:
            raise BadParamError("type classes not sorted by probability")
        starts[i] = sign > 0
    if all(starts):
        return range(len(logs) + 1)
    return [0, *itertools.compress(range(1, len(logs)), starts), len(logs)]


class _TupleColumn(collections.abc.Sequence):
    """A read-only column that compares, hashes and prints as the tuple of its entries."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if isinstance(other, (_TupleColumn, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class _Compositions(_TupleColumn):
    """Every class's composition, held as its s coordinate columns.

    ``columns`` holds one column of counts per support symbol, the storage
    the walk of :func:`iid_power` writes and the view's certificate, the
    multiplicities and the class readers read.  The composition tuples
    themselves are built once, on the first read of an entry.

    Compositions sorted by :func:`_descending` carry the log fold the sort
    computed, gathered with the columns; :meth:`logs` hands it on only to
    a reader with the same support masses and n.
    """

    __slots__ = ("columns", "_tuples", "_fold")

    def __init__(self, columns: Sequence[Sequence[int]]) -> None:
        self.columns = columns
        self._tuples: Optional[tuple[tuple[int, ...], ...]] = None
        self._fold: Optional[tuple] = None  # (columns, masses key, n, logs), set by _descending

    def logs(self, masses: Sequence[Number], n: int) -> tuple[float, ...]:
        """:func:`_class_logs` of these columns over the support ``masses`` and n.

        The carried fold is returned when it was computed from these very
        columns with masses of the same types and values (the two lanes
        never share a fold) and the same n; any other call folds again.
        """
        fold = self._fold
        if fold is not None and fold[0] is self.columns and fold[1:3] == (_fold_key(masses), n):
            return fold[3]
        return _class_logs(masses, self.columns, n)

    def _built(self) -> tuple[tuple[int, ...], ...]:
        if self._tuples is None:
            self._tuples = tuple(zip(*self.columns))
        return self._tuples

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, key):
        return self._built()[key]

    def __iter__(self):
        return iter(self._built())


class _Prefix(_TupleColumn):
    """A read-only column over a view's coordinate ``columns``, filled on demand.

    A read computes every entry before the furthest one it reaches, and
    nothing after it; ``_fill(stop)`` extends ``_values`` to ``stop`` entries.
    """

    __slots__ = ("columns", "_values")

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, key):
        values = self._values
        if type(key) is int and 0 <= key < len(values):
            return values[key]
        span = range(len(self))[key]
        if isinstance(key, slice):
            if span:
                self._fill(max(span[0], span[-1]) + 1)
            return list(map(self._values.__getitem__, span))
        self._fill(span + 1)
        return self._values[span]

    def __iter__(self):
        self._fill(len(self))
        return iter(self._values)

    def _fill(self, stop: int) -> None:
        raise NotImplementedError


class _Multinomials(_Prefix):
    """The multinomial coefficient of every composition in a column, filled on demand.

    A :class:`_Prefix` over the coordinate ``columns`` of a view's
    :class:`_Compositions`, one per symbol, aligned with them.  The
    classes that share a head (all but the last two coordinates) form a
    row, indexed by the last coordinate j: the
    coefficient of (head, m - j, j) is the head's multinomial
    n! / (prod(head!) m!) times C(m, j).  A row starts from the head's
    multinomial at both ends and is extended towards its middle by the
    exact recurrence c_{j+1} = c_j (m - j) / (j + 1), only as deep as the
    classes filled so far need; each class's coefficient is then read
    off its row in one C-level pass.
    """

    __slots__ = ("_rows", "_depths")

    def __init__(self, columns: Sequence[Sequence[int]]) -> None:
        self.columns = columns
        self._values: list[int] = []
        self._rows: dict = {}  # head -> its row, None where not yet needed
        self._depths: dict = {}  # head -> how many entries of each end are filled

    def _fill(self, stop: int) -> None:
        values = self._values
        start = len(values)
        if stop <= start:
            return
        cols = self.columns
        s, n = len(cols), sum(col[0] for col in cols)
        if s == 1:  # the one class (n,)
            values += itertools.repeat(1, stop - start)
            return
        lasts = cols[-1][start:stop]
        if s == 2:
            heads: Iterable = [()]
        elif s == 3:  # a head is an int on three symbols, a tuple on more
            heads = cols[0][start:stop]
        else:
            heads = list(zip(*(col[start:stop] for col in cols[:-2])))
        # A class reads its row at j = last, or by symmetry at m - last; the
        # nearer end is less than min(max(lasts), n - min(lasts)) + 1 away.
        depth = min(max(lasts), n - min(lasts)) + 1
        rows, depths = self._rows, self._depths
        for head in set(heads):
            row = rows.get(head)
            if row is None:
                parts = (head, n - head) if s == 3 else (*head, n - sum(head))
                row = rows[head] = [None] * (parts[-1] + 1)
                row[0] = row[-1] = math.prod(map(math.comb, itertools.accumulate(parts), parts))
                depths[head] = 1
            done, m = depths[head], len(row) - 1
            reach = min(depth, m // 2 + 1)
            if done >= reach:
                continue
            c, new = row[done - 1], []
            for j in range(done - 1, reach - 1):
                c = c * (m - j) // (j + 1)
                new.append(c)
            row[done:reach] = new
            row[m + 1 - reach : m + 1 - done] = new[::-1]
            depths[head] = reach
        if s == 2:
            values += map(rows[()].__getitem__, lasts)
        else:
            values += map(operator.getitem, map(rows.__getitem__, heads), lasts)


class _Carried(_Prefix):
    """prod_i w_i^k_i for every class in the coordinate ``columns``, in their order, filled on demand.

    With ``counts`` each entry is also multiplied by the class's
    multinomial: the class mass as a numerator over d^n.  The root symbol
    r is the last support symbol of largest weight.  A class k with a
    coordinate other than r is carried from its parent k - e_b + e_r, b
    being its first such coordinate: the parent's entry times w_b (and
    k_r + 1) divided by w_r (and k_b), one product and one division by
    small integers whose remainder must be 0.  In a certified order every
    parent comes first: moving a unit to r never makes a class less
    probable, and among classes of equal probability the parent is first
    in walk order.  A class whose parent has not been read (the root, or
    one placed before its parent among ties) is computed directly.
    """

    __slots__ = ("weights", "counts", "_known", "_lifts", "_root")

    def __init__(self, weights: Sequence[int], columns: Sequence[Sequence[int]], counts: bool = False) -> None:
        self.columns, self.weights, self.counts = columns, list(weights), counts
        self._values: list[int] = []
        self._known: dict = {}  # composition code -> entry
        s, n = len(columns), sum(col[0] for col in columns)
        self._root = r = max(range(s), key=lambda i: (self.weights[i], i))
        # What moving a unit from coordinate b to r adds to a code (_composition_codes).
        steps = [(n + 1) ** (s - 2 - i) for i in range(s - 1)] + [0]
        self._lifts = [steps[r] - step for step in steps]

    def _fill(self, stop: int) -> None:
        values = self._values
        start = len(values)
        if stop <= start:
            return
        weights, lifts, r, known = self.weights, self._lifts, self._root, self._known
        block = [col[start:stop] for col in self.columns]
        codes = _composition_codes(block, sum(col[0] for col in block))
        # Each class's first nonzero coordinate other than r, -1 where there is none.
        firsts = [-1] * (stop - start)
        for i in reversed(range(len(block))):
            if i != r:
                firsts = [i if k else b for k, b in zip(block[i], firsts)]
        counts, w_r, at_r = self.counts, weights[r], block[r]
        for at, code, b in zip(range(stop - start), codes, firsts):
            parent = known.get(code + lifts[b]) if b >= 0 else None
            if parent is None:
                comp = [col[at] for col in block]
                value = math.prod(map(pow, weights, comp))
                if counts:
                    value *= math.prod(map(math.comb, itertools.accumulate(comp), comp))
            else:
                if counts:
                    value, rest = divmod(parent * (weights[b] * (at_r[at] + 1)), w_r * block[b][at])
                else:
                    value, rest = divmod(parent * weights[b], w_r)
                if rest:
                    raise InexactCarryError(f"the carry to class {start + at} left a remainder of {rest}")
            known[code] = value
            values.append(value)


class _RunColumn(_TupleColumn):
    """Each run's first entry of a class column, or with ``summed`` the sum of its entries, on demand.

    Run g spans ``bounds[g]:bounds[g + 1]`` of ``column``; reading run g
    reads the column only that far.
    """

    __slots__ = ("column", "bounds", "summed")

    def __init__(self, column: Sequence, bounds: Sequence[int], summed: bool = False) -> None:
        self.column, self.bounds, self.summed = column, bounds, summed

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self[g] for g in range(len(self))[key]]
        g = range(len(self))[key]
        a, b = self.bounds[g], self.bounds[g + 1]
        return sum(self.column[a:b]) if self.summed else self.column[a]


def _fold_key(masses: Sequence[Number]) -> tuple:
    """The support masses as :func:`_log_exact` reads them: each value with its type."""
    return tuple(zip(map(type, masses), masses))


def _descending(masses: Sequence[Number], cols: Sequence[Sequence[int]], n: int) -> _Compositions:
    """The classes of the columns ``cols``, most probable first, ties in column order.

    One stable sort by :func:`_class_logs`.  On exact masses each run of
    neighbours whose float gaps lie within :func:`_fold_bound` is sorted
    again by :func:`_exact_compare`, from column order, so exact ties keep
    it; no class's numerator is built.  The columns and the log column are
    gathered through the one order, and the sorted compositions carry
    that fold (:meth:`_Compositions.logs`), so a view over them folds no
    class again.  The column-order logs are dropped on return, before the
    view certifies.
    """
    logs = _class_logs(masses, cols, n)
    order = sorted(range(len(logs)), key=logs.__getitem__, reverse=True)
    bound = _fold_bound(masses, n)
    ranked = list(map(logs.__getitem__, order)) if bound else []
    gaps = map(operator.sub, ranked, ranked[1:])
    near = list(itertools.compress(range(1, len(order)), map(operator.le, gaps, itertools.repeat(bound))))
    if near:
        compare = functools.cmp_to_key(functools.partial(_exact_compare, list(_numerators(masses)[0]), cols))
        # Each near position p pairs p - 1 with p; consecutive ones form one run.
        start = None
        for p, after in zip(near, near[1:] + [None]):
            start = p - 1 if start is None else start
            if after != p + 1:
                order[start : p + 1] = sorted(sorted(order[start : p + 1]), key=compare, reverse=True)
                start = None
    # An itemgetter of one index returns the entry, not a 1-tuple; one class needs no gather.
    gather = operator.itemgetter(*order) if len(order) > 1 else tuple
    comps = _Compositions(tuple(map(gather, cols)))
    comps._fold = (comps.columns, _fold_key(masses), n, gather(logs))
    return comps
