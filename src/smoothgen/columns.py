"""Type-class columns of a product view: the walk's rows, the log fold and its certified order.

A view keeps its classes as columns (see :mod:`smoothgen.distributions`).
This module holds the routines those columns are made of: the walk's row
table (:func:`_rows`), one row per head (all coordinates but the last
two), which the log fold (:func:`_row_logs`) reads a row at a time and
:func:`_expanded` turns into the classes' s coordinate columns
(:class:`_Compositions`); the fold's proven rounding bound
(:func:`_fold_bound`), the exact compare of two classes
(:func:`_exact_compare`), the sort of :func:`_descending`, which builds a
view's classes from its support masses and n and gathers the columns and
the fold through one order, and the pair rule of :func:`_certified_runs`,
which certifies that order; and the read-only columns filled only as far
as a read reaches: multinomials (:class:`_Multinomials`), a float view's
level probabilities (:class:`_Exponentials`), numerators and class masses
(:class:`_Carried`, which reads one entry from its composition, carries
slices, keeps only its frontier, and on the class masses keeps no entry)
and per-run views of a class column (:class:`_RunColumn`).  The walk
makes every composition of n once, so no certificate re-reads the
classes; the tests check the walk against an independent oracle.  Exact
masses are read as integers in one place, :func:`_numerators`.
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


def _rows(n: int, s: int) -> list[list[int]]:
    """The walk's row table: the compositions of n into s - 1 parts, in lexicographic order.

    One column per part.  Row (head, m) stands for the m + 1 classes
    (head, j, m - j), j = 0..m, that share all but their last two
    coordinates; the rows' classes in turn are every composition of n
    into s parts in lexicographic order, the walk order.  A one-symbol
    support has the one row (n,), which is its one class.
    """
    if s == 1:
        return [[n]]
    rows: list[list[int]] = [[] for _ in range(s - 1)]
    comp = [0] * (s - 1) + [n]
    while True:
        m = comp[-1]
        for col, k in zip(rows, comp[:-2]):
            col.append(k)
        rows[-1].append(m)
        comp[-2], comp[-1] = m, 0
        if comp[0] == n:  # (n, 0, ..., 0) is the last composition
            break
        # Carry: the rightmost nonzero coordinate v gives one unit to its
        # left neighbour and its other v-1 units to the last coordinate.
        i = s - 2
        while not comp[i]:
            i -= 1
        v = comp[i]
        comp[i - 1] += 1
        comp[i] = 0
        comp[-1] = v - 1
    return rows


def _expanded(rows: Sequence[Sequence[int]], s: int) -> list[list[int]]:
    """The coordinate columns of the classes of the row table ``rows``, in walk order.

    Each column is extended by one C-level pass per row.
    """
    if s == 1:
        return [list(rows[0])]
    cols: list[list[int]] = [[] for _ in range(s)]
    for row in zip(*rows):
        m = row[-1]
        for col, k in zip(cols, row[:-1]):
            col += itertools.repeat(k, m + 1)
        cols[-2] += range(m + 1)
        cols[-1] += range(m, -1, -1)
    return cols


def _row_logs(masses: Sequence[Number], rows: Sequence[Sequence[int]], n: int) -> list[float]:
    """Each class's natural-log probability, the sum of k_i log(m_i), in the walk order of ``rows``.

    ``masses`` are the support masses and ``rows`` the row table of
    :func:`_rows`.  The terms k log(m_i) are tabled for every count k <= n,
    the last symbol's from k = n down.  A row sums the terms of its head
    with ``sum``, from 0, and its classes (head, j, m - j) then add the
    slice of second-to-last terms for j = 0..m and the slice of last terms
    for m - j in turn, each in one C-level pass.  With no head (two
    symbols, one row) the fold starts from the second-to-last term, whose
    entry k = 0 is 0.0, as 0 + (-0.0) is.
    """
    logs = list(map(_log_exact, masses))
    last = list(map(operator.mul, itertools.repeat(logs[-1]), range(n, -1, -1)))  # last[n - k]: k log m_s
    if len(logs) == 1:  # the one class (n,)
        return [0 + last[0]]
    terms = [list(map(operator.mul, itertools.repeat(log_m), range(n + 1))) for log_m in logs[:-1]]
    near = terms[-1]
    if len(logs) == 2:
        near[0] = 0.0
        return list(map(operator.add, near, last))
    folded: list[float] = []
    for row in zip(*rows):
        m = row[-1]
        lead = sum(map(list.__getitem__, terms, row[:-1]))
        folded += map(operator.add, map(operator.add, itertools.repeat(lead, m + 1), near[: m + 1]), last[n - m :])
    return folded


def _fold_bound(masses: Sequence[Number], n: int) -> float:
    """How far apart two classes' :func:`_row_logs` can lie and still be misordered.

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

    ``logs`` is the classes' :func:`_row_logs` column and ``bound`` its
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

    ``columns`` holds one column of counts per support symbol:
    :func:`_descending` gathers them from the expanded walk rows, and the
    multiplicities and the class readers read them where they are.  The
    composition tuples themselves are built once, on the first read of an
    entry.
    """

    __slots__ = ("columns", "_tuples")

    def __init__(self, columns: Sequence[Sequence[int]]) -> None:
        self.columns = columns
        self._tuples: Optional[tuple[tuple[int, ...], ...]] = None

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
    """A read-only column over the aligned ``columns`` it is computed from, filled on demand.

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


class _Exponentials(_Prefix):
    """``math.exp`` of every entry of a float log column: a float view's level probabilities.

    A :class:`_Prefix` over the one column ``logs``; an entry is the exp
    of its log, taken only as far as a read reaches.
    """

    __slots__ = ()

    def __init__(self, logs: Sequence[float]) -> None:
        self.columns, self._values = (logs,), []

    def _fill(self, stop: int) -> None:
        values = self._values
        values += map(math.exp, self.columns[0][len(values) : stop])


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
    """prod_i w_i^k_i for every class in the coordinate ``columns``, in their order.

    With ``counts`` each entry is also multiplied by the class's
    multinomial: the class mass as a numerator over d^n.  An entry read
    on its own, by an int index, is computed from its class's composition
    (:meth:`_direct`) unless the column already holds it, and fills
    nothing: a query that probes a few levels' probabilities pays one
    product per probe.  Slices and iteration read the carry.

    The root symbol r is the last support symbol of largest weight.  A
    class k with a coordinate other than r is carried from its parent
    k - e_b + e_r, b being its first such coordinate: the parent's entry
    times w_b (and k_r + 1) divided by w_r (and k_b), one product and one
    division by small integers whose remainder must be 0.  In a certified
    order every parent comes first: moving a unit to r never makes a class
    less probable, and among classes of equal probability the parent is
    first in walk order.  A class whose parent has not been read (the
    root, or one placed before its parent among ties) is computed
    directly.

    The carry keeps only its frontier: a class's entry while some of its
    children are still to come.  Class k's children are k - e_r + e_c for
    every c other than r up to its first coordinate other than r (every
    c at the root), when k_r > 0.  A child takes its parent's entry out
    of the frontier unless ``_more`` counts children after it; a child
    read before its parent is struck from the parent's count when the
    parent comes.  On a binary base every class has one child and the
    frontier is one entry.  The numerators keep every entry the carry
    reaches in ``_values``.  The class masses keep none: the prefix-mass
    profile sums them as it reads them, in order, and a read that starts
    behind the carry starts it again from the first class.
    """

    __slots__ = ("weights", "counts", "_known", "_more", "_early", "_carried", "_lifts", "_kids", "_root")

    def __init__(self, weights: Sequence[int], columns: Sequence[Sequence[int]], counts: bool = False) -> None:
        self.columns, self.weights, self.counts = columns, list(weights), counts
        self._values: list[int] = []
        self._restart()
        s, n = len(columns), sum(col[0] for col in columns)
        self._root = r = max(range(s), key=lambda i: (self.weights[i], i))
        # What moving a unit from coordinate b to r adds to a code (_composition_codes).
        steps = [(n + 1) ** (s - 2 - i) for i in range(s - 1)] + [0]
        self._lifts = [steps[r] - step for step in steps]
        # The children of a class whose first coordinate other than r is b: one per
        # coordinate other than r up to b.  Index -1, the root's, gives all s - 1.
        self._kids = [b + (b < r) for b in range(s)]

    def _restart(self) -> None:
        self._known: dict = {}  # frontier: composition code -> entry
        self._more: dict = {}  # frontier code -> children still to come after the next one
        self._early: set = set()  # codes of classes read before their parents
        self._carried = 0  # classes the carry has passed

    def __getitem__(self, key):
        span = range(len(self))[key]
        if isinstance(key, slice):
            if not span:
                return []
            lo, hi = min(span[0], span[-1]), max(span[0], span[-1]) + 1
            if self.counts:
                block = self._carry(lo, hi)
                return block if span.step == 1 else [block[i - lo] for i in span]
            self._fill(hi)
            return list(map(self._values.__getitem__, span))
        if span < len(self._values):
            return self._values[span]
        return self._direct([col[span] for col in self.columns])

    def __iter__(self):
        if self.counts:
            return iter(self._carry(0, len(self)))
        return super().__iter__()

    def _direct(self, comp: Sequence[int]) -> int:
        """The entry of the class of composition ``comp``, with no carry."""
        value = math.prod(map(pow, self.weights, comp))
        if self.counts:
            value *= math.prod(map(math.comb, itertools.accumulate(comp), comp))
        return value

    def _fill(self, stop: int) -> None:
        start = len(self._values)
        if stop > start:
            self._values += self._carry(start, stop)

    def _carry(self, start: int, stop: int) -> list[int]:
        """The entries of classes ``start:stop``, carried on from the last class passed."""
        if start < self._carried:
            self._restart()
        first = self._carried
        weights, lifts, kids, r = self.weights, self._lifts, self._kids, self._root
        known, more, early = self._known, self._more, self._early
        block = [col[first:stop] for col in self.columns]
        codes = _composition_codes(block, sum(col[0] for col in block))
        # Each class's first nonzero coordinate other than r, -1 where there is none.
        firsts = [-1] * (stop - first)
        for i in reversed(range(len(block))):
            if i != r:
                firsts = [i if k else b for k, b in zip(block[i], firsts)]
        counts, w_r, at_r = self.counts, weights[r], block[r]
        out = []
        for at, code, b in zip(range(stop - first), codes, firsts):
            entry = known.pop(code + lifts[b], None) if b >= 0 else None
            if entry is None:
                value = self._direct([col[at] for col in block])
                if b >= 0:
                    early.add(code)
            else:
                if counts:
                    value, rest = divmod(entry * (weights[b] * (at_r[at] + 1)), w_r * block[b][at])
                else:
                    value, rest = divmod(entry * weights[b], w_r)
                if rest:
                    raise InexactCarryError(f"the carry to class {first + at} left a remainder of {rest}")
                if more:
                    left = more.pop(code + lifts[b], 0)
                    if left:
                        known[code + lifts[b]] = entry
                        if left > 1:
                            more[code + lifts[b]] = left - 1
            if at_r[at]:
                left = kids[b]
                if early:
                    for c in range(b + 1 if b >= 0 else len(kids)):
                        if c != r and code - lifts[c] in early:
                            early.remove(code - lifts[c])
                            left -= 1
                if left:
                    known[code] = value
                    if left > 1:
                        more[code] = left - 1
            out.append(value)
        self._carried = stop
        return out[start - first :]


class _RunColumn(_TupleColumn):
    """Each run's first entry of a class column, or with ``summed`` the sum of its entries, on demand.

    Run g spans ``bounds[g]:bounds[g + 1]`` of ``column``; reading run g
    reads the column only that far.  A slice, and iteration, read the
    column under their runs as one slice, so a carried column is carried
    through them once, not run by run.
    """

    __slots__ = ("column", "bounds", "summed")

    def __init__(self, column: Sequence, bounds: Sequence[int], summed: bool = False) -> None:
        self.column, self.bounds, self.summed = column, bounds, summed

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, key):
        span = range(len(self))[key]
        if isinstance(key, slice):
            if not span:
                return []
            # One read of the column under the runs, so a carried column carries once.
            lo, hi = min(span[0], span[-1]), max(span[0], span[-1]) + 1
            bounds, a = self.bounds, self.bounds[lo]
            block = self.column[a : bounds[hi] if self.summed else bounds[hi - 1] + 1]
            if self.summed:
                runs = [sum(block[x - a : y - a]) for x, y in zip(bounds[lo:hi], bounds[lo + 1 : hi + 1])]
            else:
                runs = [block[x - a] for x in bounds[lo:hi]]
            return [runs[g - lo] for g in span]
        a, b = self.bounds[span], self.bounds[span + 1]
        return sum(self.column[a:b]) if self.summed else self.column[a]

    def __iter__(self):
        return iter(self[:])


def _gather(order: Sequence[int]):
    """A function that gathers a column through ``order`` into a tuple."""
    # An itemgetter of one index returns the entry, not a 1-tuple; one class needs no gather.
    return operator.itemgetter(*order) if len(order) > 1 else tuple


def _descending(masses: Sequence[Number], n: int) -> tuple[tuple[float, ...], _Compositions]:
    """The classes of n over the support ``masses``, most probable first, ties in walk order.

    The walk's rows (:func:`_rows`) are folded (:func:`_row_logs`) and the
    walk ranks sorted by the fold in one stable sort.  On exact masses
    each run of neighbours whose float gaps lie within :func:`_fold_bound`
    is sorted again by :func:`_exact_compare`, from walk order, so exact
    ties keep it; no class's numerator is built.  The rows are expanded
    into coordinate columns once, and the columns and the fold are
    gathered through the one order.  The near pairs' gaps are read off
    the gathered fold, which is gathered again only after some run is
    re-sorted.  Returns the gathered fold and the classes' compositions.
    """
    rows = _rows(n, len(masses))
    logs = _row_logs(masses, rows, n)
    cols = _expanded(rows, len(masses))
    order = sorted(range(len(logs)), key=logs.__getitem__, reverse=True)
    gather = _gather(order)
    ranked = gather(logs)
    bound = _fold_bound(masses, n)
    gaps = map(operator.sub, ranked, ranked[1:]) if bound else ()
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
        gather = _gather(order)
        ranked = gather(logs)
    return ranked, _Compositions(tuple(map(gather, cols)))
