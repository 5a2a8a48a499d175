"""Frozen per-atom reference for the divergence of a map given by labels.

A copy of the atom-by-atom grouping that ``resolvability`` used before
it counted integer keys: every atom's level comes from its own
composition, and every atom with a positive mass updates a dict keyed by
(level, mass), in label order.  It reads the view's construction level
table and sums through the library's counted sum, so a value it gives
is comparable with ``==``, but it shares no code with the library's
label grouping or its atom-level walk.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from smoothgen.distributions import _construction_levels
from smoothgen.errors import AlphabetMismatchError
from smoothgen.fdiv import _divergence_sum


def atom_levels(view) -> list[int]:
    """Level index of every atom in label order; -1 for an atom through a zero-mass symbol."""
    keys = view.numerators if view.exact else view.log_probs
    level_of_class = []
    j = -1
    for i, key in enumerate(keys):
        if i == 0 or key != keys[i - 1]:
            j += 1
        level_of_class.append(j)
    class_of = {comp: i for i, comp in enumerate(view.compositions)}
    support = view.support_labels
    out = []
    for label in itertools.product(view.base.labels, repeat=view.n):
        comp = tuple(label.count(s) for s in support)
        i = class_of.get(comp) if sum(comp) == view.n else None
        out.append(-1 if i is None else level_of_class[i])
    return out


def level_divergence(f, levels, terms, in_image):
    exact = levels.exact

    def mass(j):
        if j < 0:
            return 0
        return Fraction(levels.probs[j], levels.denominator) if exact else levels.probs[j]

    groups = [(count, mass(j), q) for count, j, q in terms]
    outside = [count - k for count, k in zip(levels.counts, in_image)]
    if any(outside):
        weight = sum(k * p for k, p in zip(outside, levels.probs))
        groups.append((1, Fraction(weight, levels.denominator) if exact else weight, 0))
    return _divergence_sum(f, groups)


def label_divergence(f, view, induced):
    """D_f(view || induced), one dict update per atom of positive mass."""
    labels = induced.labels
    if len(labels) != view.full_alphabet_size or any(
        a != b for a, b in zip(labels, itertools.product(view.base.labels, repeat=view.n))
    ):
        raise AlphabetMismatchError("mapping was built over a different alphabet")
    levels = _construction_levels(view)
    groups = {}
    in_image = [0] * len(levels)
    for j, q in zip(atom_levels(view), induced.masses):
        if q > 0:
            groups[j, q] = groups.get((j, q), 0) + 1
            if j >= 0:
                in_image[j] += 1
    terms = [(count, j, q) for (j, q), count in groups.items()]
    return level_divergence(f, levels, terms, in_image)
