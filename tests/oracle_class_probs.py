"""Reference float class probabilities and exact normalisation.

A frozen copy of two library paths as they were before the exact and
float lanes shared one integer reading of masses:

* the float class probability of a view's type class, the product of
  the base's support masses raised to the composition, computed from
  each mass's own integer ratio and rounded once.  The constructions
  read it at the start of every run of equal level keys, and the bin
  weights of a view for every class;
* the normalisation of exact weights into ``Fraction`` masses, kept as
  they are when they sum to one and divided by their total otherwise.

It imports nothing from the package under test: a view is given by its
base masses, its compositions and its level keys, as plain sequences.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["rounded_product", "construction_probs", "class_weights", "normalise"]


def rounded_product(masses, composition) -> float:
    """prod m_i^k_i of float masses, computed exactly and rounded once."""
    num = den = 1
    for m, k in zip(masses, composition):
        a, b = m.as_integer_ratio()
        num *= a**k
        den *= b**k
    return num / den


def _run_starts(keys) -> list[int]:
    return [i for i in range(len(keys)) if i == 0 or keys[i] != keys[i - 1]]


def construction_probs(base_masses, compositions, level_keys) -> tuple[float, ...]:
    """One probability per level: the class probability at each run start."""
    support = [m for m in base_masses if m > 0]
    return tuple(rounded_product(support, compositions[i]) for i in _run_starts(level_keys))


def class_weights(base_masses, compositions) -> list[float]:
    """The bin weight of one label of each class, in class order."""
    support = [m for m in base_masses if m > 0]
    return [rounded_product(support, comp) for comp in compositions]


def normalise(weights) -> tuple[Fraction, ...]:
    """Exact masses of nonnegative int or Fraction weights with a positive sum."""
    total_f = Fraction(sum(weights))
    if total_f == 1:
        return tuple(Fraction(w) for w in weights)
    return tuple(Fraction(w) / total_f for w in weights)
