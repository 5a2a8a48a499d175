"""Reference class log-probabilities, each class folded on its own.

The library folds a view's classes a row at a time, from tables of
k log m terms.  This oracle folds every class by itself: its terms
k_1 log m_1, ..., k_s log m_s added left to right from 0, the order the
library documents for its fold (the head terms by ``sum`` from 0, then
the second-to-last term, then the last).  For at most two head terms,
s <= 4, ``sum`` adds left to right on every Python version.  A mass's
log is ``math.log`` of a float and, for a ``Fraction``, the log of its
numerator less the log of its denominator.  It imports nothing from the
package under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["class_logs"]


def _log(m) -> float:
    if isinstance(m, Fraction):
        return math.log(m.numerator) - math.log(m.denominator)
    return math.log(m)


def class_logs(base_masses, compositions) -> list[float]:
    """The natural-log probability of each composition over the base's support masses."""
    logs = [_log(m) for m in base_masses if m > 0]
    out = []
    for comp in compositions:
        total = 0
        for log_m, k in zip(logs, comp):
            total = total + log_m * k
        out.append(total)
    return out
