"""Exact-rational placement — the oracle for ``OnlineGroupMaintainer``.

Scores every candidate group as a ``fractions.Fraction`` and takes
``min()`` over them in position order, so exact ties go to the first
candidate:

* cov:  CoV² = m·S2/S1² − 1  → order by S2/S1²;
* eq27: eq27² = S2/S1 − S1/m → order by (m·S2 − S1²)/(m·S1);

where S1, S2 are the candidate's Σ_j c_j and Σ_j c_j² with the arriving
client's row added. A candidate with S1 = 0 has CoV = ∞ and sorts last.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

__all__ = ["best_placement"]


def _score(counts: list[int], metric: str) -> tuple[int, Fraction]:
    m = len(counts)
    s1 = sum(counts)
    s2 = sum(c * c for c in counts)
    if s1 == 0:
        return (1, Fraction(0))
    if metric == "eq27":
        return (0, Fraction(m * s2 - s1 * s1, m * s1))
    return (0, Fraction(s2, s1 * s1))


def best_placement(group_counts, row, metric: str = "cov") -> int:
    """Position of the group whose counts plus ``row`` score lowest."""
    add = [int(v) for v in np.asarray(row).tolist()]
    scores = [
        _score([int(c) + a for c, a in zip(np.asarray(g).tolist(), add)], metric)
        for g in group_counts
    ]
    return min(range(len(scores)), key=scores.__getitem__)
