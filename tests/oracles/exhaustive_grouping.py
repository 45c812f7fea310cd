"""The §5.2 grouping objective and its exact minimizer, by brute force.

:func:`exhaustive_optimal_grouping` enumerates every equal-size partition —
feasible only for tiny client sets — so the tests can measure
CoV-Grouping's greedy optimality gap against a true lower bound.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.grouping import cov_of_counts

__all__ = ["exhaustive_optimal_grouping", "sum_cov_objective"]


def sum_cov_objective(L: np.ndarray, partition: list[list[int]]) -> float:
    """Σ_g CoV(g) — the objective of the §5.2 optimization problem."""
    total = 0.0
    for members in partition:
        counts = np.asarray(L, dtype=np.float64)[list(members)].sum(axis=0)
        total += float(cov_of_counts(counts))
    return total


def _partitions_into_groups(items: list[int], group_size: int):
    """Yield all partitions of ``items`` into groups of exactly group_size.

    Canonical recursion: the first remaining item always joins the next
    group, avoiding duplicate orderings.
    """
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for combo in itertools.combinations(rest, group_size - 1):
        group = [first, *combo]
        remaining = [x for x in rest if x not in combo]
        for tail in _partitions_into_groups(remaining, group_size):
            yield [group, *tail]


def exhaustive_optimal_grouping(
    label_matrix: np.ndarray, group_size: int, max_clients: int = 12
) -> tuple[list[list[int]], float]:
    """Exact minimizer of Σ CoV over equal-size partitions (tiny inputs).

    Raises on more than ``max_clients`` clients (the partition count grows
    super-exponentially) or when the client count is not divisible by
    ``group_size``.
    """
    L = np.asarray(label_matrix, dtype=np.float64)
    n = L.shape[0]
    if n > max_clients:
        raise ValueError(f"exhaustive search limited to {max_clients} clients, got {n}")
    if n % group_size:
        raise ValueError(f"{n} clients not divisible by group size {group_size}")
    best: tuple[float, list[list[int]]] | None = None
    for partition in _partitions_into_groups(list(range(n)), group_size):
        obj = sum_cov_objective(L, partition)
        if best is None or obj < best[0]:
            best = (obj, partition)
    assert best is not None
    return best[1], best[0]
