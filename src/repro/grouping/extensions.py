"""Grouping extensions beyond the paper's Algorithm 2.

:class:`CoVGammaGrouping` is the conclusion's future-work item: also
control γ, the dispersion of *data amounts* within a group (Theorem 1's
third key observation: γ − 1 is the squared CoV of client sample counts).
The greedy criterion becomes a weighted sum of the label CoV and the
data-count CoV.
"""

from __future__ import annotations

import numpy as np

from repro.grouping.base import Group, Grouper
from repro.grouping.cov import cov_of_counts
from repro.rng import make_rng

__all__ = ["CoVGammaGrouping"]


class CoVGammaGrouping(Grouper):
    """Greedy grouping on ``CoV_labels + gamma_weight · CoV_counts``.

    ``CoV_counts`` is the coefficient of variation of the member clients'
    data sample counts — driving it down drives γ → 1 (Eq. 11), which
    Theorem 1 rewards on top of small ζ_g.

    Parameters
    ----------
    min_group_size / max_score:
        The same floor/threshold pattern as Algorithm 2, applied to the
        combined score.
    gamma_weight:
        Relative weight of the data-count CoV (0 recovers CoV-Grouping).
    """

    name = "covg_gamma"

    def __init__(
        self,
        min_group_size: int = 5,
        max_score: float = 0.5,
        gamma_weight: float = 0.5,
    ):
        if min_group_size < 1:
            raise ValueError(f"min_group_size must be >= 1, got {min_group_size}")
        if max_score < 0:
            raise ValueError(f"max_score must be >= 0, got {max_score}")
        if gamma_weight < 0:
            raise ValueError(f"gamma_weight must be >= 0, got {gamma_weight}")
        self.min_group_size = int(min_group_size)
        self.max_score = float(max_score)
        self.gamma_weight = float(gamma_weight)

    def _scores(
        self,
        counts: np.ndarray,
        sizes_sum: np.ndarray,
        sizes_sumsq: np.ndarray,
        k: int,
    ) -> np.ndarray:
        """Vectorized combined score for candidate groups.

        ``counts`` are candidate label-count rows; ``sizes_sum`` and
        ``sizes_sumsq`` the candidate groups' Σn_i and Σn_i² (so the count
        CoV comes from running moments — no per-candidate member scans).
        """
        label_cov = np.atleast_1d(cov_of_counts(counts))
        mean = sizes_sum / k
        var = np.maximum(sizes_sumsq / k - mean**2, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            count_cov = np.where(mean > 0, np.sqrt(var) / mean, np.inf)
        return label_cov + self.gamma_weight * count_cov

    def group(
        self,
        label_matrix: np.ndarray,
        client_ids: np.ndarray,
        edge_id: int = 0,
        rng: np.random.Generator | int | None = None,
    ) -> list[Group]:
        rng = make_rng(rng)
        L = np.asarray(label_matrix, dtype=np.float64)
        n = L.shape[0]
        client_ids = np.asarray(client_ids, dtype=np.int64)
        n_i = L.sum(axis=1)

        remaining = np.arange(n)
        partitions: list[list[int]] = []
        while remaining.size > 0:
            pick = int(rng.integers(remaining.size))
            seed = int(remaining[pick])
            remaining = np.delete(remaining, pick)
            members = [seed]
            counts = L[seed].copy()
            s_sum, s_sumsq = n_i[seed], n_i[seed] ** 2
            score = float(
                self._scores(counts[None, :], np.array([s_sum]),
                             np.array([s_sumsq]), 1)[0]
            )
            while (score > self.max_score or len(members) < self.min_group_size) and remaining.size:
                cand_counts = counts[None, :] + L[remaining]
                cand_sum = s_sum + n_i[remaining]
                cand_sumsq = s_sumsq + n_i[remaining] ** 2
                cand_scores = self._scores(
                    cand_counts, cand_sum, cand_sumsq, len(members) + 1
                )
                best = int(np.argmin(cand_scores))
                best_score = float(cand_scores[best])
                if best_score < score or len(members) < self.min_group_size:
                    chosen = int(remaining[best])
                    members.append(chosen)
                    counts += L[chosen]
                    s_sum += n_i[chosen]
                    s_sumsq += n_i[chosen] ** 2
                    score = best_score
                    remaining = np.delete(remaining, best)
                else:
                    break
            partitions.append(members)
        return self._build_groups(partitions, L, client_ids, edge_id)

    def __repr__(self) -> str:
        return (
            f"CoVGammaGrouping(min_group_size={self.min_group_size}, "
            f"max_score={self.max_score}, gamma_weight={self.gamma_weight})"
        )

