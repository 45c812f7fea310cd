"""FedGroup — data-driven similarity clustering (arXiv 2010.06870).

FedGroup forms groups by clustering clients on the *Euclidean distance of
decomposed cosine similarity* (EDC): the client-statistic matrix (here the
normalized label distributions; FedGroup uses flattened update vectors,
which our label statistics proxy without a pre-training round) is
decomposed into its top-``d`` singular directions, every client is
projected onto them by cosine similarity, and k-means++ clusters the
resulting low-dimensional profiles. Unlike CDG — which *deals* similar
clients apart so each group tends toward IID — FedGroup keeps similar
clients together, so each group specializes.
"""

from __future__ import annotations

import numpy as np

from repro.grouping.base import Group, Grouper
from repro.rng import make_rng

__all__ = ["FedGroupGrouping"]


def decomposed_cosine_features(
    stats: np.ndarray, num_components: int
) -> np.ndarray:
    """EDC features: cosine similarity of each row to the top singular
    directions of the (row-centered) statistic matrix.

    Returns an ``(n, d)`` array with ``d <= num_components`` (capped by the
    matrix rank bound ``min(n, m)``). Euclidean distance between rows is
    FedGroup's EDC metric.
    """
    S = np.asarray(stats, dtype=np.float64)
    n, m = S.shape
    d = max(1, min(num_components, n, m))
    # Top-d right singular vectors of the centered matrix: the directions
    # along which clients differ most.
    _, _, vt = np.linalg.svd(S - S.mean(axis=0, keepdims=True), full_matrices=False)
    basis = vt[:d]
    norms = np.linalg.norm(S, axis=1, keepdims=True)
    unit = np.divide(S, norms, out=np.zeros_like(S), where=norms > 0)
    bnorms = np.linalg.norm(basis, axis=1, keepdims=True)
    bunit = np.divide(basis, bnorms, out=np.zeros_like(basis), where=bnorms > 0)
    return unit @ bunit.T


class FedGroupGrouping(Grouper):
    """Cluster similar clients together via decomposed cosine similarity.

    Parameters
    ----------
    group_size:
        Target clients per group; the number of groups is
        ``floor(n / group_size)`` (minimum 1).
    num_components:
        ``d`` for the SVD decomposition step. Defaults to the number of
        groups (FedGroup's choice: one direction per prospective group).
    """

    name = "fedgroup"

    def __init__(self, group_size: int = 5, num_components: int | None = None):
        if group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {group_size}")
        if num_components is not None and num_components < 1:
            raise ValueError(
                f"num_components must be >= 1, got {num_components}"
            )
        self.group_size = int(group_size)
        self.num_components = num_components

    def group(
        self,
        label_matrix: np.ndarray,
        client_ids: np.ndarray,
        edge_id: int = 0,
        rng: np.random.Generator | int | None = None,
    ) -> list[Group]:
        rng = make_rng(rng)
        L = np.asarray(label_matrix, dtype=np.float64)
        n, _ = L.shape
        num_groups = max(1, n // self.group_size)

        if num_groups == 1 or n <= num_groups:
            if num_groups == 1:
                partitions = [list(range(n))]
            else:
                partitions = [[i] for i in range(n)]
            return self._build_groups(partitions, L, client_ids, edge_id)

        totals = L.sum(axis=1, keepdims=True)
        dist = np.divide(L, totals, out=np.zeros_like(L), where=totals > 0)
        features = decomposed_cosine_features(
            dist, self.num_components or num_groups
        )
        # SciPy's clustering loads at first use: most runs never cluster.
        from scipy.cluster.vq import kmeans2

        seed = int(rng.integers(0, 2**31 - 1))
        _, assignment = kmeans2(features, num_groups, minit="++", seed=seed)
        partitions = [
            np.flatnonzero(assignment == c).tolist()
            for c in range(num_groups)
        ]
        partitions = [p for p in partitions if p]
        return self._build_groups(partitions, L, client_ids, edge_id)

    def __repr__(self) -> str:
        return (
            f"FedGroupGrouping(group_size={self.group_size}, "
            f"num_components={self.num_components})"
        )
