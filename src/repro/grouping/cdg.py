"""CDG — "clustering then distribution grouping", ported from OUEA [13].

OUEA first clusters *similar* clients together (similar label
distributions), then deals members of each cluster round-robin across the
groups, so every group receives a spread of client types and its combined
data tends toward IID. Originally an edge-assignment policy; here ported to
group formation (as the paper does for its experiments, §7.1).
"""

from __future__ import annotations

import numpy as np

from repro.grouping.base import Group, Grouper
from repro.rng import make_rng

__all__ = ["CDGGrouping"]


class CDGGrouping(Grouper):
    """Cluster clients by label distribution, then distribute round-robin.

    Parameters
    ----------
    group_size:
        Target clients per group; the number of groups is
        ``floor(n / group_size)`` (minimum 1).
    num_clusters:
        K for the client-similarity clustering step. Defaults to the number
        of label classes (one cluster per dominant label under heavy skew).
    """

    name = "cdg"

    def __init__(self, group_size: int = 5, num_clusters: int | None = None):
        if group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {group_size}")
        self.group_size = int(group_size)
        self.num_clusters = num_clusters

    def group(
        self,
        label_matrix: np.ndarray,
        client_ids: np.ndarray,
        edge_id: int = 0,
        rng: np.random.Generator | int | None = None,
    ) -> list[Group]:
        rng = make_rng(rng)
        L = np.asarray(label_matrix, dtype=np.float64)
        n, m = L.shape
        num_groups = max(1, n // self.group_size)
        k = min(self.num_clusters or m, n)

        # Step 1: cluster clients on normalized label distributions.
        totals = L.sum(axis=1, keepdims=True)
        dist = np.divide(L, totals, out=np.zeros_like(L), where=totals > 0)
        if n > k:
            # SciPy's clustering loads at first use: most runs never cluster.
            from scipy.cluster.vq import kmeans2

            seed = int(rng.integers(0, 2**31 - 1))
            _, assignment = kmeans2(dist, k, minit="++", seed=seed)
        else:
            assignment = np.arange(n)

        # Step 2: deal each cluster's members across groups round-robin,
        # continuing the cursor between clusters so sizes stay balanced.
        partitions: list[list[int]] = [[] for _ in range(num_groups)]
        cursor = 0
        for cluster in np.unique(assignment):
            members = np.flatnonzero(assignment == cluster)
            rng.shuffle(members)
            for idx in members:
                partitions[cursor % num_groups].append(int(idx))
                cursor += 1
        partitions = [p for p in partitions if p]
        return self._build_groups(partitions, L, client_ids, edge_id)

    def __repr__(self) -> str:
        return f"CDGGrouping(group_size={self.group_size}, num_clusters={self.num_clusters})"
