"""FLAME-style backdoor detection for group aggregation.

The defense from "FLAME: Taming Backdoors in Federated Learning" adapted to
the group setting: (1) pairwise cosine distances between client updates —
the Θ(|g|²·d) step that makes this a quadratic group operation; (2)
average-linkage agglomerative clustering on the distance matrix, keeping
the majority cluster; (3) median-norm clipping of the admitted updates; (4)
optional Gaussian noise for a DP-style guarantee.

The clustering is an in-module NumPy transcription of SciPy's
``linkage(method="average")`` and ``fcluster`` (``_average_linkage``,
``_flat_clusters``), bit-identical to them, so a run that filters never
loads ``scipy.cluster`` or ``scipy.spatial`` (≈ 32 MB of resident memory
for a ≤ 1 ms computation on a group-sized matrix).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rng import make_rng
from repro.telemetry import Telemetry, resolve as resolve_telemetry

__all__ = ["DefenseReport", "BackdoorDetector"]


@dataclass
class DefenseReport:
    """Outcome of one backdoor-detection pass.

    ``admitted`` indexes the updates kept; ``flagged`` the rejected ones;
    ``clip_norm`` is the median L2 norm used for clipping; ``filtered`` the
    defended update matrix ready for aggregation.
    """

    admitted: np.ndarray
    flagged: np.ndarray
    clip_norm: float
    filtered: np.ndarray


class BackdoorDetector:
    """Cluster-and-clip defense over a group's client updates.

    Parameters
    ----------
    distance_threshold:
        Cosine-distance cut for the agglomerative clustering (``distance``
        criterion); updates whose cluster is not the largest are flagged.
    noise_std_factor:
        Gaussian noise std as a fraction of the clip norm (0 disables).
    criterion:
        ``"distance"`` — flat clusters at ``distance_threshold`` (fragile
        when honest updates are mutually near-orthogonal, as with small
        local datasets). ``"split"`` — majority split with a coordination
        guard: cut the dendrogram into two clusters and flag the minority
        only when it is ``separation_factor``× tighter than the majority
        (coordinated sybils are mutually similar; honest updates are not).
    separation_factor:
        Tightness ratio required to flag the minority (``split`` mode).
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`; each detection records
        ``backdoor_detect_calls`` / ``backdoor_clients_flagged`` /
        ``backdoor_pairwise_distances`` (the Θ(s²) work) counters.
    """

    def __init__(
        self,
        distance_threshold: float = 0.5,
        noise_std_factor: float = 0.0,
        criterion: str = "distance",
        separation_factor: float = 1.3,
        telemetry: Telemetry | None = None,
    ):
        if distance_threshold <= 0:
            raise ValueError(f"distance_threshold must be > 0, got {distance_threshold}")
        if noise_std_factor < 0:
            raise ValueError(f"noise_std_factor must be >= 0, got {noise_std_factor}")
        if criterion not in ("distance", "split"):
            raise ValueError(f"criterion must be 'distance' or 'split', got {criterion!r}")
        if separation_factor <= 1.0:
            raise ValueError(f"separation_factor must be > 1, got {separation_factor}")
        self.distance_threshold = float(distance_threshold)
        self.noise_std_factor = float(noise_std_factor)
        self.criterion = criterion
        self.separation_factor = float(separation_factor)
        self.telemetry = resolve_telemetry(telemetry)

    @staticmethod
    def cosine_distance_matrix(updates: np.ndarray) -> np.ndarray:
        """Pairwise cosine distances, shape (s, s). The Θ(s²·d) kernel.

        One Gram product ``updates @ updates.T`` normalized by the norm
        outer product — the norms fall out of the Gram diagonal, so the
        (s, d) matrix is read exactly once and never copied row-normalized.
        """
        updates = np.asarray(updates, dtype=np.float64)
        gram = updates @ updates.T
        norms = np.sqrt(np.diagonal(gram))
        safe = np.where(norms > 0, norms, 1.0)
        sim = np.clip(gram / np.outer(safe, safe), -1.0, 1.0)
        dist = 1.0 - sim
        np.fill_diagonal(dist, 0.0)
        # Guard tiny negative values from accumulated FP error.
        return np.maximum(dist, 0.0)

    def detect(
        self,
        updates: np.ndarray,
        rng: np.random.Generator | int | None = None,
    ) -> DefenseReport:
        """Run the defense over updates of shape (clients, dim).

        An empty matrix, or rows holding NaN or inf (diverged clients),
        raise ``ValueError`` naming the rows.
        """
        updates = np.asarray(updates, dtype=np.float64)
        if updates.ndim != 2:
            raise ValueError(f"expected (clients, dim), got {updates.shape}")
        s = updates.shape[0]
        if s == 0:
            raise ValueError(f"no updates to screen: got an empty {updates.shape} matrix")
        diverged = np.flatnonzero(~np.isfinite(updates).all(axis=1))
        if diverged.size:
            raise ValueError(
                f"update rows {diverged.tolist()} hold NaN or inf values: a "
                "diverged client cannot be placed by cosine distance"
            )
        rng = make_rng(rng)
        if s == 1:
            admitted = np.array([0])
            flagged = np.array([], dtype=np.int64)
        else:
            dist = self.cosine_distance_matrix(updates)
            tree = _average_linkage(dist)
            if self.criterion == "distance":
                labels = _flat_clusters(tree, self.distance_threshold, "distance")
                counts = np.bincount(labels)
                majority = int(np.argmax(counts))
                admitted = np.flatnonzero(labels == majority)
                flagged = np.flatnonzero(labels != majority)
            else:
                admitted, flagged = self._split_criterion(tree, dist, s)

        kept = updates[admitted]
        norms = np.linalg.norm(kept, axis=1)
        clip_norm = float(np.median(norms)) if norms.size else 0.0
        if clip_norm > 0:
            factors = np.minimum(1.0, clip_norm / np.where(norms > 0, norms, clip_norm))
            kept = kept * factors[:, None]
        if self.noise_std_factor > 0 and clip_norm > 0:
            kept = kept + rng.normal(
                0.0, self.noise_std_factor * clip_norm, size=kept.shape
            )
        if self.telemetry.enabled:
            self.telemetry.inc("backdoor_detect_calls")
            self.telemetry.inc("backdoor_clients_flagged", float(flagged.size))
            self.telemetry.inc("backdoor_pairwise_distances", float(s * (s - 1) / 2))
        return DefenseReport(
            admitted=admitted, flagged=flagged, clip_norm=clip_norm, filtered=kept
        )

    def _split_criterion(
        self, tree: np.ndarray, dist: np.ndarray, s: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Majority split with a coordination (tightness) guard.

        Cut the dendrogram into two clusters and flag the minority only
        when it is markedly *tighter* than the majority: coordinated
        poisoning produces mutually similar updates (their gradients share
        the injected objective), whereas honest small-shard updates are
        mutually near-orthogonal — the sybil signal of FoolsGold/FLAME.
        An attack-free group splits into two similarly-loose halves and is
        admitted wholesale.
        """
        labels = _flat_clusters(tree, 2, "maxclust")
        counts = np.bincount(labels)
        majority = int(np.argmax(counts))
        minority_idx = np.flatnonzero(labels != majority)
        majority_idx = np.flatnonzero(labels == majority)
        # 50/50 is ambiguous: admit everyone rather than guess.
        if minority_idx.size == 0 or minority_idx.size >= majority_idx.size:
            return np.arange(s), np.array([], dtype=np.int64)

        def tightness(idx: np.ndarray) -> float:
            if idx.size < 2:
                return 0.0  # singletons count as maximally coordinated
            sub = dist[np.ix_(idx, idx)]
            return float(sub[np.triu_indices(idx.size, k=1)].mean())

        minority_tight = tightness(minority_idx)
        majority_tight = tightness(majority_idx)
        if majority_tight <= 0:
            return np.arange(s), np.array([], dtype=np.int64)
        if minority_tight < majority_tight / self.separation_factor:
            return majority_idx, minority_idx
        return np.arange(s), np.array([], dtype=np.int64)


def _average_linkage(dist: np.ndarray) -> np.ndarray:
    """Average-linkage dendrogram of a square distance matrix, SciPy's form.

    Bit-identical to ``scipy.cluster.hierarchy.linkage(squareform(dist),
    method="average")``: the same nearest-neighbour chain (the scan prefers
    the chain's previous element, then the first strictly nearer cluster),
    the same merge convention (``x < y``; ``y`` holds the merged cluster),
    the Lance–Williams update evaluated in SciPy's operation order, a stable
    sort of the merge heights and union-find relabelling. Row ``k`` is
    ``(a, b, height, size)`` with ``a < b`` and ``n + k`` the new cluster.
    """
    n = dist.shape[0]
    d = np.array(dist, dtype=np.float64)
    # Retired slots and the diagonal read +inf, so a row's argmin is the
    # first nearest live cluster with no mask.
    np.fill_diagonal(d, np.inf)
    size = [1] * n
    merges = []
    chain: list[int] = []
    for _ in range(n - 1):
        if not chain:
            chain.append(next(i for i, m in enumerate(size) if m))
        while True:
            x = chain[-1]
            y = int(np.argmin(d[x]))
            if len(chain) > 1 and not d[x, y] < d[x, chain[-2]]:
                y = chain[-2]  # x and its predecessor are mutual neighbours
                break
            chain.append(y)
        del chain[-2:]
        x, y = min(x, y), max(x, y)
        nx, ny = size[x], size[y]
        merges.append((x, y, d[x, y], nx + ny))
        size[x], size[y] = 0, nx + ny
        d[y] = d[:, y] = (nx * d[x] + ny * d[y]) / (nx + ny)
        d[x] = d[:, x] = np.inf
    tree = np.array(merges, dtype=np.float64).reshape(-1, 4)
    tree = tree[np.argsort(tree[:, 2], kind="mergesort")]
    parent = list(range(2 * n - 1))
    count = [1] * (2 * n - 1)
    for k in range(n - 1):
        roots = []
        for node in tree[k, :2].astype(int).tolist():
            while parent[node] != node:
                node = parent[node]
            roots.append(node)
        a, b = sorted(roots)
        parent[a] = parent[b] = n + k
        count[n + k] = count[a] + count[b]
        tree[k] = a, b, tree[k, 2], count[n + k]
    return tree


def _flat_clusters(tree: np.ndarray, t: float, criterion: str) -> np.ndarray:
    """Flat cluster labels ``1..`` of a ``_average_linkage`` tree, SciPy's way.

    Bit-identical to ``fcluster(tree, t, criterion)`` for ``"distance"``
    (a subtree is one cluster when its merge height is ``<= t``) and
    ``"maxclust"`` (at most ``t`` clusters: the cut at the height whose
    merges leave ``t``). Labels are numbered in SciPy's depth-first order:
    internal children before leaf children, left before right.
    """
    n = tree.shape[0] + 1
    # Heights are sorted and children precede parents, so a subtree's
    # largest merge height is its root's.
    heights = tree[:, 2]
    cut = t
    if criterion == "maxclust":
        if t >= n:
            return np.arange(1, n + 1, dtype=np.int32)
        cut = heights[n - 1 - int(t)]
    children = tree[:, :2].astype(int).tolist()
    labels = np.zeros(n, dtype=np.int32)
    count = 0
    stack = [(2 * n - 2, 0)]  # (node, label of the cluster it sits in; 0: none)
    while stack:
        node, label = stack.pop()
        if node < 0:  # every internal child done: label the leaf children
            for leaf in (c for c in children[-node - n] if c < n):
                if not label:
                    count += 1
                labels[leaf] = label or count
            continue
        if not label and heights[node - n] <= cut:
            count += 1
            label = count
        stack.append((-node, label))
        stack.extend((c, label) for c in reversed(children[node - n]) if c >= n)
    return labels
