"""FLAME-style backdoor detection for group aggregation.

The defense from "FLAME: Taming Backdoors in Federated Learning" adapted to
the group setting: (1) pairwise cosine distances between client updates —
the Θ(|g|²·d) step that makes this a quadratic group operation; (2)
agglomerative clustering on the distance matrix, keeping the majority
cluster; (3) median-norm clipping of the admitted updates; (4) optional
Gaussian noise for a DP-style guarantee.
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
        """Run the defense over updates of shape (clients, dim)."""
        updates = np.asarray(updates, dtype=np.float64)
        if updates.ndim != 2:
            raise ValueError(f"expected (clients, dim), got {updates.shape}")
        s = updates.shape[0]
        rng = make_rng(rng)
        if s == 1:
            admitted = np.array([0])
            flagged = np.array([], dtype=np.int64)
        else:
            # SciPy's clustering loads at first use: most runs never cluster.
            from scipy.cluster.hierarchy import fcluster, linkage
            from scipy.spatial.distance import squareform

            dist = self.cosine_distance_matrix(updates)
            condensed = squareform(dist, checks=False)
            tree = linkage(condensed, method="average")
            if self.criterion == "distance":
                labels = fcluster(tree, t=self.distance_threshold, criterion="distance")
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
        # SciPy's clustering loads at first use: most runs never cluster.
        from scipy.cluster.hierarchy import fcluster

        labels = fcluster(tree, t=2, criterion="maxclust")
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
