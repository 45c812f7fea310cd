"""IFCA — the Iterative Federated Clustering Algorithm (Ghosh et al., 2020).

IFCA maintains ``k`` cluster center models. Every round, each participant
estimates its cluster identity by evaluating all ``k`` centers on its own
data and picking the lowest loss, trains from that center, and the server
aggregates updates per cluster. Centers are *cold-started* as distinct
perturbations of one base model (the FlexCFL/IFCA trick of re-seeding the
initializer per center, SNIPPETS.md snippet 2) so the loss-based
assignment can break symmetry in round one.

Adaptation to the group setting: the unit of cluster identity is the
*group* (a group's loss under a center is the data-weighted mean of its
members' losses), so cluster assignment composes with group formation,
sampling, faults, and population churn unchanged. Global accuracy is the
data-weighted mean of the center models' test accuracies — like FedCLAR,
IFCA optimizes per-cluster performance rather than one global model.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.aggregation import weighted_average
from repro.core.trainer import GroupFELTrainer
from repro.faults import FaultEvent
from repro.grouping.base import Group
from repro.rng import derive_seed, make_rng

__all__ = ["IFCATrainer"]


class IFCATrainer(GroupFELTrainer):
    """Group-level IFCA.

    Parameters (beyond GroupFELTrainer's)
    ----------
    num_clusters:
        ``k`` — the number of center models.
    init_scale:
        Cold-start perturbation scale, relative to the base parameter
        spread (each center ``c`` adds seeded noise of standard deviation
        ``init_scale * std(base)``).
    """

    def __init__(
        self,
        *args,
        num_clusters: int = 3,
        init_scale: float = 0.5,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if num_clusters < 2:
            raise ValueError(f"num_clusters must be >= 2, got {num_clusters}")
        if init_scale <= 0:
            raise ValueError(f"init_scale must be > 0, got {init_scale}")
        # Pipelined evaluation scores a single snapshotted parameter
        # vector; IFCA's metric is a weighted blend over k centers, so the
        # deferred point would diverge from evaluate(). Keep rounds
        # synchronous.
        self.config = replace(self.config, pipeline_rounds=False)
        self.num_clusters = int(num_clusters)
        self.init_scale = float(init_scale)
        self.center_models: list[np.ndarray] = self._cold_start(
            self.global_params
        )
        #: group_id -> center index, refreshed for participants each round
        #: and for everyone on regroup/churn.
        self.cluster_assignment: dict[int, int] = {}
        self._assign_all_groups()

    # ------------------------------------------------------------- clustering
    def _cold_start(self, base: np.ndarray) -> list[np.ndarray]:
        """k distinct centers from one base: per-center seeded noise."""
        spread = float(base.std()) or 1.0
        centers = []
        for c in range(self.num_clusters):
            rng = make_rng(derive_seed(self.config.seed, "ifca-center", c))
            noise = rng.normal(0.0, self.init_scale * spread, base.shape)
            centers.append(base + noise)
        return centers

    def _group_loss(self, group: Group, params: np.ndarray) -> float:
        """Data-weighted mean member loss of ``group`` under ``params``."""
        self.model.set_params(params)
        clients = self.fed.materialize(group.members)
        loss = 0.0
        total = 0
        for cid in group.members:
            client = clients[int(cid)]
            l, _ = self.model.evaluate(client.x, client.y)
            loss += client.n * l
            total += client.n
        return loss / max(total, 1)

    def _assign_cluster(self, group: Group) -> int:
        """Lowest-loss center for ``group`` (ties break to the lowest
        index, deterministically)."""
        losses = [
            self._group_loss(group, center) for center in self.center_models
        ]
        choice = int(np.argmin(losses))
        self.cluster_assignment[group.group_id] = choice
        return choice

    def _assign_all_groups(self) -> None:
        self.cluster_assignment = {}
        for g in self.groups:
            self._assign_cluster(g)

    def _on_groups_changed(self) -> None:
        # Regroup or churn rebuilt the partition: group ids no longer name
        # the same member sets, so re-estimate everyone.
        self._assign_all_groups()

    def _consensus(self) -> np.ndarray:
        """Data-mass-weighted blend of the centers — the single vector
        checkpoints and compatibility surfaces expect in global_params."""
        mass = np.zeros(self.num_clusters)
        for g in self.groups:
            c = self.cluster_assignment.get(g.group_id)
            if c is not None:
                mass[c] += g.n_g
        if mass.sum() <= 0:
            mass[:] = 1.0
        return weighted_average(
            np.vstack(self.center_models), mass, normalize=True
        )

    # --------------------------------------------------------------- training
    def _train_selected(
        self,
        selected: list[Group],
        weights: np.ndarray,
        group_rngs: list,
        round_span_id: int | None,
        round_events: list[FaultEvent],
    ) -> None:
        tel = self.telemetry
        # E-step: participants re-estimate their cluster identity against
        # the current centers.
        for g in selected:
            self._assign_cluster(g)
        by_cluster: dict[int, list[int]] = {}
        for i, g in enumerate(selected):
            by_cluster.setdefault(self.cluster_assignment[g.group_id], []).append(i)

        adaptive = self.sampler.adaptive is not None
        norms = np.empty(len(selected)) if adaptive else None
        total_bytes = total_size = 0
        # M-step: each cluster's groups train from its center and fold back
        # into it. Clusters run in index order (deterministic on every
        # backend); the executor copies results out per call, so the
        # several dispatches per round cannot alias each other.
        for c in sorted(by_cluster):
            idxs = by_cluster[c]
            subset = [selected[i] for i in idxs]
            sub_rngs = [group_rngs[i] for i in idxs]
            start = self.center_models[c]
            results = self._execute_groups(subset, sub_rngs, start, round_span_id)
            for _, events in results:
                round_events.extend(events)
            stacked = np.vstack([params for params, _ in results])
            if norms is not None:
                norms[idxs] = np.linalg.norm(stacked - start, axis=1)
            with tel.span("cloud_aggregate", cluster=c, num_groups=len(subset)):
                self.center_models[c] = weighted_average(
                    stacked, weights[idxs], normalize=True
                )
            total_bytes += stacked.nbytes
            total_size += stacked.size
        if norms is not None:
            self.sampler.observe_update_norms(selected, norms)
        self.global_params = self._consensus()
        if tel.enabled:
            tel.inc("cloud_bytes_aggregated", float(total_bytes))
            tel.inc("cloud_params_averaged", float(total_size))

    def evaluate(self) -> tuple[float, float]:
        """Data-weighted mean of per-center global-test performance."""
        mass = np.zeros(self.num_clusters)
        for g in self.groups:
            c = self.cluster_assignment.get(g.group_id)
            if c is not None:
                mass[c] += g.n_g
        if mass.sum() <= 0:
            mass[:] = 1.0
        mass = mass / mass.sum()
        loss = acc = 0.0
        for c, params in enumerate(self.center_models):
            if mass[c] == 0.0:
                continue
            self.model.set_params(params)
            l, a = self.model.evaluate(self.fed.test.x, self.fed.test.y)
            loss += mass[c] * l
            acc += mass[c] * a
        return loss, acc

    # ---------------------------------------------------------- checkpointing
    def extra_state_dict(self) -> dict | None:
        return {
            "ifca_centers": [np.array(c, copy=True) for c in self.center_models],
            "ifca_assignment": dict(self.cluster_assignment),
        }

    def load_extra_state_dict(self, state: dict | None) -> None:
        if not state or "ifca_centers" not in state:
            raise ValueError(
                "checkpoint has no IFCA center state — it was written by a "
                "different trainer class"
            )
        centers = state["ifca_centers"]
        if len(centers) != self.num_clusters:
            raise ValueError(
                f"checkpoint has {len(centers)} IFCA centers but this "
                f"trainer expects {self.num_clusters}"
            )
        self.center_models = [np.array(c, copy=True) for c in centers]
        self.cluster_assignment = {
            int(k): int(v) for k, v in state["ifca_assignment"].items()
        }
