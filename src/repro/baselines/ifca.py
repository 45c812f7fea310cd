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

import numpy as np

from repro.core.aggregation import weighted_average
from repro.core.trainer import GroupFELTrainer
from repro.grouping.base import Group
from repro.rng import derive_seed, make_rng

__all__ = ["IFCATrainer"]


class IFCATrainer(GroupFELTrainer):
    """Group-level IFCA.

    Of the base trainer's round it substitutes the route (the E-step), the
    models (the k centers, evaluated at their groups' data mass) and their
    adoption (``global_params`` becomes the centers' consensus).

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
        self.num_clusters = int(num_clusters)
        self.init_scale = float(init_scale)
        self.center_models: list[np.ndarray] = self._cold_start(
            self.global_params
        )
        #: group_id -> center index, refreshed for participants each round
        #: and for everyone on regroup/churn.
        self.cluster_assignment: dict[int, int] = {}
        self._route(self.groups)

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

    def _on_groups_changed(self) -> None:
        # Regroup or churn rebuilt the partition: group ids no longer name
        # the same member sets, so re-estimate everyone.
        self.cluster_assignment = {}
        self._route(self.groups)

    def _mass(self) -> np.ndarray:
        """Data mass of each center's assigned groups (uniform if none)."""
        mass = np.zeros(self.num_clusters)
        for g in self.groups:
            c = self.cluster_assignment.get(g.group_id)
            if c is not None:
                mass[c] += g.n_g
        if mass.sum() <= 0:
            mass[:] = 1.0
        return mass

    def _consensus(self) -> np.ndarray:
        """Data-mass-weighted blend of the centers — the single vector
        checkpoints and compatibility surfaces expect in global_params."""
        return weighted_average(
            np.vstack(self.center_models), self._mass(), normalize=True
        )

    # ----------------------------------------------------------------- stages
    def _route(self, selected: list[Group]) -> list[int]:
        # E-step: each participant re-estimates its cluster identity as the
        # lowest-loss center (ties break to the lowest index), then trains
        # from the center it chose.
        for g in selected:
            losses = [self._group_loss(g, center) for center in self.center_models]
            self.cluster_assignment[g.group_id] = int(np.argmin(losses))
        return [self.cluster_assignment[g.group_id] for g in selected]

    def _models(self) -> tuple[list[np.ndarray], np.ndarray]:
        mass = self._mass()
        return list(self.center_models), mass / mass.sum()

    def _adopt(self, models: list[np.ndarray]) -> None:
        self.center_models = models
        self.global_params = self._consensus()

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
