"""FedCLAR — clustered personalized FL (Presotto et al., PerCom 2022).

FedCLAR trains federated models, clusters clients by model-update
similarity at a chosen round, and thereafter trains one personalized model
per cluster. It optimizes per-cluster performance, not the global task —
the paper includes it to show personalized FL "is not suitable for
training a good global model" (its global accuracy *drops* after the
clustering round, Fig. 9).

Adaptation to the group setting: before the clustering round the run is
ordinary hierarchical FedAvg (random groups, uniform sampling). At the
clustering round each active client's local update direction is measured
from the current global model, clients are agglomeratively clustered by cosine
distance, and each cluster becomes an independent federation whose model
is trained on its own members only. Global accuracy is then the
data-weighted mean of the cluster models' accuracies on the global test
set.
"""

from __future__ import annotations

import numpy as np

from repro.core.client import run_local_rounds
from repro.core.trainer import GroupFELTrainer
from repro.grouping.base import Group
from repro.secure.backdoor import BackdoorDetector, _average_linkage, _flat_clusters

__all__ = ["FedCLARTrainer"]


class FedCLARTrainer(GroupFELTrainer):
    """Hierarchical FedCLAR.

    Until ``cluster_round`` this is the base trainer; its clustering step
    runs in the regroup stage. From then on the select stage returns every
    cluster group, each routed to its own model, and the rest of the round
    is the base trainer's (population step, faults, SCAFFOLD's fold, cost,
    wall clock): a ``group_failure`` plan fails cluster groups the same
    way it fails any sampled group, and a failed cluster's model sits out.

    Only the clients active at the clustering round are clustered. A
    client that departs later leaves its cluster for good; an arrival
    joins no cluster, so it trains in no cluster round.

    Parameters (beyond GroupFELTrainer's)
    ----------
    cluster_round:
        Global round at which clustering triggers.
    num_clusters:
        Number of client clusters (personalized models).
    """

    def __init__(
        self,
        *args,
        cluster_round: int = 10,
        num_clusters: int = 4,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if cluster_round < 1:
            raise ValueError(f"cluster_round must be >= 1, got {cluster_round}")
        if num_clusters < 2:
            raise ValueError(f"num_clusters must be >= 2, got {num_clusters}")
        self.cluster_round = int(cluster_round)
        self.num_clusters = int(num_clusters)
        self.cluster_models: dict[int, np.ndarray] | None = None
        #: each client's cluster; -1 for clients in none (inactive at the
        #: clustering round, or departed since) — the cluster groups'
        #: one source of truth
        self.client_cluster: np.ndarray | None = None
        self.cluster_groups: dict[int, Group] | None = None

    # ------------------------------------------------------------------ clustering
    def _active(self) -> np.ndarray:
        """The active-client mask (everyone, for a static population)."""
        engine = self.population_engine
        return np.ones(self.fed.num_clients, bool) if engine is None else engine.active

    def _cluster_clients(self) -> None:
        """Cluster the active clients by local-update cosine similarity."""
        ids = np.flatnonzero(self._active())
        if ids.size == 0:
            raise ValueError(
                f"FedCLAR has no active client to cluster at round {self.round_idx}"
            )
        updates = np.empty((ids.size, self.global_params.shape[0]))
        rng = self.rng.spawn(1)[0]
        clients = self.fed.materialize(ids)
        for row, cid in enumerate(ids.tolist()):
            end, _ = run_local_rounds(
                self.model,
                self.optimizer,
                clients[cid],
                start_params=self.global_params,
                local_rounds=1,
                batch_size=self.config.batch_size,
                rng=rng,
            )
            updates[row] = end - self.global_params
        dist = BackdoorDetector.cosine_distance_matrix(updates)
        tree = _average_linkage(dist)
        # At most num_clusters clusters; one active client makes one.
        labels = _flat_clusters(tree, self.num_clusters, "maxclust") - 1
        self.client_cluster = np.full(self.fed.num_clients, -1, dtype=np.int64)
        self.client_cluster[ids] = labels
        self.cluster_models = {
            c: self.global_params.copy() for c in np.unique(labels).tolist()
        }
        self._on_groups_changed()

    def _on_groups_changed(self) -> None:
        # Departed clients leave their cluster for good (a client that
        # joins later, returning or new, joins none); drift moves counts.
        if self.client_cluster is None:
            return
        self.client_cluster[~self._active()] = -1
        self.cluster_groups = {}
        for c in self.cluster_models:
            members = np.flatnonzero(self.client_cluster == c)
            self.cluster_groups[c] = Group(c, 0, members, self.fed.L[members].sum(0))

    # ------------------------------------------------------------------ stages
    def _regroup(self) -> None:
        super()._regroup()
        if self.cluster_models is None and self.round_idx >= self.cluster_round:
            self._cluster_clients()

    def _select(self) -> tuple[list[Group], np.ndarray]:
        if self.cluster_groups is None:
            return super()._select()
        groups = [g for g in self.cluster_groups.values() if g.size]
        return groups, np.ones(len(groups))

    def _route(self, selected: list[Group]) -> list[int]:
        if self.cluster_models is None:
            return super()._route(selected)
        return [list(self.cluster_models).index(g.group_id) for g in selected]

    def _models(self) -> tuple[list[np.ndarray], np.ndarray]:
        if self.cluster_models is None:
            return super()._models()
        # Each cluster weighs in at its share of the clustered data.
        n = np.array([self.cluster_groups[c].n_g for c in self.cluster_models])
        return list(self.cluster_models.values()), n / max(n.sum(), 1)

    def _adopt(self, models: list[np.ndarray]) -> None:
        if self.cluster_models is None:
            return super()._adopt(models)
        self.cluster_models = dict(zip(self.cluster_models, models))

    # ---------------------------------------------------------- checkpointing
    # capture_state / restore_state deep-copy this payload both ways.
    def extra_state_dict(self) -> dict | None:
        if self.cluster_models is None:
            return None
        return {
            "fedclar_models": self.cluster_models,
            "fedclar_client_cluster": self.client_cluster,
        }

    def load_extra_state_dict(self, state: dict | None) -> None:
        if not state:
            # Checkpoint taken before the clustering round: resume the
            # plain hierarchical phase.
            self.cluster_models = None
            self.client_cluster = None
            self.cluster_groups = None
            return
        if "fedclar_models" not in state:
            raise ValueError(
                "checkpoint extra state is not FedCLAR's — it was written "
                "by a different trainer class"
            )
        self.cluster_models = {int(c): p for c, p in state["fedclar_models"].items()}
        self.client_cluster = state["fedclar_client_cluster"]
        self._on_groups_changed()
