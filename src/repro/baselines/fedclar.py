"""FedCLAR — clustered personalized FL (Presotto et al., PerCom 2022).

FedCLAR trains federated models, clusters clients by model-update
similarity at a chosen round, and thereafter trains one personalized model
per cluster. It optimizes per-cluster performance, not the global task —
the paper includes it to show personalized FL "is not suitable for
training a good global model" (its global accuracy *drops* after the
clustering round, Fig. 9).

Adaptation to the group setting: before the clustering round the run is
ordinary hierarchical FedAvg (random groups, uniform sampling). At the
clustering round each client's local update direction is measured from the
current global model, clients are agglomeratively clustered by cosine
distance, and each cluster becomes an independent federation whose model
is trained on its own members only. Global accuracy is then the
data-weighted mean of the cluster models' accuracies on the global test
set.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import squareform

from repro.core.client import run_local_rounds
from repro.core.trainer import GroupFELTrainer
from repro.grouping.base import Group
from repro.secure.backdoor import BackdoorDetector

__all__ = ["FedCLARTrainer"]


class FedCLARTrainer(GroupFELTrainer):
    """Hierarchical FedCLAR.

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
        # Post-clustering evaluation blends k cluster models; the pipelined
        # eval path scores one snapshotted vector and would diverge.
        self.config = replace(self.config, pipeline_rounds=False)
        self.cluster_round = int(cluster_round)
        self.num_clusters = int(num_clusters)
        self.cluster_models: dict[int, np.ndarray] | None = None
        self.client_cluster: np.ndarray | None = None
        self.cluster_groups: dict[int, Group] | None = None

    # ------------------------------------------------------------------ clustering
    def _cluster_clients(self) -> None:
        """Cluster clients by local-update cosine similarity."""
        n = self.fed.num_clients
        updates = np.empty((n, self.global_params.shape[0]))
        rng = self.rng.spawn(1)[0]
        for cid, client in self.fed.materialize(range(n)).items():
            end, _ = run_local_rounds(
                self.model,
                self.optimizer,
                client,
                start_params=self.global_params,
                local_rounds=1,
                batch_size=self.config.batch_size,
                rng=rng,
            )
            updates[cid] = end - self.global_params
        dist = BackdoorDetector.cosine_distance_matrix(updates)
        tree = linkage(squareform(dist, checks=False), method="average")
        k = min(self.num_clusters, n)
        labels = fcluster(tree, t=k, criterion="maxclust") - 1
        self.client_cluster = labels
        self.cluster_models = {}
        self.cluster_groups = {}
        for c in np.unique(labels):
            members = np.flatnonzero(labels == c)
            self.cluster_models[int(c)] = self.global_params.copy()
            self.cluster_groups[int(c)] = Group(
                group_id=int(c),
                edge_id=0,
                members=members,
                label_counts=self.fed.L[members].sum(axis=0),
            )

    # ------------------------------------------------------------------ training
    def train_round(self) -> float:
        if self.cluster_models is None:
            cost = super().train_round()
            if self.round_idx >= self.cluster_round:
                self._cluster_clients()
            return cost

        # Post-clustering: every cluster trains its own model on its members.
        assert self.cluster_groups is not None
        round_events = []
        for cid, group in self.cluster_groups.items():
            self.cluster_models[cid], events = self.executor.runner.run(
                group, self.rng.spawn(1)[0], self.cluster_models[cid], self.round_idx
            )
            round_events.extend(events)
        self._meter_faults(round_events)
        cost = self.ledger.charge_round(
            list(self.cluster_groups.values()),
            self.config.group_rounds,
            self.config.local_rounds,
        )
        self.round_idx += 1
        return cost

    def evaluate(self) -> tuple[float, float]:
        if self.cluster_models is None:
            return super().evaluate()
        # Data-weighted mean of per-cluster global-test performance.
        assert self.cluster_groups is not None
        total_n = sum(g.n_g for g in self.cluster_groups.values())
        loss = acc = 0.0
        for cid, params in self.cluster_models.items():
            self.model.set_params(params)
            l, a = self.model.evaluate(self.fed.test.x, self.fed.test.y)
            w = self.cluster_groups[cid].n_g / total_n
            loss += w * l
            acc += w * a
        return loss, acc

    # ---------------------------------------------------------- checkpointing
    def extra_state_dict(self) -> dict | None:
        if self.cluster_models is None:
            return None
        return {
            "fedclar_models": {
                int(c): np.array(p, copy=True)
                for c, p in self.cluster_models.items()
            },
            "fedclar_client_cluster": np.array(self.client_cluster, copy=True),
            "fedclar_groups": {
                int(c): g for c, g in self.cluster_groups.items()
            },
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
        self.cluster_models = {
            int(c): np.array(p, copy=True)
            for c, p in state["fedclar_models"].items()
        }
        self.client_cluster = np.array(state["fedclar_client_cluster"], copy=True)
        self.cluster_groups = dict(state["fedclar_groups"])
