"""Tests for the method registry and FedCLAR."""

import numpy as np
import pytest

from repro.baselines import METHODS, FedCLARTrainer, build_method
from repro.core import TrainerConfig
from repro.data import ColumnarPopulation
from repro.costs import paper_cost_model
from repro.grouping import (
    CDGGrouping,
    CoVGrouping,
    KLDGrouping,
    RandomGrouping,
    group_clients_per_edge,
)
from repro.nn import make_mlp


def cfg(**kw):
    base = dict(group_rounds=1, local_rounds=1, num_sampled=2, lr=0.08,
                momentum=0.9, max_rounds=4, seed=0)
    base.update(kw)
    return TrainerConfig(**base)


MODEL_FN = lambda: make_mlp(192, 10, hidden=(16,), seed=3)


class TestRegistry:
    def test_all_methods_present(self):
        assert set(METHODS) == {
            "group_fel", "fedavg", "fedprox", "scaffold", "ouea", "share",
            "fedclar", "ifca", "fedgroup",
        }

    def test_unknown_method(self, small_fed, small_edges):
        with pytest.raises(KeyError):
            build_method("sgd", MODEL_FN, small_fed, small_edges, cfg())

    @pytest.mark.parametrize("name", sorted(METHODS))
    def test_every_method_builds_and_trains(self, small_fed, small_edges, name):
        trainer = build_method(name, MODEL_FN, small_fed, small_edges, cfg(),
                               group_size_knob=3, rng=0)
        history = trainer.run()
        assert len(history) > 0
        assert history.final_accuracy > 0.15
        assert history.total_cost > 0

    def test_group_fel_uses_covg_and_esrcov(self, small_fed, small_edges):
        trainer = build_method("group_fel", MODEL_FN, small_fed, small_edges,
                               cfg(), group_size_knob=3, rng=0)
        assert trainer.sampler.method == "esrcov"
        assert trainer.label == "group_fel"

    def test_fedavg_uses_uniform_sampling(self, small_fed, small_edges):
        trainer = build_method("fedavg", MODEL_FN, small_fed, small_edges,
                               cfg(sampling_method="esrcov"), rng=0)
        # Spec overrides the config's sampling method.
        assert trainer.sampler.method == "random"
        assert np.allclose(trainer.sampler.p, trainer.sampler.p[0])

    def test_scaffold_has_double_payload_cost(self, small_fed, small_edges):
        fa = build_method("fedavg", MODEL_FN, small_fed, small_edges, cfg(),
                          cost_model=paper_cost_model("cifar"), rng=0)
        sc = build_method("scaffold", MODEL_FN, small_fed, small_edges, cfg(),
                          cost_model=paper_cost_model("cifar"), rng=0)
        assert sc.ledger.cost_model.group_op(10) > fa.ledger.cost_model.group_op(10)

    def test_fedprox_has_training_overhead(self, small_fed, small_edges):
        fa = build_method("fedavg", MODEL_FN, small_fed, small_edges, cfg(),
                          cost_model=paper_cost_model("cifar"), rng=0)
        fp = build_method("fedprox", MODEL_FN, small_fed, small_edges, cfg(),
                          cost_model=paper_cost_model("cifar"), rng=0)
        assert fp.ledger.cost_model.training(100) > fa.ledger.cost_model.training(100)


class TestFedCLAR:
    def make(self, small_fed, small_edges, cluster_round=2, max_rounds=5):
        groups = group_clients_per_edge(
            RandomGrouping(3), small_fed.L, small_edges, rng=0
        )
        return FedCLARTrainer(
            MODEL_FN, small_fed, groups,
            cfg(max_rounds=max_rounds),
            cluster_round=cluster_round, num_clusters=3,
        )

    def test_clustering_triggers(self, small_fed, small_edges):
        trainer = self.make(small_fed, small_edges)
        trainer.run()
        assert trainer.cluster_models is not None
        assert trainer.client_cluster is not None
        assert len(trainer.cluster_models) >= 2

    def test_clusters_partition_clients(self, small_fed, small_edges):
        trainer = self.make(small_fed, small_edges)
        trainer.run()
        all_members = np.concatenate(
            [g.members for g in trainer.cluster_groups.values()]
        )
        assert sorted(all_members.tolist()) == list(range(small_fed.num_clients))

    def test_history_continuous_across_clustering(self, small_fed, small_edges):
        history = self.make(small_fed, small_edges).run()
        assert history.rounds[-1] == 5
        assert all(np.isfinite(history.test_acc))

    def test_runs_on_a_bare_store(self, small_fed, small_edges):
        """Clustering and the per-cluster rounds read clients from the
        store, so a bare ``ColumnarPopulation`` trains exactly like the
        ``FederatedDataset`` it shares arrays with."""
        store = ColumnarPopulation(
            small_fed.L, train_x=small_fed._train_x, train_y=small_fed._train_y,
            sample_offsets=small_fed._offsets, test=small_fed.test,
        )
        on_store = self.make(store, small_edges)
        on_fed = self.make(small_fed, small_edges)
        assert on_store.run().test_acc == on_fed.run().test_acc
        assert on_store.cluster_models.keys() == on_fed.cluster_models.keys()
        for c, params in on_fed.cluster_models.items():
            np.testing.assert_array_equal(on_store.cluster_models[c], params)
        assert on_store.ledger.total == on_fed.ledger.total

    def test_cluster_rounds_run_the_configured_group_operations(
        self, small_fed, small_edges
    ):
        """Post-clustering rounds go through the trainer's runner, so SecAgg
        and the fault plan (both dropped by the old hand-rolled
        ``run_group_round`` call) are on."""
        groups = group_clients_per_edge(
            RandomGrouping(3), small_fed.L, small_edges, rng=0
        )
        trainer = FedCLARTrainer(
            MODEL_FN, small_fed, groups,
            cfg(max_rounds=3, use_secure_aggregation=True,
                faults="straggler:1.0:2.0"),
            cluster_round=1, num_clusters=3,
        )
        calls = []
        real = trainer.secure_aggregator.aggregate_weighted
        trainer.secure_aggregator.aggregate_weighted = (
            lambda *a, **kw: calls.append(trainer.round_idx) or real(*a, **kw)
        )
        trainer.run()
        assert {1, 2} <= set(calls)  # rounds after the clustering round
        assert {e.round for e in trainer.fault_trace.events} == {0, 1, 2}
        assert len(trainer.history.extra["fault_delay_s"]) == 3

    def test_validation(self, small_fed, small_edges):
        groups = group_clients_per_edge(
            RandomGrouping(3), small_fed.L, small_edges, rng=0
        )
        with pytest.raises(ValueError):
            FedCLARTrainer(MODEL_FN, small_fed, groups, cfg(), cluster_round=0)
        with pytest.raises(ValueError):
            FedCLARTrainer(MODEL_FN, small_fed, groups, cfg(), num_clusters=1)
