"""Tests for the method registry and FedCLAR."""

import numpy as np
import pytest

from repro.baselines import METHODS, FedCLARTrainer, build_method
from repro.core import Callback, ScaffoldStrategy, TrainerConfig
from repro.costs import paper_cost_model
from repro.costs.wallclock import WallClockSimulator
from repro.data import ColumnarPopulation, FederatedDataset, SyntheticImage
from repro.grouping import (
    CDGGrouping,
    CoVGrouping,
    KLDGrouping,
    RandomGrouping,
    group_clients_per_edge,
)
from repro.nn import make_mlp
from repro.topology import CommModel, HierarchicalTopology


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


def fresh_fed() -> FederatedDataset:
    """A private 16-client store: drift relabels shards in place."""
    train, test = SyntheticImage(noise_std=2.0, seed=0).train_test(2_000, 300)
    return FederatedDataset.from_dataset(
        train, test, num_clients=16, alpha=0.1, size_low=15, size_high=50,
        rng=11,
    )


class Probe(Callback):
    """Records ``probe(trainer)`` at every round end."""

    def __init__(self, probe):
        self.probe = probe
        self.seen = []

    def on_round_end(self, trainer, round_idx):
        self.seen.append(self.probe(trainer))
        return False


def fedclar(fed, *, faults=None, population=None, strategy=None,
            wallclock=False, callbacks=None):
    """A 5-round FedCLAR run that clusters at round 2."""
    topo = HierarchicalTopology(fed.num_clients, 2)
    edges = topo.edge_assignment()
    grouper = RandomGrouping(3)
    groups = group_clients_per_edge(grouper, fed.L, edges, rng=0)
    cost_model = paper_cost_model("cifar")
    clock = None
    if wallclock:
        comm = CommModel.for_model(topo, num_params=MODEL_FN().num_params)
        clock = WallClockSimulator(topo, cost_model, comm)
    return FedCLARTrainer(
        MODEL_FN, fed, groups,
        cfg(max_rounds=5, faults=faults, population=population),
        cost_model=cost_model, strategy=strategy, grouper=grouper,
        edge_assignment=edges, wallclock=clock, callbacks=callbacks,
        cluster_round=2, num_clusters=3,
    )


class TestFedCLARRoundLoop:
    """Cluster rounds are the base trainer's round with a substituted
    select stage, so everything a round does continues past clustering."""

    @pytest.fixture(scope="class")
    def everything(self):
        pending = Probe(lambda t: len(t.strategy._pending_deltas))
        trainer = fedclar(
            fresh_fed(), faults="straggler:0.3:2.0", population="drift:0.5:0.3",
            strategy=ScaffoldStrategy(), wallclock=True, callbacks=[pending],
        )
        trainer.run()
        return trainer, pending.seen

    def test_every_round_is_recorded(self, everything):
        trainer, _ = everything
        extra = trainer.history.extra
        for series in ("population_active", "wall_clock_s", "fault_delay_s"):
            assert len(extra[series]) == 5, series
        assert len(trainer.sampled_history) == 5
        # Rounds 2-4 train the cluster groups, all of them.
        for selected in trainer.sampled_history[2:]:
            assert {g.group_id for g in selected} == set(trainer.cluster_groups)

    def test_population_keeps_stepping(self, everything):
        trainer, _ = everything
        drift_rounds = {
            e.round for e in trainer.population_trace.events if e.kind == "drift"
        }
        assert {2, 3, 4} <= drift_rounds

    def test_scaffold_deltas_folded_every_round(self, everything):
        _, pending = everything
        assert pending == [0] * 5

    def test_group_failure_fails_cluster_groups(self):
        trainer = fedclar(fresh_fed(), faults="groupfail:0.5")
        trainer.run()
        plan = trainer.fault_plan
        failed_any = False
        for t in range(2, 5):
            ids = sorted(trainer.cluster_groups)
            draws = np.array([plan.group_failure_draw(t, c) for c in ids])
            alive = draws >= 0.0
            if not alive.any():
                alive[int(np.argmax(draws))] = True
            failed = {
                e.group_id for e in trainer.fault_trace.events
                if e.kind == "group_failure" and e.round == t
            }
            assert failed == {c for c, a in zip(ids, alive) if not a}
            survivors = {g.group_id for g in trainer.sampled_history[t]}
            assert survivors == {c for c, a in zip(ids, alive) if a}
            failed_any |= bool(failed)
        assert failed_any

    def test_clusters_only_active_clients(self):
        def snapshot(t):
            cc = t.client_cluster
            return t.population_engine.active.copy(), None if cc is None else cc >= 0

        probe = Probe(snapshot)
        trainer = fedclar(
            fresh_fed(), population="start:0.5,join:1.0,leave:0.1",
            callbacks=[probe],
        )
        trainer.run()
        # Clustering ran at the end of round 1, over that round's actives.
        active_then, clustered = probe.seen[1]
        assert np.array_equal(clustered, active_then)
        assert not clustered.all()
        # Departures left their cluster for good; arrivals joined none.
        active = trainer.population_engine.active
        in_cluster = trainer.client_cluster >= 0
        assert not (in_cluster & ~(clustered & active)).any()
        ever_out = ~np.logical_and.reduce([a for a, _ in probe.seen[1:]])
        assert (clustered & ever_out).any() and not (in_cluster & ever_out).any()
        members = np.concatenate(
            [g.members for g in trainer.cluster_groups.values()]
        )
        assert np.array_equal(np.sort(members), np.flatnonzero(in_cluster))
        for selected in trainer.sampled_history[2:]:
            for g in selected:
                assert clustered[g.members].all()

    def test_one_active_client_is_one_cluster(self):
        trainer = fedclar(fresh_fed(), population="start:0.001")
        trainer.run()
        (only,) = np.flatnonzero(trainer.population_engine.active).tolist()
        assert list(trainer.cluster_models) == [0]
        assert trainer.client_cluster.tolist() == [
            0 if c == only else -1 for c in range(16)
        ]
        assert trainer.cluster_groups[0].members.tolist() == [only]

    def test_no_active_client_names_the_round(self):
        trainer = fedclar(fresh_fed())
        trainer.round_idx = 2
        trainer._active = lambda: np.zeros(trainer.fed.num_clients, bool)
        with pytest.raises(ValueError, match="no active client .* at round 2"):
            trainer._cluster_clients()

    def test_rejects_adaptive_sampling(self, small_fed, small_edges):
        """There is no online-reweighted sampler for FedCLAR's cluster
        rounds to starve: the config refuses the method name outright."""
        groups = group_clients_per_edge(
            RandomGrouping(3), small_fed.L, small_edges, rng=0
        )
        with pytest.raises(ValueError, match="adaptive"):
            FedCLARTrainer(MODEL_FN, small_fed, groups,
                           cfg(sampling_method="adaptive"))
