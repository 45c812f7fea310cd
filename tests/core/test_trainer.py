"""Integration tests for GroupFELTrainer (Algorithm 1 end to end)."""

import numpy as np
import pytest

from repro.core import (
    FedProxStrategy,
    GroupFELTrainer,
    ScaffoldStrategy,
    TrainerConfig,
)
from repro.costs import paper_cost_model
from repro.data import ColumnarPopulation
from repro.grouping import CoVGrouping, group_clients_per_edge
from repro.nn import make_mlp
from repro.sampling import AggregationMode


def make_trainer(small_fed, small_edges, config=None, **kwargs):
    groups = group_clients_per_edge(
        CoVGrouping(3, 0.5), small_fed.L, small_edges, rng=0
    )
    model_fn = lambda: make_mlp(192, 10, hidden=(16,), seed=3)
    return GroupFELTrainer(
        model_fn,
        small_fed,
        groups,
        config or TrainerConfig(group_rounds=2, local_rounds=1, num_sampled=2,
                                lr=0.08, momentum=0.9, max_rounds=6, seed=0),
        **kwargs,
    )


class TestTrainerBasics:
    def test_metadata_only_store_rejected_at_construction(self, small_edges):
        """No samples to materialize: fail before any round, naming the fix."""
        store = ColumnarPopulation.synthetic(24, 10, seed=0)
        with pytest.raises(ValueError, match="metadata-only.*train_x.*FederatedDataset"):
            make_trainer(store, small_edges)

    def test_accuracy_improves(self, small_fed, small_edges):
        trainer = make_trainer(small_fed, small_edges)
        _, acc0 = trainer.evaluate()
        history = trainer.run()
        assert history.final_accuracy > acc0 + 0.2

    def test_history_recorded_per_round(self, small_fed, small_edges):
        trainer = make_trainer(small_fed, small_edges)
        history = trainer.run()
        assert history.rounds == [1, 2, 3, 4, 5, 6]
        assert len(history.costs) == 6
        assert all(c > 0 for c in np.diff(history.costs))

    def test_cost_budget_stops_early(self, small_fed, small_edges):
        trainer = make_trainer(small_fed, small_edges)
        est = trainer.ledger.estimate_round_cost(
            trainer.groups[:2], 2, 1
        )
        history = trainer.run(cost_budget=est * 2.5)
        assert history.rounds[-1] < 6
        assert history.total_cost <= est * 4  # at most one round overshoot

    def test_budget_curve_never_reports_point_past_budget(
        self, small_fed, small_edges
    ):
        """Accuracy-vs-cost curves must not contain a checkpoint whose cost
        exceeds the budget: the round that crosses it still trains, but its
        point is withheld and the overshoot is reported in history.extra."""
        cfg = TrainerConfig(group_rounds=2, local_rounds=1, num_sampled=2,
                            lr=0.08, max_rounds=6, eval_every=1, seed=0)
        trainer = make_trainer(small_fed, small_edges, cfg)
        est = trainer.ledger.estimate_round_cost(trainer.groups[:2], 2, 1)
        budget = est * 2.5
        history = trainer.run(cost_budget=budget)
        assert history.costs, "curve must not be empty"
        assert all(c <= budget for c in history.costs)
        assert history.extra["budget_exhausted"] is True
        assert history.extra["budget_overshoot"] >= 0.0
        # The ledger saw the full (overshooting) spend even though the
        # curve stops at the budget line.
        assert trainer.ledger.total >= budget
        assert history.extra["budget_overshoot"] == pytest.approx(
            trainer.ledger.total - budget
        )

    def test_budget_not_exhausted_leaves_no_flag(self, small_fed, small_edges):
        history = make_trainer(small_fed, small_edges).run()
        assert "budget_exhausted" not in history.extra

    def test_budget_smaller_than_one_round_still_yields_a_point(
        self, small_fed, small_edges
    ):
        """Degenerate case: the very first round overshoots. The curve keeps
        one clamped point instead of coming back empty."""
        cfg = TrainerConfig(group_rounds=2, local_rounds=1, num_sampled=2,
                            lr=0.08, max_rounds=6, eval_every=1, seed=0)
        trainer = make_trainer(small_fed, small_edges, cfg)
        budget = 1e-6
        history = trainer.run(cost_budget=budget)
        assert history.rounds == [1]
        assert history.costs == [budget]
        assert history.extra["budget_clamped"] is True
        assert history.extra["budget_exhausted"] is True

    def test_deterministic_given_seed(self, small_fed, small_edges):
        h1 = make_trainer(small_fed, small_edges).run()
        h2 = make_trainer(small_fed, small_edges).run()
        assert h1.test_acc == h2.test_acc
        assert h1.costs == h2.costs

    def test_different_seeds_differ(self, small_fed, small_edges):
        cfg1 = TrainerConfig(group_rounds=2, local_rounds=1, num_sampled=2,
                             lr=0.08, max_rounds=4, seed=0)
        cfg2 = TrainerConfig(group_rounds=2, local_rounds=1, num_sampled=2,
                             lr=0.08, max_rounds=4, seed=1)
        h1 = make_trainer(small_fed, small_edges, cfg1).run()
        h2 = make_trainer(small_fed, small_edges, cfg2).run()
        assert h1.test_acc != h2.test_acc

    def test_eval_every(self, small_fed, small_edges):
        cfg = TrainerConfig(group_rounds=1, local_rounds=1, num_sampled=2,
                            max_rounds=6, eval_every=3, seed=0)
        history = make_trainer(small_fed, small_edges, cfg).run()
        assert history.rounds == [3, 6]

    def test_final_round_always_evaluated(self, small_fed, small_edges):
        cfg = TrainerConfig(group_rounds=1, local_rounds=1, num_sampled=2,
                            max_rounds=5, eval_every=4, seed=0)
        history = make_trainer(small_fed, small_edges, cfg).run()
        assert history.rounds[-1] == 5


class TestAggregationModes:
    @pytest.mark.parametrize("mode", ["biased", "unbiased", "stabilized"])
    def test_all_modes_train(self, small_fed, small_edges, mode):
        cfg = TrainerConfig(group_rounds=2, local_rounds=1, num_sampled=2,
                            lr=0.08, max_rounds=4, aggregation_mode=mode,
                            sampling_method="esrcov", min_prob=0.02, seed=0)
        history = make_trainer(small_fed, small_edges, cfg).run()
        assert history.final_accuracy > 0.2

    def test_mode_coerced_from_string(self):
        cfg = TrainerConfig(aggregation_mode="stabilized")
        assert cfg.aggregation_mode is AggregationMode.STABILIZED


class TestStrategiesIntegration:
    def test_fedprox_trains(self, small_fed, small_edges):
        trainer = make_trainer(small_fed, small_edges,
                               strategy=FedProxStrategy(mu=0.05))
        assert trainer.run().final_accuracy > 0.3

    def test_scaffold_trains(self, small_fed, small_edges):
        trainer = make_trainer(small_fed, small_edges, strategy=ScaffoldStrategy())
        assert trainer.run().final_accuracy > 0.3

    def test_strategy_cost_factors_applied(self, small_fed, small_edges):
        plain = make_trainer(small_fed, small_edges,
                             cost_model=paper_cost_model("cifar"))
        scaffold = make_trainer(small_fed, small_edges,
                                cost_model=paper_cost_model("cifar"),
                                strategy=ScaffoldStrategy())
        g = plain.groups[:1]
        c_plain = plain.ledger.estimate_round_cost(g, 1, 1)
        c_scaffold = scaffold.ledger.estimate_round_cost(g, 1, 1)
        assert c_scaffold > c_plain  # 2× payload, 1.2× training


class TestSecureTrainingPath:
    def test_secure_aggregation_training(self, small_fed, small_edges):
        cfg = TrainerConfig(group_rounds=1, local_rounds=1, num_sampled=2,
                            lr=0.08, max_rounds=3, use_secure_aggregation=True,
                            seed=0)
        history = make_trainer(small_fed, small_edges, cfg).run()
        assert history.final_accuracy > 0.2

    def test_backdoor_defense_training(self, small_fed, small_edges):
        cfg = TrainerConfig(group_rounds=1, local_rounds=1, num_sampled=2,
                            lr=0.08, max_rounds=3, use_backdoor_defense=True,
                            seed=0)
        history = make_trainer(small_fed, small_edges, cfg).run()
        assert history.final_accuracy > 0.15


class TestRegrouping:
    def test_regroup_changes_groups(self, small_fed, small_edges):
        grouper = CoVGrouping(3, 0.5)
        groups = group_clients_per_edge(grouper, small_fed.L, small_edges, rng=0)
        cfg = TrainerConfig(group_rounds=1, local_rounds=1, num_sampled=2,
                            max_rounds=4, regroup_every=2, seed=0)
        trainer = GroupFELTrainer(
            lambda: make_mlp(192, 10, hidden=(16,), seed=3),
            small_fed, groups, cfg,
            grouper=grouper, edge_assignment=small_edges,
        )
        before = [g.members.tolist() for g in trainer.groups]
        trainer.run()
        after = [g.members.tolist() for g in trainer.groups]
        assert before != after

    def test_regroup_requires_grouper(self, small_fed, small_edges):
        groups = group_clients_per_edge(
            CoVGrouping(3, 0.5), small_fed.L, small_edges, rng=0
        )
        cfg = TrainerConfig(regroup_every=2)
        with pytest.raises(ValueError, match="regroup_every"):
            GroupFELTrainer(
                lambda: make_mlp(192, 10, seed=0), small_fed, groups, cfg
            )


class TestParallelBackends:
    def test_thread_backend_matches_serial(self, small_fed, small_edges):
        """Group-parallel execution must not change results (ordered agg)."""
        results = []
        for backend in ("serial", "thread"):
            cfg = TrainerConfig(group_rounds=1, local_rounds=1, num_sampled=2,
                                lr=0.08, max_rounds=3, parallel_backend=backend,
                                seed=0)
            groups = group_clients_per_edge(
                CoVGrouping(3, 0.5), small_fed.L, small_edges, rng=0
            )
            trainer = GroupFELTrainer(
                lambda: make_mlp(192, 10, hidden=(16,), seed=3),
                small_fed, groups, cfg,
            )
            results.append(trainer.run().test_acc)
        assert results[0] == pytest.approx(results[1])


class TestConfigValidation:
    def test_invalid_values(self):
        with pytest.raises(ValueError):
            TrainerConfig(group_rounds=0)
        with pytest.raises(ValueError):
            TrainerConfig(local_rounds=0)
        with pytest.raises(ValueError):
            TrainerConfig(num_sampled=0)
        with pytest.raises(ValueError):
            TrainerConfig(max_rounds=0)

    def test_negative_lr(self):
        with pytest.raises(ValueError, match="lr"):
            TrainerConfig(lr=-0.1)
        with pytest.raises(ValueError, match="lr"):
            TrainerConfig(lr=0.0)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainerConfig(batch_size=0)
        with pytest.raises(ValueError, match="batch_size"):
            TrainerConfig(batch_size=-32)

    def test_invalid_eval_every(self):
        with pytest.raises(ValueError, match="eval_every"):
            TrainerConfig(eval_every=0)

    def test_unknown_parallel_backend(self):
        with pytest.raises(ValueError, match="parallel_backend"):
            TrainerConfig(parallel_backend="gpu")

    def test_unknown_sampling_method(self):
        with pytest.raises(ValueError, match="sampling_method"):
            TrainerConfig(sampling_method="uniformly")

    def test_known_sampling_methods_accepted(self):
        for method in ("random", "rcov", "srcov", "esrcov"):
            assert TrainerConfig(sampling_method=method).sampling_method == method

    def test_invalid_dropout_prob(self):
        with pytest.raises(ValueError, match="client_dropout_prob"):
            TrainerConfig(client_dropout_prob=1.0)
        with pytest.raises(ValueError, match="client_dropout_prob"):
            TrainerConfig(client_dropout_prob=-0.1)

    def test_invalid_momentum(self):
        with pytest.raises(ValueError, match="momentum"):
            TrainerConfig(momentum=-0.1)
        with pytest.raises(ValueError, match="momentum"):
            TrainerConfig(momentum=1.0)

    def test_invalid_weight_decay(self):
        with pytest.raises(ValueError, match="weight_decay"):
            TrainerConfig(weight_decay=-1e-4)

    def test_valid_momentum_and_weight_decay_accepted(self):
        cfg = TrainerConfig(momentum=0.9, weight_decay=1e-4)
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 1e-4
