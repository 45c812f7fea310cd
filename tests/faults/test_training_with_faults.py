"""End-to-end fault injection through GroupFELTrainer.

The acceptance contract: a seeded faulty run completes, a post-masking
dropout exercises the Shamir reconstruction path (asserted via the
``secagg.reconstructions`` telemetry counter), and the same seed replays the
same fault trace and the same final model, bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.context import RunContext, activated
from repro.core.trainer import GroupFELTrainer, TrainerConfig
from repro.costs import paper_cost_model
from repro.experiments.cli import main as cli_main
from repro.faults import FaultPlan
from repro.grouping import CoVGrouping, group_clients_per_edge
from repro.nn import make_mlp
from repro.telemetry import Telemetry

FAULTY = "dropout:0.35@after,straggler:0.5:0.5,loss:0.2,groupfail:0.1"


def _make_trainer(fed, edges, telemetry=None, **cfg_kwargs):
    groups = group_clients_per_edge(CoVGrouping(3, 1.0), fed.L, edges, rng=0)
    cfg = TrainerConfig(
        max_rounds=2, group_rounds=2, local_rounds=1, num_sampled=2,
        seed=7, **cfg_kwargs,
    )
    return GroupFELTrainer(
        lambda: make_mlp(192, 10, seed=0),
        fed, groups, cfg, paper_cost_model(), telemetry=telemetry,
    )


def _param_hash(trainer) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(trainer.global_params).tobytes()
    ).hexdigest()


class TestFaultyRun:
    def test_dropout_triggers_shamir_reconstruction(self, small_fed, small_edges):
        tel = Telemetry(label="faulty")
        trainer = _make_trainer(
            small_fed, small_edges, telemetry=tel,
            use_secure_aggregation=True, faults="dropout:0.35@after",
        )
        history = trainer.run()
        assert len(history.test_acc) == 2  # run completed
        counters = tel.metrics.snapshot()["counters"]
        assert counters.get("secagg.reconstructions", 0) >= 1
        assert counters.get("faults.dropout", 0) >= 1
        assert trainer.fault_trace.counts()["secagg_recovery"] >= 1

    def test_all_fault_kinds_compose(self, small_fed, small_edges):
        tel = Telemetry(label="composed")
        trainer = _make_trainer(
            small_fed, small_edges, telemetry=tel,
            use_secure_aggregation=True, faults=FAULTY,
        )
        trainer.run()
        kinds = set(trainer.fault_trace.counts())
        assert {"dropout", "straggler", "message_loss"} <= kinds
        assert tel.metrics.snapshot()["counters"]["faults.injected"] >= 4

    def test_fault_delay_feeds_ledger_and_history(self, small_fed, small_edges):
        trainer = _make_trainer(small_fed, small_edges, faults="straggler:1.0:2.0")
        history = trainer.run()
        assert len(history.extra["fault_delay_s"]) == 2
        assert trainer.ledger.total_fault_delay_s > 0
        assert trainer.ledger.fault_delay_s == history.extra["fault_delay_s"]
        assert trainer.ledger.total_fault_delay_s == pytest.approx(
            trainer.fault_trace.total_delay_s()
        )

    def test_faultless_run_records_nothing(self, small_fed, small_edges):
        trainer = _make_trainer(small_fed, small_edges)
        history = trainer.run()
        assert len(trainer.fault_trace) == 0
        assert "fault_delay_s" not in history.extra


class TestDeterministicReplay:
    def test_same_seed_replays_bit_identically(self, small_fed, small_edges):
        runs = []
        for _ in range(2):
            trainer = _make_trainer(
                small_fed, small_edges,
                use_secure_aggregation=True, faults=FAULTY,
            )
            trainer.run()
            runs.append((trainer.fault_trace.signature(), _param_hash(trainer)))
        assert runs[0] == runs[1]

    def test_different_fault_seed_changes_trace(self, small_fed, small_edges):
        sigs = []
        for fault_seed in (0, 1):
            plan = FaultPlan.from_spec("dropout:0.35,straggler:0.5", seed=fault_seed)
            trainer = _make_trainer(small_fed, small_edges, faults=plan)
            trainer.run()
            sigs.append(trainer.fault_trace.signature())
        assert sigs[0] != sigs[1]


class TestGroupFailure:
    def test_graceful_degradation_spares_one_group(self, small_fed, small_edges):
        trainer = _make_trainer(small_fed, small_edges, faults="groupfail:1.0")
        history = trainer.run()
        assert len(history.test_acc) == 2
        # num_sampled=2 and every group fails → exactly one spared per round.
        assert trainer.fault_trace.counts()["group_failure"] == 2

    def test_weight_renormalization_preserves_mass(self, small_fed, small_edges):
        trainer = _make_trainer(small_fed, small_edges, faults="groupfail:0.5")
        selected, weights = trainer.sampler.sample()
        survivors, new_weights, events = trainer._apply_group_failures(
            selected, weights
        )
        assert len(survivors) >= 1
        assert len(survivors) + len(events) == len(selected)
        assert new_weights.sum() == pytest.approx(weights.sum())


class TestConfigPlumbing:
    def test_config_parses_spec_string(self, small_fed, small_edges):
        trainer = _make_trainer(small_fed, small_edges, faults="dropout:0.2,loss:0.1")
        assert isinstance(trainer.config.faults, FaultPlan)
        assert trainer.fault_plan is trainer.config.faults
        assert trainer.fault_plan.has_dropout

    def test_config_rejects_bad_type(self):
        with pytest.raises(TypeError, match="faults"):
            TrainerConfig(faults=42)

    def test_ambient_plan_pickup(self, small_fed, small_edges):
        plan = FaultPlan.from_spec("dropout:0.2")
        with activated(RunContext(faults=plan)):
            trainer = _make_trainer(small_fed, small_edges)
        assert trainer.fault_plan is plan
        # The resolved config carries it, so checkpoints fingerprint it.
        assert trainer.config.faults is plan

    def test_explicit_plan_beats_ambient(self, small_fed, small_edges):
        explicit = FaultPlan.from_spec("straggler:0.1")
        with activated(RunContext(faults=FaultPlan.from_spec("dropout:0.9"))):
            trainer = _make_trainer(small_fed, small_edges, faults=explicit)
        assert trainer.fault_plan is explicit

    def test_empty_ambient_means_no_plan(self, small_fed, small_edges):
        with activated(RunContext(faults=FaultPlan(seed=0))):
            trainer = _make_trainer(small_fed, small_edges)
        assert trainer.fault_plan is None


class TestSecAggInterlock:
    def test_dropout_aggregator_enabled_by_plan(self, small_fed, small_edges):
        trainer = _make_trainer(
            small_fed, small_edges,
            use_secure_aggregation=True, faults="dropout:0.2",
        )
        assert trainer.dropout_aggregator is not None

    def test_message_loss_also_requires_recovery(self, small_fed, small_edges):
        trainer = _make_trainer(
            small_fed, small_edges,
            use_secure_aggregation=True, faults="loss:0.2",
        )
        assert trainer.dropout_aggregator is not None

    def test_no_secagg_no_recovery_protocol(self, small_fed, small_edges):
        trainer = _make_trainer(small_fed, small_edges, faults="dropout:0.2")
        assert trainer.dropout_aggregator is None


class TestRunnerIntegration:
    @pytest.fixture()
    def tiny_workload(self):
        from dataclasses import replace

        from repro.experiments import SCALES, make_image_workload

        scale = replace(
            SCALES["fast"], num_clients=18, num_edges=2, size_low=15,
            size_high=40, train_samples=2_000, test_samples=300,
            max_rounds=2, num_sampled=2, min_group_size=3, eval_every=1,
            cost_budget=None,
        )
        return make_image_workload(scale, alpha=0.1, seed=0)

    def test_run_method_forwards_faults(self, tiny_workload):
        from repro.experiments import run_method

        tel = Telemetry(label="runner")
        with activated(RunContext(telemetry=tel)):
            history = run_method(
                "group_fel", tiny_workload, faults="straggler:1.0:1.0"
            )
        assert len(history.test_acc) == 2
        assert tel.metrics.snapshot()["counters"]["faults.straggler"] >= 1

    def test_ambient_plan_reaches_runner_trainers(self, tiny_workload):
        from repro.experiments import run_method

        tel = Telemetry(label="ambient")
        plan = FaultPlan.from_spec("straggler:1.0:1.0", seed=5)
        with activated(RunContext(telemetry=tel, faults=plan)):
            run_method("group_fel", tiny_workload)
        assert tel.metrics.snapshot()["counters"]["faults.straggler"] >= 1


class TestCLIFlag:
    def test_bad_spec_exits_2(self, capsys):
        assert cli_main(["fig9", "--faults", "powercut:0.1"]) == 2
        assert "bad --faults spec" in capsys.readouterr().err

    def test_missing_prob_exits_2(self, capsys):
        assert cli_main(["fig9", "--faults", "dropout"]) == 2
        assert "probability" in capsys.readouterr().err
