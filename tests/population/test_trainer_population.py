"""Trainer integration: churn + drift replay bit-identically on every
backend, and mid-churn checkpoint resume reproduces the uninterrupted run.

Label drift mutates client shards *in place*, so every run here builds a
fresh ``FederatedDataset`` — the shared session fixtures must never see a
drifted population.
"""

from __future__ import annotations

import functools
import hashlib
import warnings

import numpy as np
import pytest

from repro.checkpoint import CheckpointError
from repro.context import RunContext, activated
from repro.core.trainer import GroupFELTrainer, TrainerConfig
from repro.costs import paper_cost_model
from repro.data import FederatedDataset, SyntheticImage
from repro.grouping import CoVGrouping, RandomGrouping, group_clients_per_edge
from repro.nn import make_mlp
from repro.population import PopulationModel

SPEC = "start:0.8,join:0.6,leave:0.05,drift:0.25:0.3@corr"

# Module-level so the process backend can pickle it.
model_fn = functools.partial(make_mlp, 192, 10, seed=0)


def _fresh_fed() -> FederatedDataset:
    data = SyntheticImage(noise_std=2.0, seed=0)
    train, test = data.train_test(2_000, 300)
    return FederatedDataset.from_dataset(
        train, test, num_clients=16, alpha=0.1, size_low=15, size_high=50, rng=11
    )


def _edges() -> list[np.ndarray]:
    return [np.arange(0, 8), np.arange(8, 16)]


def _make_trainer(
    backend: str = "serial",
    spec: str = SPEC,
    max_rounds: int = 4,
    checkpoint_dir: str | None = None,
    grouper=None,
):
    fed = _fresh_fed()
    edges = _edges()
    grouper = grouper or CoVGrouping(min_group_size=3, max_cov=0.6)
    groups = group_clients_per_edge(grouper, fed.L, edges, rng=5)
    cfg = TrainerConfig(
        max_rounds=max_rounds, group_rounds=1, local_rounds=1, num_sampled=2,
        seed=3, parallel_backend=backend,
        population=PopulationModel.from_spec(spec, seed=7),
    )
    return GroupFELTrainer(
        model_fn, fed, groups, cfg, cost_model=paper_cost_model(),
        grouper=grouper, edge_assignment=edges, checkpoint_dir=checkpoint_dir,
    )


def _digest(trainer) -> tuple[str, str]:
    h = hashlib.sha256(
        np.ascontiguousarray(trainer.global_params).tobytes()
    ).hexdigest()
    return h, trainer.population_trace.signature()


def _run(backend: str) -> tuple[str, str]:
    trainer = _make_trainer(backend)
    try:
        trainer.run()
        return _digest(trainer)
    finally:
        trainer.close()


class TestBackendDeterminism:
    def test_serial_and_thread_agree_fast(self):
        """Serial and process agree under churn and drift (the process
        executor re-ships the drifted store to its workers)."""
        assert _run("serial") == _run("process")

    @pytest.mark.slow
    def test_all_backends_bit_identical(self):
        results = {b: _run(b) for b in ("serial", "process")}
        assert len(set(results.values())) == 1, f"backends diverge: {results}"


class TestCheckpointResume:
    def test_resume_mid_churn_bit_identical(self, tmp_path):
        reference = _make_trainer(max_rounds=8)
        try:
            reference.run()
            want = _digest(reference)
        finally:
            reference.close()

        interrupted = _make_trainer(max_rounds=8, checkpoint_dir=str(tmp_path))
        try:
            interrupted.run(max_rounds=4)
        finally:
            interrupted.close()

        resumed = _make_trainer(max_rounds=8)
        try:
            resumed.load_checkpoint(tmp_path)
            resumed.run(max_rounds=8)
            assert _digest(resumed) == want
        finally:
            resumed.close()

    def test_different_population_spec_rejected(self, tmp_path):
        writer = _make_trainer(max_rounds=2, checkpoint_dir=str(tmp_path))
        try:
            writer.run()
        finally:
            writer.close()
        reader = _make_trainer(max_rounds=2, spec="leave:0.01")
        try:
            with pytest.raises(CheckpointError, match="population"):
                reader.load_checkpoint(tmp_path)
        finally:
            reader.close()

    def test_different_grouping_engine_rejected(self, tmp_path):
        writer = _make_trainer(max_rounds=2, checkpoint_dir=str(tmp_path))
        try:
            writer.run()
        finally:
            writer.close()
        reader = _make_trainer(max_rounds=2, grouper=RandomGrouping(group_size=3))
        try:
            with pytest.raises(CheckpointError, match="grouper"):
                reader.load_checkpoint(tmp_path)
        finally:
            reader.close()

    def test_static_trainer_rejects_population_checkpoint(self, tmp_path):
        writer = _make_trainer(max_rounds=2, checkpoint_dir=str(tmp_path))
        try:
            writer.run()
        finally:
            writer.close()
        fed = _fresh_fed()
        grouper = CoVGrouping(min_group_size=3, max_cov=0.6)
        groups = group_clients_per_edge(grouper, fed.L, _edges(), rng=5)
        static = GroupFELTrainer(
            model_fn, fed, groups,
            TrainerConfig(max_rounds=2, group_rounds=1, local_rounds=1,
                          num_sampled=2, seed=3),
            cost_model=paper_cost_model(), grouper=grouper,
            edge_assignment=_edges(),
        )
        try:
            with pytest.raises((CheckpointError, ValueError)):
                static.load_checkpoint(tmp_path)
        finally:
            static.close()


class TestTrainerBehaviour:
    def test_population_shrinks_and_history_records_active(self):
        trainer = _make_trainer(max_rounds=4)
        try:
            trainer.run()
            active = trainer.history.extra["population_active"]
            assert len(active) == 4
            assert all(1 <= a <= 16 for a in active)
            assert len(trainer.population_trace) > 0
            # Start fraction 0.8 ⇒ the run begins with a strict subset.
            assert active[0] < 16
            # Groups always partition the currently active clients.
            members = np.concatenate([g.members for g in trainer.groups])
            assert len(members) == len(set(members.tolist())) == active[-1]
        finally:
            trainer.close()

    def test_population_requires_formation_context(self):
        fed = _fresh_fed()
        grouper = CoVGrouping(min_group_size=3, max_cov=0.6)
        groups = group_clients_per_edge(grouper, fed.L, _edges(), rng=5)
        cfg = TrainerConfig(max_rounds=2, population="leave:0.1", seed=3)
        with pytest.raises(ValueError, match="grouper and edge_assignment"):
            GroupFELTrainer(model_fn, fed, groups, cfg,
                            cost_model=paper_cost_model())

    def test_ambient_population_without_grouper_warns_and_disables(self):
        fed = _fresh_fed()
        grouper = CoVGrouping(min_group_size=3, max_cov=0.6)
        groups = group_clients_per_edge(grouper, fed.L, _edges(), rng=5)
        cfg = TrainerConfig(max_rounds=2, seed=3)
        with activated(RunContext(population=PopulationModel.from_spec("leave:0.1"))):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                trainer = GroupFELTrainer(model_fn, fed, groups, cfg,
                                          cost_model=paper_cost_model())
        try:
            assert trainer.population_engine is None
            assert trainer.config.population is None
            assert any(
                "run-context population" in str(w.message) for w in caught
            )
        finally:
            trainer.close()

    def test_spec_string_config_parses(self):
        cfg = TrainerConfig(population="leave:0.1,join:0.5", seed=3)
        assert isinstance(cfg.population, PopulationModel)
        with pytest.raises(TypeError):
            TrainerConfig(population=3.14)
