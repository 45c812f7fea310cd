"""Deterministic resume: interrupted-then-resumed runs must be bit-identical
to uninterrupted ones — accuracy/cost curves, model parameters, and the
fault-replay signature — on every parallel backend.

The golden run never touches a checkpoint; a second run checkpoints every
round (proving the snapshots themselves don't perturb training); then a
fresh trainer resumes from *every* round boundary and must land exactly on
the golden curves.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest

from repro.baselines import FedCLARTrainer, IFCATrainer
from repro.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointPolicy,
    capture_state,
    config_fingerprint,
    read_checkpoint,
    write_checkpoint,
)
from repro.context import RunContext, activated
from repro.core.callbacks import Callback
from repro.core.strategies import ScaffoldStrategy
from repro.core.trainer import GroupFELTrainer, TrainerConfig
from repro.costs import paper_cost_model
from repro.data import FederatedDataset, SyntheticImage
from repro.faults import FaultPlan
from repro.grouping import CoVGrouping, group_clients_per_edge
from repro.nn import make_mlp
from repro.population import PopulationModel

# Module-level so the process backend can pickle it.
model_fn = functools.partial(make_mlp, 192, 10, seed=0)

FAULTS = "dropout:0.3@after,loss:0.2,straggler:0.3:0.5"


def _make_trainer(
    small_fed,
    small_edges,
    *,
    backend="serial",
    checkpoint_dir=None,
    strategy=None,
    lr=0.05,
    regroup_every=None,
    max_rounds=6,
    checkpoint_every=None,
    faults=FAULTS,
    label="ckpt-test",
    pipeline=False,
):
    groups = group_clients_per_edge(
        CoVGrouping(3, 1.0), small_fed.L, small_edges, rng=0
    )
    cfg = TrainerConfig(
        max_rounds=max_rounds, group_rounds=1, local_rounds=1, num_sampled=2,
        momentum=0.9, weight_decay=1e-4, lr=lr,
        seed=7, parallel_backend=backend, faults=faults,
        regroup_every=regroup_every, checkpoint_every=checkpoint_every,
        pipeline_rounds=pipeline,
    )
    kwargs = {}
    if regroup_every is not None:
        kwargs.update(grouper=CoVGrouping(3, 1.0), edge_assignment=small_edges)
    return GroupFELTrainer(
        model_fn, small_fed, groups, cfg, paper_cost_model(),
        strategy=strategy, label=label, checkpoint_dir=checkpoint_dir,
        **kwargs,
    )


def _finish(trainer, **run_kwargs):
    """Run to completion and return the replay fingerprint tuple."""
    try:
        history = trainer.run(**run_kwargs)
    finally:
        trainer.close()
    digest = hashlib.sha256(
        np.ascontiguousarray(trainer.global_params).tobytes()
    ).hexdigest()
    return history.state_dict(), trainer.fault_trace.signature(), digest


class _CrashAfter(Callback):
    """Simulate a hard crash right after a round's checkpoint was saved."""

    def __init__(self, round_idx: int):
        self.round_idx = round_idx

    def on_round_end(self, trainer, round_idx: int) -> bool:
        if round_idx >= self.round_idx:
            raise RuntimeError("simulated crash")
        return False


class TestResumeSerial:
    def test_resume_from_every_round_boundary(self, small_fed, small_edges, tmp_path):
        golden = _finish(_make_trainer(small_fed, small_edges))

        ckdir = tmp_path / "ck"
        checkpointed = _finish(
            _make_trainer(small_fed, small_edges, checkpoint_dir=ckdir)
        )
        # Checkpointing must not perturb the run it observes.
        assert checkpointed == golden
        saved = sorted(p.name for p in ckdir.glob("ckpt_round_*.ckpt"))
        assert saved == [f"ckpt_round_{r:06d}.ckpt" for r in range(1, 7)]

        for k in range(1, 6):
            resumed = _make_trainer(small_fed, small_edges)
            resumed.load_checkpoint(ckdir / f"ckpt_round_{k:06d}.ckpt")
            assert resumed.round_idx == k
            assert _finish(resumed) == golden, f"divergence resuming at round {k}"

    def test_crash_mid_run_then_resume(self, small_fed, small_edges, tmp_path):
        golden = _finish(_make_trainer(small_fed, small_edges))

        crashed = _make_trainer(
            small_fed, small_edges, checkpoint_dir=tmp_path / "ck"
        )
        crashed.callbacks.append(_CrashAfter(3))
        with pytest.raises(RuntimeError, match="simulated crash"):
            crashed.run()
        crashed.close()

        resumed = _make_trainer(small_fed, small_edges)
        resumed.load_checkpoint(tmp_path / "ck")  # directory → latest
        assert resumed.round_idx == 3
        assert _finish(resumed) == golden

    def test_resume_preserves_scaffold_control_variates(
        self, small_fed, small_edges, tmp_path
    ):
        def make(ckdir=None):
            return _make_trainer(
                small_fed, small_edges, strategy=ScaffoldStrategy(),
                checkpoint_dir=ckdir, max_rounds=4,
            )

        golden = _finish(make())
        _finish(make(tmp_path / "ck"))
        resumed = make()
        resumed.load_checkpoint(tmp_path / "ck" / "ckpt_round_000002.ckpt")
        assert _finish(resumed) == golden

    def test_resume_across_regrouping(self, small_fed, small_edges, tmp_path):
        """Regrouping consumes trainer-RNG spawns and replaces the groups;
        a checkpoint taken after it must restore both."""

        def make(ckdir=None):
            return _make_trainer(
                small_fed, small_edges, regroup_every=2, max_rounds=5,
                checkpoint_dir=ckdir,
            )

        golden = _finish(make())
        _finish(make(tmp_path / "ck"))
        resumed = make()
        resumed.load_checkpoint(tmp_path / "ck" / "ckpt_round_000003.ckpt")
        assert _finish(resumed) == golden


class TestResumePooledBackends:
    def test_thread_backend_resume(self, small_fed, small_edges, tmp_path):
        """The one worker thread a run still uses is the pipeline's: a
        faulty run whose checkpoints that thread writes resumes onto the
        same curves, trace and parameters as an uninterrupted one."""
        golden = _finish(_make_trainer(small_fed, small_edges, max_rounds=4))
        _finish(
            _make_trainer(
                small_fed, small_edges, max_rounds=4, pipeline=True,
                checkpoint_dir=tmp_path / "ck",
            )
        )
        resumed = _make_trainer(
            small_fed, small_edges, max_rounds=4, pipeline=True
        )
        resumed.load_checkpoint(tmp_path / "ck" / "ckpt_round_000002.ckpt")
        assert _finish(resumed) == golden

    def test_process_backend_resume(self, small_fed, small_edges, tmp_path):
        """Resume must re-register the pool's one-time worker state so
        workers train against the restored strategy/compressor/faults."""
        golden = _finish(
            _make_trainer(small_fed, small_edges, backend="process", max_rounds=4)
        )
        _finish(
            _make_trainer(
                small_fed, small_edges, backend="process", max_rounds=4,
                checkpoint_dir=tmp_path / "ck",
            )
        )
        resumed = _make_trainer(
            small_fed, small_edges, backend="process", max_rounds=4
        )
        resumed.load_checkpoint(tmp_path / "ck" / "ckpt_round_000002.ckpt")
        assert _finish(resumed) == golden

    @pytest.mark.slow
    def test_serial_checkpoint_resumes_on_process_backend(
        self, small_fed, small_edges, tmp_path
    ):
        """Checkpoints are backend-portable: train serially, crash, resume
        on the process pool — same parallel-backend-independent math."""
        golden = _finish(_make_trainer(small_fed, small_edges, max_rounds=4))
        _finish(
            _make_trainer(
                small_fed, small_edges, max_rounds=4,
                checkpoint_dir=tmp_path / "ck",
            )
        )
        resumed = _make_trainer(
            small_fed, small_edges, backend="process", max_rounds=4
        )
        resumed.load_checkpoint(tmp_path / "ck" / "ckpt_round_000002.ckpt")
        history, signature, digest = _finish(resumed)
        assert (history, signature, digest) == golden

    @pytest.mark.slow
    def test_process_checkpoint_resumes_strictly_on_serial(
        self, small_fed, small_edges, tmp_path
    ):
        """Regression: the fingerprint used to hash ``parallel_backend`` (and
        the other execution-only fields), so ``strict=True`` refused the
        resume the contract promises is bit-identical on any backend."""
        golden = _finish(_make_trainer(small_fed, small_edges, max_rounds=4))
        _finish(
            _make_trainer(
                small_fed, small_edges, backend="process", max_rounds=4,
                checkpoint_dir=tmp_path / "ck",
            )
        )
        resumed = _make_trainer(small_fed, small_edges, max_rounds=4)
        resumed.load_checkpoint(
            tmp_path / "ck" / "ckpt_round_000002.ckpt", strict=True
        )
        assert _finish(resumed) == golden


class TestGuards:
    def test_config_mismatch_rejected(self, small_fed, small_edges, tmp_path):
        _finish(
            _make_trainer(
                small_fed, small_edges, max_rounds=2,
                checkpoint_dir=tmp_path / "ck",
            )
        )
        divergent = _make_trainer(small_fed, small_edges, max_rounds=2, lr=0.01)
        with pytest.raises(CheckpointError, match="lr"):
            divergent.load_checkpoint(tmp_path / "ck")
        # strict=False overrides explicitly.
        divergent.load_checkpoint(tmp_path / "ck", strict=False)
        assert divergent.round_idx == 2
        divergent.close()

    def test_fingerprint_written_before_the_execution_fields_left_it_loads(
        self, small_fed, small_edges, tmp_path
    ):
        """Older checkpoints recorded ``parallel_backend`` / ``engine`` /
        ``shared_memory`` / ``pipeline_rounds`` too; those names are ignored
        on the saved side, everything else is still compared."""
        trainer = _make_trainer(small_fed, small_edges, max_rounds=1)
        _finish(trainer)
        legacy = {
            **config_fingerprint(trainer.config),
            "parallel_backend": "process", "engine": "reference",
            "shared_memory": False, "pipeline_rounds": True,
        }
        meta = {"label": "ckpt-test", "round_idx": 1, "config": legacy}
        write_checkpoint(tmp_path / "old.ckpt", capture_state(trainer), meta=meta)
        resumed = _make_trainer(small_fed, small_edges, max_rounds=1)
        assert resumed.load_checkpoint(tmp_path / "old.ckpt").round_idx == 1
        resumed.close()
        divergent = _make_trainer(small_fed, small_edges, max_rounds=1, lr=0.01)
        with pytest.raises(CheckpointError, match=r"\['lr'\]"):
            divergent.load_checkpoint(tmp_path / "old.ckpt")
        divergent.close()

    def test_state_with_a_sampler_adaptive_entry_resumes(
        self, small_fed, small_edges, tmp_path
    ):
        """Earlier version-1 checkpoints also stored ``"sampler_adaptive":
        None`` (a sampler's online state, never set for the methods that
        remain); the entry is ignored and the resume is bit-identical."""
        assert CHECKPOINT_VERSION == 1
        golden = _finish(_make_trainer(small_fed, small_edges, max_rounds=4))
        ckdir = tmp_path / "ck"
        _finish(
            _make_trainer(
                small_fed, small_edges, max_rounds=4, checkpoint_dir=ckdir
            )
        )
        header, state = read_checkpoint(ckdir / "ckpt_round_000002.ckpt")
        assert "sampler_adaptive" not in state
        state["sampler_adaptive"] = None
        meta = {k: header[k] for k in ("label", "round_idx", "config")}
        write_checkpoint(tmp_path / "old.ckpt", state, meta=meta)
        resumed = _make_trainer(small_fed, small_edges, max_rounds=4)
        resumed.load_checkpoint(tmp_path / "old.ckpt")
        assert resumed.round_idx == 2
        assert _finish(resumed) == golden

    def test_load_from_empty_directory(self, small_fed, small_edges, tmp_path):
        trainer = _make_trainer(small_fed, small_edges, max_rounds=2)
        with pytest.raises(FileNotFoundError):
            trainer.load_checkpoint(tmp_path)
        trainer.close()

    def test_save_without_manager_needs_path(self, small_fed, small_edges, tmp_path):
        trainer = _make_trainer(small_fed, small_edges, max_rounds=2)
        with pytest.raises(ValueError, match="path"):
            trainer.save_checkpoint()
        # An explicit path works without any manager.
        path = trainer.save_checkpoint(tmp_path / "manual.ckpt")
        assert path == str(tmp_path / "manual.ckpt")
        trainer.close()

    def test_checkpoint_every_cadence_plus_final_save(
        self, small_fed, small_edges, tmp_path
    ):
        _finish(
            _make_trainer(
                small_fed, small_edges, checkpoint_dir=tmp_path / "ck",
                checkpoint_every=4,
            )
        )
        saved = sorted(p.name for p in (tmp_path / "ck").glob("*.ckpt"))
        # Round 4 on cadence; the off-cadence final round 6 is saved anyway.
        assert saved == ["ckpt_round_000004.ckpt", "ckpt_round_000006.ckpt"]


class _RoundAtStart(Callback):
    """Record the round a run() starts from (after any auto-resume)."""

    def __init__(self):
        self.rounds: list[int] = []

    def on_train_start(self, trainer) -> None:
        self.rounds.append(trainer.round_idx)


class TestAmbientPolicyResume:
    def test_trainers_auto_resume_under_policy(self, small_fed, small_edges, tmp_path):
        golden = _finish(_make_trainer(small_fed, small_edges))

        policy = CheckpointPolicy(dir=str(tmp_path))
        with activated(RunContext(checkpoint=policy)):
            first_leg = _make_trainer(small_fed, small_edges)
            try:
                first_leg.run(max_rounds=3)
            finally:
                first_leg.close()
        assert (tmp_path / "ckpt-test" / "ckpt_round_000003.ckpt").exists()

        resume = CheckpointPolicy(dir=str(tmp_path), resume=True)
        with activated(RunContext(checkpoint=resume)):
            second_leg = _make_trainer(small_fed, small_edges)
        # Construction leaves the trainer fresh; the first run() resumes.
        assert second_leg.round_idx == 0
        start = _RoundAtStart()
        second_leg.callbacks.append(start)
        assert _finish(second_leg) == golden
        assert start.rounds == [3]

    def test_explicit_dir_beats_ambient_policy(self, small_fed, small_edges, tmp_path):
        policy = CheckpointPolicy(dir=str(tmp_path / "policy"))
        with activated(RunContext(checkpoint=policy)):
            trainer = _make_trainer(
                small_fed, small_edges, max_rounds=1,
                checkpoint_dir=tmp_path / "explicit",
            )
            _finish(trainer)
        assert list((tmp_path / "explicit").glob("*.ckpt"))
        assert not (tmp_path / "policy").exists()


class TestRunContextFingerprint:
    """A plan or population that came from the run context is part of the
    resolved config, so the strict fingerprint catches a resume without it."""

    def test_context_plan_missing_on_resume_rejected(
        self, small_fed, small_edges, tmp_path
    ):
        plan = FaultPlan.from_spec("dropout:0.3,groupfail:0.2", seed=3)
        with activated(RunContext(faults=plan)):
            writer = _make_trainer(
                small_fed, small_edges, faults=None, max_rounds=2,
                checkpoint_dir=tmp_path / "ck",
            )
        _finish(writer)
        reader = _make_trainer(small_fed, small_edges, faults=None, max_rounds=2)
        with pytest.raises(CheckpointError, match="faults"):
            reader.load_checkpoint(tmp_path / "ck", strict=True)
        reader.close()
        with activated(RunContext(faults=plan)):
            same = _make_trainer(small_fed, small_edges, faults=None, max_rounds=2)
        assert same.load_checkpoint(tmp_path / "ck").round_idx == 2
        same.close()

    def test_context_population_changed_on_resume_rejected(self, tmp_path):
        def make(spec, ckdir=None):
            # Churn flips the store's active mask: never on a shared fixture.
            train, test = SyntheticImage(noise_std=2.0, seed=0).train_test(1_500, 200)
            fed = FederatedDataset.from_dataset(
                train, test, num_clients=16, alpha=0.1, size_low=15,
                size_high=50, rng=11,
            )
            edges = [np.arange(0, 8), np.arange(8, 16)]
            groups = group_clients_per_edge(CoVGrouping(3, 1.0), fed.L, edges, rng=0)
            cfg = TrainerConfig(
                max_rounds=2, group_rounds=1, local_rounds=1, num_sampled=2, seed=7
            )
            with activated(RunContext(population=PopulationModel.from_spec(spec))):
                return GroupFELTrainer(
                    model_fn, fed, groups, cfg, paper_cost_model(),
                    grouper=CoVGrouping(3, 1.0), edge_assignment=edges,
                    checkpoint_dir=ckdir,
                )

        _finish(make("leave:0.05", tmp_path / "ck"))
        reader = make("leave:0.3")
        with pytest.raises(CheckpointError, match="population"):
            reader.load_checkpoint(tmp_path / "ck")
        reader.close()


class TestClusteredAutoResume:
    """Auto-resume runs once the subclass is built: IFCA's centers and
    FedCLAR's cluster models come back instead of crashing or being reset."""

    @pytest.mark.parametrize(
        "cls, kwargs",
        [
            (IFCATrainer, {"num_clusters": 3}),
            (FedCLARTrainer, {"cluster_round": 1, "num_clusters": 2}),
        ],
    )
    def test_two_legs_match_uninterrupted(
        self, cls, kwargs, small_fed, small_edges, tmp_path
    ):
        def make():
            groups = group_clients_per_edge(
                CoVGrouping(3, 1.0), small_fed.L, small_edges, rng=0
            )
            cfg = TrainerConfig(
                max_rounds=4, group_rounds=1, local_rounds=1, num_sampled=2, seed=7
            )
            return cls(
                model_fn, small_fed, groups, cfg, paper_cost_model(),
                label=cls.__name__, **kwargs,
            )

        golden = _finish(make())
        with activated(RunContext(checkpoint=CheckpointPolicy(dir=str(tmp_path)))):
            first_leg = make()
        first_leg.run(max_rounds=2)
        first_leg.close()
        resume = CheckpointPolicy(dir=str(tmp_path), resume=True)
        with activated(RunContext(checkpoint=resume)):
            second_leg = make()
        start = _RoundAtStart()
        second_leg.callbacks.append(start)
        assert _finish(second_leg) == golden
        assert start.rounds == [2]
