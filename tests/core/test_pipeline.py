"""Pipelined rounds: overlap without observable divergence.

``TrainerConfig(pipeline_rounds=True)`` moves round t's evaluation and
checkpoint file write onto a single background thread while round t+1
trains. The contract is that nothing observable changes:

* histories and final models are bit-identical to the synchronous path,
  on every backend, with and without SecAgg;
* the telemetry span tree stays per-round — a deferred evaluation's span
  parents under the round it evaluates, not whatever round is currently
  training;
* checkpoints written asynchronously resume exactly like synchronous ones;
* exceptions raised on the pipeline thread surface from ``run()``.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.baselines import FedCLARTrainer, IFCATrainer
from repro.checkpoint import read_checkpoint
from repro.core.trainer import GroupFELTrainer, TrainerConfig
from repro.grouping import CoVGrouping, RandomGrouping, group_clients_per_edge
from repro.nn import make_mlp
from repro.telemetry import Telemetry

# Module-level so the process backend can pickle it.
model_fn = functools.partial(make_mlp, 192, 10, seed=0)


def _run(small_fed, small_edges, *, pipeline, backend="serial", secagg=False,
         checkpoint_dir=None, telemetry=None):
    groups = group_clients_per_edge(
        CoVGrouping(3, 1.0), small_fed.L, small_edges, rng=0
    )
    cfg = TrainerConfig(
        max_rounds=3, group_rounds=1, local_rounds=1, num_sampled=2,
        momentum=0.9, seed=5, parallel_backend=backend,
        pipeline_rounds=pipeline, use_secure_aggregation=secagg,
        checkpoint_every=1 if checkpoint_dir else None,
    )
    trainer = GroupFELTrainer(
        model_fn, small_fed, groups, cfg,
        telemetry=telemetry, checkpoint_dir=checkpoint_dir,
    )
    try:
        history = trainer.run()
        return trainer.global_params.copy(), history.state_dict(), trainer
    finally:
        trainer.close()


class TestPipelineGolden:
    def test_serial_bit_identical(self, small_fed, small_edges):
        params_sync, hist_sync, _ = _run(small_fed, small_edges, pipeline=False)
        params_pipe, hist_pipe, _ = _run(small_fed, small_edges, pipeline=True)
        assert np.array_equal(params_sync, params_pipe)
        assert hist_sync == hist_pipe

    def test_serial_secagg_bit_identical(self, small_fed, small_edges):
        params_sync, hist_sync, _ = _run(
            small_fed, small_edges, pipeline=False, secagg=True
        )
        params_pipe, hist_pipe, _ = _run(
            small_fed, small_edges, pipeline=True, secagg=True
        )
        assert np.array_equal(params_sync, params_pipe)
        assert hist_sync == hist_pipe

    @pytest.mark.slow
    def test_process_backend_bit_identical(self, small_fed, small_edges):
        params_sync, hist_sync, _ = _run(
            small_fed, small_edges, pipeline=False, backend="process"
        )
        params_pipe, hist_pipe, _ = _run(
            small_fed, small_edges, pipeline=True, backend="process"
        )
        assert np.array_equal(params_sync, params_pipe)
        assert hist_sync == hist_pipe


class TestPipelineSpanTree:
    def test_deferred_eval_parents_under_its_round(self, small_fed, small_edges):
        tel = Telemetry(label="pipeline")
        _run(small_fed, small_edges, pipeline=True, telemetry=tel)
        spans = tel.tracer.spans()
        round_span_ids = {
            s.attrs["index"]: s.span_id for s in spans if s.name == "round"
        }
        evals = [s for s in spans if s.name == "evaluate"]
        assert evals, "pipelined run recorded no deferred evaluations"
        for s in evals:
            assert s.attrs["pipelined"] is True
            # round_idx was already incremented when the eval was submitted,
            # so the eval of round t carries round=t+1 and must hang under
            # the round span whose index is t.
            want_parent = round_span_ids[s.attrs["round"] - 1]
            assert s.parent_id == want_parent, (
                f"evaluate span of round {s.attrs['round']} parented under "
                f"{s.parent_id}, expected round span {want_parent}"
            )

    def test_sync_run_evaluates_inline(self, small_fed, small_edges):
        """The synchronous schedule runs the same record work inline: its
        evaluate spans are not pipelined and open outside any round."""
        tel = Telemetry(label="sync")
        _run(small_fed, small_edges, pipeline=False, telemetry=tel)
        evals = [s for s in tel.tracer.spans() if s.name == "evaluate"]
        assert len(evals) == 3
        assert all(s.attrs["pipelined"] is False for s in evals)
        assert all(s.parent_id is None for s in evals)


class TestPipelineCheckpoints:
    def test_async_checkpoints_match_sync(self, small_fed, small_edges, tmp_path):
        sync_dir = tmp_path / "sync"
        pipe_dir = tmp_path / "pipe"
        _run(small_fed, small_edges, pipeline=False, checkpoint_dir=sync_dir)
        _run(small_fed, small_edges, pipeline=True, checkpoint_dir=pipe_dir)
        sync_files = sorted(p.name for p in sync_dir.iterdir())
        pipe_files = sorted(p.name for p in pipe_dir.iterdir())
        assert sync_files == pipe_files and sync_files
        for name in sync_files:
            _, sync_state = read_checkpoint(sync_dir / name)
            _, pipe_state = read_checkpoint(pipe_dir / name)
            assert np.array_equal(
                sync_state["global_params"], pipe_state["global_params"]
            ), f"checkpoint {name} diverged"

    def test_resume_from_async_checkpoint(self, small_fed, small_edges, tmp_path):
        _, hist, _ = _run(
            small_fed, small_edges, pipeline=True, checkpoint_dir=tmp_path
        )
        groups = group_clients_per_edge(
            CoVGrouping(3, 1.0), small_fed.L, small_edges, rng=0
        )
        cfg = TrainerConfig(
            max_rounds=3, group_rounds=1, local_rounds=1, num_sampled=2,
            momentum=0.9, seed=5, pipeline_rounds=True, checkpoint_every=1,
        )
        resumed = GroupFELTrainer(model_fn, small_fed, groups, cfg)
        try:
            resumed.load_checkpoint(tmp_path)
            assert resumed.round_idx == 3
            assert resumed.history.state_dict() == hist
        finally:
            resumed.close()


class TestPipelineClustered:
    """IFCA and FedCLAR run the one round loop, so their blended
    evaluation and extra checkpoint state pipeline like the base
    trainer's: every output, checkpoint files included, is identical."""

    TRAINERS = {
        "ifca": (IFCATrainer, {"num_clusters": 3}),
        "fedclar": (FedCLARTrainer, {"cluster_round": 2, "num_clusters": 3}),
    }

    def _run(self, small_fed, small_edges, kind, backend, pipeline, ckpt_dir):
        groups = group_clients_per_edge(
            RandomGrouping(3), small_fed.L, small_edges, rng=0
        )
        cfg = TrainerConfig(
            max_rounds=4, group_rounds=1, local_rounds=1, num_sampled=3,
            momentum=0.9, seed=5, parallel_backend=backend,
            pipeline_rounds=pipeline, checkpoint_every=1,
        )
        cls, kwargs = self.TRAINERS[kind]
        trainer = cls(
            model_fn, small_fed, groups, cfg, checkpoint_dir=ckpt_dir, **kwargs
        )
        try:
            history = trainer.run()
            models = (
                trainer.center_models if kind == "ifca"
                else list(trainer.cluster_models.values())
            )
            files = {p.name: p.read_bytes() for p in sorted(ckpt_dir.iterdir())}
            return trainer.global_params, history.state_dict(), models, files
        finally:
            trainer.close()

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("kind", ["ifca", "fedclar"])
    def test_pipelined_equals_synchronous(
        self, small_fed, small_edges, tmp_path, kind, backend
    ):
        params_s, hist_s, models_s, files_s = self._run(
            small_fed, small_edges, kind, backend, False, tmp_path / "sync"
        )
        params_p, hist_p, models_p, files_p = self._run(
            small_fed, small_edges, kind, backend, True, tmp_path / "pipe"
        )
        assert np.array_equal(params_s, params_p)
        assert hist_s == hist_p
        assert len(models_s) == len(models_p) == 3
        for a, b in zip(models_s, models_p):
            assert np.array_equal(a, b)
        assert files_s.keys() == files_p.keys() and len(files_s) == 4
        for name in files_s:
            assert files_s[name] == files_p[name], f"checkpoint {name} diverged"


class TestPipelineErrors:
    def test_async_exception_surfaces_from_run(self, small_fed, small_edges):
        groups = group_clients_per_edge(
            CoVGrouping(3, 1.0), small_fed.L, small_edges, rng=0
        )
        cfg = TrainerConfig(
            max_rounds=3, group_rounds=1, local_rounds=1, num_sampled=2,
            seed=5, pipeline_rounds=True,
        )
        trainer = GroupFELTrainer(model_fn, small_fed, groups, cfg)

        def boom(*args, **kwargs):
            raise RuntimeError("pipeline boom")

        # Deferred records evaluate on the pipeline thread.
        trainer.evaluate = boom
        try:
            with pytest.raises(RuntimeError, match="pipeline boom"):
                trainer.run()
        finally:
            trainer.close()

