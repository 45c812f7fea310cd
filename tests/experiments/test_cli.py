"""Tests for the experiments CLI."""

import json

import pytest

from repro.context import RunContext, current
from repro.experiments.cli import GENERATORS, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2a", "fig9", "table1"):
            assert name in out

    def test_unknown_target(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown target" in capsys.readouterr().err

    def test_generators_cover_all_artifacts(self):
        assert set(GENERATORS) == {
            "fig2a", "fig2b", "fig5", "fig6", "fig7", "fig8",
            "fig9", "fig10", "fig11", "fig12", "tta", "table1",
        }

    def test_fig5_text_output(self, capsys, monkeypatch):
        # fig5 is the cheapest real generator at fast scale.
        assert main(["fig5", "--scale", "fast"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "CoVG" in out and "KLDG" in out

    def test_json_output(self, capsys):
        assert main(["fig5", "--scale", "fast", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["figure"] == "5"
        assert "CoVG" in data["series"]

    def test_telemetry_flag_writes_trace(self, capsys, tmp_path):
        from repro.telemetry import load_jsonl

        path = str(tmp_path / "trace.jsonl")
        # fig7 actually trains (fig5 only times grouping), so real spans land.
        assert main(["fig7", "--scale", "fast", "--telemetry", path]) == 0
        captured = capsys.readouterr()
        assert "Figure 7" in captured.out          # normal output unchanged
        assert "Spans — fig7" in captured.err      # summary goes to stderr

        records = load_jsonl(path)
        assert records["meta"][0]["label"] == "fig7"
        assert records["meta"][0]["scale"] == "fast"
        span_names = {r["name"] for r in records["span"]}
        assert {"round", "group", "client_update"} <= span_names
        counters = {r["name"] for r in records["counter"]}
        assert "groups_sampled" in counters
        # The run context was uninstalled again on the way out.
        assert current().telemetry is None


class TestPopulationFlag:
    def test_bad_spec_fails_fast(self, capsys):
        assert main(["fig5", "--population", "walk:0.1"]) == 2
        assert "bad --population spec" in capsys.readouterr().err

    def test_ambient_model_deactivated_after_run(self, capsys):
        # fig5 only times grouping (no trainers), so the run is cheap; the
        # point is that the model is installed for the run and gone after.
        assert main(["fig5", "--scale", "fast",
                     "--population", "leave:0.01"]) == 0
        capsys.readouterr()
        assert current().population is None

    def test_telemetry_meta_records_spec(self, capsys, tmp_path):
        from repro.telemetry import load_jsonl

        path = str(tmp_path / "trace.jsonl")
        assert main(["fig5", "--scale", "fast", "--telemetry", path,
                     "--population", "leave:0.01"]) == 0
        capsys.readouterr()
        records = load_jsonl(path)
        assert records["meta"][0]["population"] == "leave:0.01"


class TestEngineFlags:
    def test_overrides_reach_trainer_and_leave_config_untouched(self):
        from repro.core.trainer import TrainerConfig, resolve_config

        cfg = TrainerConfig()
        resolved = resolve_config(
            cfg, RunContext(engine="reference", pipeline_rounds=True)
        )
        assert (resolved.engine, resolved.pipeline_rounds) == ("reference", True)
        # The caller's config object was never mutated, and an empty context
        # builds no new config at all.
        assert cfg.engine == "auto"
        assert not cfg.pipeline_rounds
        assert resolve_config(cfg, RunContext()) is cfg

    def test_trainer_picks_up_overrides(self, small_fed, small_edges):
        import functools

        from repro.context import activated
        from repro.core.trainer import GroupFELTrainer, TrainerConfig
        from repro.grouping import CoVGrouping, group_clients_per_edge
        from repro.nn import make_mlp

        groups = group_clients_per_edge(
            CoVGrouping(3, 1.0), small_fed.L, small_edges, rng=0
        )
        cfg = TrainerConfig(max_rounds=1)
        with activated(RunContext(engine="reference", pipeline_rounds=True)):
            trainer = GroupFELTrainer(
                functools.partial(make_mlp, 192, 10, seed=0),
                small_fed, groups, cfg,
            )
        try:
            assert trainer.config.engine == "reference"
            assert trainer.config.pipeline_rounds is True
            # untouched knob
            assert trainer.config.sampling_scheme == "sequential_wor"
            assert cfg.engine == "auto"  # caller's object not mutated
        finally:
            trainer.close()

    def test_partial_override_keeps_other_knobs(self):
        from repro.core.trainer import TrainerConfig, resolve_config

        cfg = TrainerConfig(pipeline_rounds=True, sampling_scheme="stratified")
        resolved = resolve_config(cfg, RunContext(engine="batched"))
        assert resolved.engine == "batched"
        assert resolved.pipeline_rounds is True
        assert resolved.sampling_scheme == "stratified"

    def test_cli_flags_deactivated_after_run(self, capsys):
        assert main(["fig5", "--scale", "fast", "--engine", "reference",
                     "--pipeline-rounds"]) == 0
        capsys.readouterr()
        assert current() == RunContext()

    def test_bad_engine_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig5", "--engine", "turbo"])
        assert "invalid choice" in capsys.readouterr().err


class TestCheckpointFlags:
    def test_resume_requires_checkpoint_dir(self, capsys):
        assert main(["fig5", "--resume"]) == 2
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err

    def test_checkpoint_every_must_be_positive(self, capsys, tmp_path):
        assert main(
            ["fig5", "--checkpoint-dir", str(tmp_path), "--checkpoint-every", "0"]
        ) == 2
        assert "--checkpoint-every" in capsys.readouterr().err

    def test_policy_deactivated_after_run(self, capsys, tmp_path):
        assert main(["fig5", "--scale", "fast", "--checkpoint-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert current().checkpoint is None

    @pytest.mark.slow
    def test_cli_resume_bit_identical(self, capsys, tmp_path):
        """fig7 run in two legs via --resume must emit the same JSON as one
        uninterrupted run — and only under the fault plan it was written
        with."""
        ckdir = str(tmp_path / "ck")
        run = ["fig7", "--scale", "fast", "--json", "--checkpoint-dir", ckdir]
        assert main([*run, "--faults", "dropout:0.2"]) == 0
        full = json.loads(capsys.readouterr().out)
        # Second invocation resumes every method at its final round: no new
        # training happens, and the regenerated figure is identical.
        assert main([*run, "--faults", "dropout:0.2", "--resume"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed == full
        # The plan is part of the checkpoint's fingerprint: dropping it on
        # resume is refused instead of silently replaying a faultless run.
        assert main([*run, "--resume"]) == 1
        assert "faults" in capsys.readouterr().err
