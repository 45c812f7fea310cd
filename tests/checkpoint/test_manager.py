"""Tests for CheckpointManager and the run context's CheckpointPolicy."""

from __future__ import annotations

import os

import pytest

from repro.checkpoint import CheckpointManager, CheckpointPolicy
from repro.checkpoint.manager import _slug, manager_for_label
from repro.context import RunContext, activated, current
from repro.telemetry import Telemetry


class TestCadence:
    def test_every_round_by_default(self, tmp_path):
        m = CheckpointManager(tmp_path)
        assert all(m.should_save(r) for r in range(1, 5))

    def test_every_n(self, tmp_path):
        m = CheckpointManager(tmp_path, every=3)
        assert [r for r in range(1, 10) if m.should_save(r)] == [3, 6, 9]

    def test_invalid_knobs(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, every=0)
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep=0)


class TestDirectory:
    def test_latest_none_when_empty(self, tmp_path):
        m = CheckpointManager(tmp_path / "nothing-here")
        assert m.checkpoints() == []
        assert m.latest() is None
        with pytest.raises(FileNotFoundError):
            m.load_latest()

    def test_checkpoints_sorted_by_round(self, tmp_path):
        m = CheckpointManager(tmp_path)
        for r in (12, 3, 7):
            m.save({"round": r}, r)
        rounds = [os.path.basename(p) for p in m.checkpoints()]
        assert rounds == [
            "ckpt_round_000003.ckpt",
            "ckpt_round_000007.ckpt",
            "ckpt_round_000012.ckpt",
        ]
        assert m.latest().endswith("ckpt_round_000012.ckpt")

    def test_foreign_files_ignored(self, tmp_path):
        (tmp_path / "notes.txt").write_text("x")
        (tmp_path / "ckpt_round_abc.ckpt").write_text("x")
        m = CheckpointManager(tmp_path)
        m.save({"round": 1}, 1)
        assert len(m.checkpoints()) == 1

    def test_load_latest_round_trips(self, tmp_path):
        m = CheckpointManager(tmp_path)
        m.save({"round": 1}, 1, meta={"label": "a"})
        m.save({"round": 2}, 2, meta={"label": "a"})
        header, payload = m.load_latest()
        assert header["round_idx"] == 2
        assert payload["round"] == 2

    def test_retention_prunes_oldest(self, tmp_path):
        m = CheckpointManager(tmp_path, keep=2)
        for r in range(1, 6):
            m.save({"round": r}, r)
        names = [os.path.basename(p) for p in m.checkpoints()]
        assert names == ["ckpt_round_000004.ckpt", "ckpt_round_000005.ckpt"]

    def test_last_saved_round_tracks(self, tmp_path):
        m = CheckpointManager(tmp_path)
        assert m.last_saved_round is None
        m.save({}, 4)
        assert m.last_saved_round == 4


class TestTelemetryCounters:
    def test_save_emits_counters(self, tmp_path):
        tel = Telemetry(label="ckpt-test")
        m = CheckpointManager(tmp_path, telemetry=tel)
        path = m.save({"x": list(range(100))}, 1)
        counters = tel.metrics.counters()
        assert counters["checkpoint.saves"] == 1.0
        assert counters["checkpoint.bytes"] == float(os.path.getsize(path))


class TestAmbientPolicy:
    def test_activation_scopes_and_restores(self, tmp_path):
        assert current().checkpoint is None
        policy = CheckpointPolicy(dir=str(tmp_path))
        with activated(RunContext(checkpoint=policy)):
            assert current().checkpoint is policy
            inner = CheckpointPolicy(dir=str(tmp_path / "b"), every=2)
            with activated(RunContext(checkpoint=inner)):
                assert current().checkpoint is inner
            assert current().checkpoint is policy
        assert current().checkpoint is None

    def test_manager_for_label_namespaces_by_slug(self, tmp_path):
        policy = CheckpointPolicy(dir=str(tmp_path), every=4, keep=3)
        m = manager_for_label(policy, "group_fel")
        assert m.directory == os.path.join(str(tmp_path), "group_fel")
        assert m.every == 4 and m.keep == 3
        # Trainer cadence overrides the policy's.
        assert manager_for_label(policy, "x", every=2).every == 2

    def test_slug_sanitizes_labels(self):
        assert _slug("CoV / esrcov") == "CoV_esrcov"
        assert _slug("") == "run"
        assert _slug("a.b-c_9") == "a.b-c_9"

    def test_managers_for_two_labels_do_not_collide(self, tmp_path):
        policy = CheckpointPolicy(dir=str(tmp_path))
        a = manager_for_label(policy, "fedavg")
        b = manager_for_label(policy, "scaffold")
        a.save({"who": "a"}, 1)
        b.save({"who": "b"}, 1)
        assert a.load_latest()[1]["who"] == "a"
        assert b.load_latest()[1]["who"] == "b"
