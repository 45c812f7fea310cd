"""Self-test of the round ledger (not part of the tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_e2e_bench.py

Runs every workload at ``--quick`` scale (1 pass, a quarter of the rounds)
through the same command BENCHMARK.json names, so it checks the benchmark's
contract rather than re-deriving its numbers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import run  # noqa: E402  (also puts src/ on sys.path and pins BLAS threads)
import compare  # noqa: E402
import layers  # noqa: E402
from trace import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _command(workload: str, trace: int, seed: int = 0) -> tuple[dict, dict]:
    """(info line, result line) of one ``--quick`` run of the real command."""
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def quick_runs() -> dict:
    """{(workload, trace): (info, result)} for every workload, both modes."""
    return {
        (name, trace): _command(name, trace)
        for name in WORKLOAD_NAMES
        for trace in (0, 1)
    }


def test_spec_names_the_workloads_the_runner_has():
    assert WORKLOAD_NAMES == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_names_and_units_equal_the_spec(quick_runs, trace, section):
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    for name in WORKLOAD_NAMES:
        _, result = quick_runs[name, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_end_to_end_metrics_are_never_zero(quick_runs):
    for name in WORKLOAD_NAMES:
        _, result = quick_runs[name, 0]
        assert all(v["value"] > 0 for v in result["metrics"].values()), name


def test_self_times_sum_to_the_round_wall_the_clock_stamped(quick_runs):
    # the clock's stamps are taken outside the tracer, so a span left open or
    # hung on the wrong parent shows up as a difference
    for name in WORKLOAD_NAMES:
        info, _ = quick_runs[name, 1]
        assert info["self_sum_s"] == pytest.approx(info["traced_clock_wall_s"], rel=0.01)


def test_process_workload_ends_bit_identical_to_its_serial_twin(quick_runs):
    static, _ = quick_runs["dense_static", 0]
    process, _ = quick_runs["dense_process", 0]
    for key in ("params_sha256", "ledger_total", "sampled_sha256"):
        assert static[key] == process[key]


@pytest.mark.parametrize("workload", ["secure_groups", "columnar_churn"])
def test_deterministic_counts_repeat_exactly(quick_runs, workload):
    _, first = quick_runs[workload, 1]
    _, second = _command(workload, 1)
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    assert counted
    for name in counted:
        assert first["metrics"][name] == second["metrics"][name], name
    # the counts the later issues will lean on are actually exercised here
    exercised = {"secure_groups": "secure.mask_expansions",
                 "columnar_churn": "population.events"}[workload]
    assert first["metrics"][exercised]["value"] > 0
    assert first["metrics"]["nn.samples_trained"]["value"] > 0


def _lookup(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _patch_targets() -> list[tuple[object, str, object]]:
    tracer = Tracer()
    layers.install(tracer)
    targets = tracer.patched
    assert all(_lookup(owner, attr) is not original for owner, attr, original in targets)
    tracer.restore()
    return targets


def test_every_patched_callable_is_restored_after_the_traced_pass():
    targets = _patch_targets()
    workload = WORKLOADS["secure_groups"]
    out = run.run_traced(workload, seed=0, rounds=3, pairs=1)
    assert not out["errors"]
    for owner, attr, original in targets:
        assert _lookup(owner, attr) is original, f"{owner}.{attr} still wrapped"


def test_untraced_run_executes_with_no_wrapper_installed(monkeypatch):
    targets = _patch_targets()
    seen = []
    stamp = run.RoundClock.on_round_end

    def checking(self, trainer, round_idx):
        seen.append(all(_lookup(o, a) is orig for o, a, orig in targets))
        return stamp(self, trainer, round_idx)

    monkeypatch.setattr(run.RoundClock, "on_round_end", checking)
    workload = WORKLOADS["dense_static"]
    out = run.run_untraced(workload, seed=0, rounds=3, passes=1)
    assert not out["errors"]
    assert seen and all(seen)


def test_a_round_is_timed_by_its_fastest_replay():
    passes = [{"round_s": [9.0, 1.0, 2.5, 3.0]}, {"round_s": [8.0, 1.5, 2.0, 3.0]}]
    assert run.quiet_rounds(passes) == [1.0, 2.0, 3.0]  # warm-up round dropped


def test_a_pass_that_raises_is_reported_as_failed_rounds(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(run, "_checked_pass", broken)
    out = run.run_untraced(WORKLOADS["dense_static"], seed=0, rounds=3, passes=2)
    assert out["attempted"] == out["failed"] == 6
    assert out["metrics"] == {} and "boom" in out["errors"][0]


def test_a_run_leaves_no_process_behind():
    # as a subreaper this process inherits whatever the command orphans: the
    # resource trackers multiprocessing starts in the driver and in each worker
    run.adopt_descendants()
    _command("dense_process", 0)
    with pytest.raises(ChildProcessError):  # no child, adopted or own, dead or alive
        os.waitpid(-1, os.WNOHANG)


def test_run_length_is_not_a_knob():
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "dense_static", "--seconds", "5"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and "pinned" in proc.stderr


def test_compare_applies_the_absolute_floors():
    by_name = {m["name"]: m for m in SPEC["end_to_end"]}
    setup, accuracy = by_name["setup_s"], by_name["test_accuracy"]
    assert compare.allowance(setup, 0.025) == 0.25  # a 25 ms set-up may move by 250 ms
    assert compare.allowance(setup, 4.0) == 1.0  # 25 % once that is the larger
    assert compare.allowance(accuracy, 0.5) == 0.02
    assert compare.verdict([0.025] * 3, [0.032] * 3, "lower", 0.25)[0] == "ok"
    assert compare.verdict([1.0] * 3, [1.2] * 3, "lower", 0.1)[0] == "regressed"
    assert compare.verdict([1.0, 1.2, 1.4], [1.2] * 3, "lower", 0.1)[0] == "unresolved"
