"""Parallel-round scaling: long-lived pools, batched engine, shm dispatch.

Measures round throughput and per-round dispatch overhead for the three
execution backends at several model sizes (workers start once, the dataset
ships once, per-round dispatch is the slim task tuple of
``repro.core.executor``). A second sweep times the stacked batched training
engine (``repro.nn.batched``) against the per-client reference loop at
group sizes >= 20 in the regime the engine targets — small models, small
batches, where Python dispatch (not GEMM time) dominates. Results land in
``BENCH_parallel_scaling.json`` at the repo root; CI runs this file in
smoke mode (``REPRO_BENCH_SMOKE=1``) and uploads the JSON.

Hard assertions are structural (pool counts, one-time worker init,
batched == reference bit-for-bit) plus the timing claims: the batched
engine is >= 3x the per-client loop at group size >= 20; and, given at
least two cores, the process backend beats the serial loop at every
benchmarked model size.
The committed ``benchmarks/parallel_baseline.json`` turns those ratios
into a CI regression gate: any cell that drops more than 30% below its
baseline fails the run (mirroring the hotpaths gate).
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

import numpy as np

from _util import run_once
from repro.core import GroupFELTrainer, TrainerConfig
from repro.core.client import run_local_rounds
from repro.data import FederatedDataset, SyntheticImage
from repro.data.client_data import ClientDataset
from repro.grouping import CoVGrouping, group_clients_per_edge
from repro.nn import make_mlp
from repro.nn.batched import batched_local_rounds
from repro.nn.optim import SGD
from repro.parallel import ParallelMap
from repro.telemetry import Telemetry

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"
ROUNDS = 2 if SMOKE else 5
HIDDEN_SIZES = [(32,)] if SMOKE else [(32,), (128,), (256,)]
OUT_PATH = Path(__file__).parents[1] / "BENCH_parallel_scaling.json"
BASELINE_PATH = Path(__file__).parent / "parallel_baseline.json"
#: fail the perf gate if a cell drops >30% below its committed baseline
REGRESSION_TOLERANCE = 0.30
#: multi-core timing claims are meaningless on a single-core runner
MULTICORE = (os.cpu_count() or 1) >= 2

# The batched engine's target regime: small models and batches, where the
# per-client loop's cost is Python dispatch rather than GEMM time.
ENGINE_FEATURES = 64
ENGINE_BATCH = 8
ENGINE_EPOCHS = 2
ENGINE_SHARD = 32
ENGINE_CELLS = [  # (label, hidden layers, group size)
    ("softmax", (), 20),
    ("mlp16", (16,), 20),
    ("mlp16", (16,), 40),
]

# Module-level partials so the process backend can pickle the model factory.
MODEL_FNS = {
    hidden: functools.partial(make_mlp, 192, 10, hidden=hidden, seed=3)
    for hidden in HIDDEN_SIZES
}


def _make_fed():
    data = SyntheticImage(noise_std=2.0, seed=0)
    train, test = data.train_test(1_200 if SMOKE else 3_000, 200)
    return FederatedDataset.from_dataset(
        train, test, num_clients=16, alpha=0.3,
        size_low=30, size_high=60, rng=7,
    )


def _run_config(fed, groups, hidden, backend):
    """Train ROUNDS rounds on one (backend, model size) cell."""
    tel = Telemetry(label=backend)
    cfg = TrainerConfig(group_rounds=1, local_rounds=1, num_sampled=3,
                        lr=0.08, max_rounds=ROUNDS, seed=0,
                        parallel_backend=backend)
    pmap = ParallelMap(backend, max_workers=2, telemetry=tel)
    trainer = GroupFELTrainer(MODEL_FNS[hidden], fed, groups, cfg,
                              parallel=pmap)
    try:
        t0 = time.perf_counter()
        trainer.run()
        total_s = time.perf_counter() - t0
    finally:
        trainer.close()
        pmap.close()

    model_params = MODEL_FNS[hidden]().num_params
    dispatch = tel.metrics.histogram("pool.dispatch_s")
    init = tel.metrics.histogram("pool.init_s")
    return {
        "backend": backend,
        "hidden": list(hidden),
        "model_params": int(model_params),
        "rounds": ROUNDS,
        "total_s": total_s,
        "per_round_s": total_s / ROUNDS,
        "rounds_per_s": ROUNDS / total_s,
        "pools_created": pmap.pools_created,
        "dispatch_s_per_round": (sum(dispatch.values()) / ROUNDS
                                 if dispatch.count else 0.0),
        "pool_init_s_total": sum(init.values()) if init.count else 0.0,
    }


def _best_of(fn, repeats: int = 3):
    """Minimum wall-clock over a few runs (suppresses scheduler noise)."""
    best_s, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best_s = min(best_s, time.perf_counter() - t0)
    return best_s, result


def _engine_clients(group_size: int, num_classes: int = 10):
    rng = np.random.default_rng(42)
    clients = []
    for cid in range(group_size):
        x = rng.standard_normal((ENGINE_SHARD, ENGINE_FEATURES))
        y = rng.integers(0, num_classes, size=ENGINE_SHARD)
        clients.append(
            ClientDataset(cid, x, y, np.bincount(y, minlength=num_classes))
        )
    return clients


def _bench_engine():
    """Batched engine vs per-client reference loop, identical math."""
    rows = []
    for label, hidden, group_size in ENGINE_CELLS:
        model = make_mlp(ENGINE_FEATURES, 10, hidden=hidden, seed=3)
        optimizer = SGD(model, lr=0.05)
        clients = _engine_clients(group_size)
        start = model.get_params().copy()

        def reference():
            outs = []
            for c, r in zip(
                clients, np.random.default_rng(5).spawn(len(clients))
            ):
                params, _ = run_local_rounds(
                    model, optimizer, c, start,
                    local_rounds=ENGINE_EPOCHS, batch_size=ENGINE_BATCH,
                    rng=r, step_mode="epoch",
                )
                outs.append(params)
            return np.stack(outs)

        def batched():
            return batched_local_rounds(
                model, optimizer, clients, start,
                local_rounds=ENGINE_EPOCHS, batch_size=ENGINE_BATCH,
                rngs=list(np.random.default_rng(5).spawn(len(clients))),
                step_mode="epoch",
            )

        ref_s, ref_out = _best_of(reference)
        fast_s, fast_out = _best_of(batched)
        # Not a tolerance check: the engines must agree bit for bit.
        assert np.array_equal(ref_out, fast_out)
        rows.append(
            {
                "model": label,
                "hidden": list(hidden),
                "group_size": group_size,
                "model_params": int(model.num_params),
                "reference_s": ref_s,
                "batched_s": fast_s,
                "speedup": ref_s / fast_s,
            }
        )
    return rows


def _check_against_baseline(report):
    """The CI perf gate: each cell's ratio vs the committed baseline."""
    if not BASELINE_PATH.exists():
        print("no parallel baseline committed yet; skipping regression gate")
        return
    baseline = json.loads(BASELINE_PATH.read_text())
    floor = 1.0 - REGRESSION_TOLERANCE
    base_engine = {
        (row["model"], row["group_size"]): row["speedup"]
        for row in baseline.get("engine", [])
    }
    for row in report["engine"]:
        want = base_engine.get((row["model"], row["group_size"]))
        if want is None:
            continue
        got = row["speedup"]
        print(
            f"perf gate engine {row['model']}@{row['group_size']}: "
            f"{got:.2f}x vs baseline {want:.2f}x"
        )
        assert got >= floor * want, (
            f"batched engine regressed at {row['model']}@{row['group_size']}: "
            f"{got:.2f}x < {floor:.2f} x baseline {want:.2f}x"
        )
    if not MULTICORE:
        print("single-core runner; skipping process-vs-serial gate")
        return
    base_ratio = {
        tuple(row["hidden"]): row["serial_over_process"]
        for row in baseline.get("process_vs_serial", [])
    }
    for row in report["process_vs_serial"]:
        want = base_ratio.get(tuple(row["hidden"]))
        if want is None:
            continue
        got = row["serial_over_process"]
        print(
            f"perf gate process hidden={row['hidden']}: serial/process "
            f"{got:.2f}x vs baseline {want:.2f}x"
        )
        assert got >= floor * want, (
            f"process backend regressed at hidden={row['hidden']}: "
            f"serial/process {got:.2f}x < {floor:.2f} x baseline {want:.2f}x"
        )


def test_persistent_pool_scaling(benchmark):
    fed = _make_fed()
    edges = [np.arange(fed.num_clients)]
    groups = group_clients_per_edge(CoVGrouping(3, 0.5), fed.L, edges, rng=0)

    def sweep():
        rows = []
        for hidden in HIDDEN_SIZES:
            for backend in ("serial", "thread", "process"):
                rows.append(_run_config(fed, groups, hidden, backend))
        return rows, _bench_engine()

    rows, engine_rows = run_once(benchmark, sweep)

    print(f"\n{'backend':>8} {'params':>8} {'s/round':>9} "
          f"{'dispatch s/rd':>13} {'pools':>6}")
    for r in rows:
        print(f"{r['backend']:>8} {r['model_params']:>8} "
              f"{r['per_round_s']:>9.3f} {r['dispatch_s_per_round']:>13.4f} "
              f"{r['pools_created']:>6}")

    print(f"\n{'engine':>10} {'B':>4} {'params':>8} {'reference s':>12} "
          f"{'batched s':>10} {'speedup':>8}")
    for r in engine_rows:
        print(f"{r['model']:>10} {r['group_size']:>4} {r['model_params']:>8} "
              f"{r['reference_s']:>12.4f} {r['batched_s']:>10.4f} "
              f"{r['speedup']:>8.2f}")

    by = {(r["backend"], tuple(r["hidden"])): r for r in rows}
    ratio_rows = []
    for hidden in HIDDEN_SIZES:
        serial = by[("serial", hidden)]
        thread = by[("thread", hidden)]
        proc = by[("process", hidden)]
        # Structural: pools are built once for the whole run.
        assert serial["pools_created"] == 0
        assert thread["pools_created"] == 1
        assert proc["pools_created"] == 1
        ratio_rows.append(
            {
                "hidden": list(hidden),
                "serial_per_round_s": serial["per_round_s"],
                "process_per_round_s": proc["per_round_s"],
                "serial_over_process": serial["per_round_s"]
                / proc["per_round_s"],
            }
        )
        # The headline claim this PR exists for — process dispatch must
        # not lose to the serial loop — needs real parallel hardware.
        if MULTICORE:
            assert proc["per_round_s"] < serial["per_round_s"], (
                f"process backend slower than serial at hidden={hidden}: "
                f"{proc['per_round_s']:.3f}s vs {serial['per_round_s']:.3f}s "
                "per round"
            )

    # Batched engine: the acceptance bar is 3x over the per-client loop at
    # group sizes >= 20 in the engine's target regime.
    for r in engine_rows:
        assert r["speedup"] >= 3.0, (
            f"batched engine below 3x at {r['model']}@{r['group_size']}: "
            f"{r['speedup']:.2f}x"
        )

    report = {
        "benchmark": "parallel_scaling",
        "smoke": SMOKE,
        "rounds_per_cell": ROUNDS,
        "num_sampled_groups": 3,
        "max_workers": 2,
        "multicore": MULTICORE,
        "results": rows,
        "process_vs_serial": ratio_rows,
        "engine": engine_rows,
    }
    _check_against_baseline(report)
    OUT_PATH.write_text(json.dumps(report, indent=1))
    print(f"wrote {OUT_PATH}")
