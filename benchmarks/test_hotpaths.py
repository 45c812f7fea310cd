"""Hot-path speedups: incremental CoV-Grouping and vectorized SecAgg.

Times the two rewritten kernels against their golden references — the
verbatim Algorithm 2 transcription in
``tests/oracles/cov_grouping_reference.py`` and
``SecureAggregator.aggregate_reference`` — at the sizes the paper's §7
experiments actually hit (grouping over an edge's client pool, SecAgg over
one group), asserts the outputs are bit-identical, and writes
``BENCH_hotpaths.json`` at the repo root.

The committed ``benchmarks/hotpaths_baseline.json`` stores the *speedup
ratios* measured when the optimization landed; speedups are
machine-portable in a way absolute seconds are not, so CI's perf-smoke job
re-measures on its own hardware and fails if any point regresses more than
30% below its baseline ratio.  Smoke mode (``REPRO_BENCH_SMOKE=1``) keeps
the same problem sizes and trims repeats.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from _util import run_once
from repro.grouping import CoVGrouping
from repro.secure import SecureAggregator, clear_seed_table_cache
from tests.oracles.cov_grouping_reference import ReferenceCoVGrouping

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"
REPEATS = 2 if SMOKE else 3
GROUPING_SIZES = [50, 200, 800]
GROUPING_CLASSES = 100  # CIFAR-100-style label space: the label-rich regime
SECAGG_SIZES = [5, 20, 50]
SECAGG_DIM = 2000
# Fail the perf gate if a point's speedup drops >30% below its baseline.
REGRESSION_TOLERANCE = 0.30
OUT_PATH = Path(__file__).parents[1] / "BENCH_hotpaths.json"
BASELINE_PATH = Path(__file__).parent / "hotpaths_baseline.json"


def _best_of(fn, repeats=REPEATS):
    """(best seconds, last result): min over repeats rejects scheduler noise."""
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _label_matrix(n, m, seed=0):
    rng = np.random.default_rng(seed)
    props = rng.dirichlet(np.full(m, 0.3), size=n)
    totals = rng.integers(1, 41, size=n)
    return np.stack(
        [rng.multinomial(int(totals[i]), props[i]) for i in range(n)]
    ).astype(np.float64)


def _partitions(groups):
    return [tuple(g.members.tolist()) for g in groups]


def _bench_grouping():
    rows = []
    for n in GROUPING_SIZES:
        L = _label_matrix(n, GROUPING_CLASSES, seed=n)
        ids = np.arange(n)
        ref = ReferenceCoVGrouping(5, 0.5)
        inc = CoVGrouping(5, 0.5)
        ref_s, ref_groups = _best_of(lambda: ref.group(L, ids, rng=0))
        inc_s, inc_groups = _best_of(lambda: inc.group(L, ids, rng=0))
        assert _partitions(inc_groups) == _partitions(ref_groups), (
            f"engine divergence at n={n}"
        )
        rows.append(
            {
                "num_clients": n,
                "classes": GROUPING_CLASSES,
                "num_groups": len(inc_groups),
                "reference_s": ref_s,
                "incremental_s": inc_s,
                "speedup": ref_s / inc_s,
            }
        )
    return rows


def _bench_secagg():
    rows = []
    rng = np.random.default_rng(1)
    agg = SecureAggregator()
    for s in SECAGG_SIZES:
        vecs = rng.normal(size=(s, SECAGG_DIM))
        ref_s, ref_res = _best_of(lambda: agg.aggregate_reference(vecs, round_id=3))
        clear_seed_table_cache()
        # First call pays the seed-table derivation; per-round reuse is the
        # steady state (every group round re-aggregates), so warm the cache
        # once and time the steady state like the simulator sees it.
        agg.aggregate(vecs, round_id=3)
        fast_s, fast_res = _best_of(lambda: agg.aggregate(vecs, round_id=3))
        assert np.array_equal(fast_res.masked_inputs, ref_res.masked_inputs)
        assert np.array_equal(fast_res.total, ref_res.total)
        assert fast_res.mask_expansions == ref_res.mask_expansions
        rows.append(
            {
                "group_size": s,
                "dim": SECAGG_DIM,
                "reference_s": ref_s,
                "fast_s": fast_s,
                "speedup": ref_s / fast_s,
            }
        )
    return rows


def _check_against_baseline(report):
    """The CI perf gate: each point's speedup vs the committed baseline."""
    if not BASELINE_PATH.exists():
        print("no baseline committed yet; skipping regression gate")
        return
    baseline = json.loads(BASELINE_PATH.read_text())
    floor = 1.0 - REGRESSION_TOLERANCE
    checks = []
    for kind, key in (("grouping", "num_clients"), ("secagg", "group_size")):
        base_by = {row[key]: row["speedup"] for row in baseline.get(kind, [])}
        for row in report[kind]:
            want = base_by.get(row[key])
            if want is None:
                continue
            checks.append((kind, row[key], row["speedup"], want))
    for kind, size, got, want in checks:
        print(f"perf gate {kind}@{size}: speedup {got:.2f}x vs baseline {want:.2f}x")
        assert got >= floor * want, (
            f"{kind} hot path regressed at size {size}: "
            f"{got:.2f}x < {floor:.2f} × baseline {want:.2f}x"
        )


def test_hotpath_speedups(benchmark):
    def sweep():
        return {"grouping": _bench_grouping(), "secagg": _bench_secagg()}

    results = run_once(benchmark, sweep)

    print(f"\n{'kernel':>10} {'size':>6} {'reference s':>12} {'fast s':>10} {'speedup':>8}")
    for r in results["grouping"]:
        print(f"{'grouping':>10} {r['num_clients']:>6} {r['reference_s']:>12.4f} "
              f"{r['incremental_s']:>10.4f} {r['speedup']:>7.2f}x")
    for r in results["secagg"]:
        print(f"{'secagg':>10} {r['group_size']:>6} {r['reference_s']:>12.4f} "
              f"{r['fast_s']:>10.4f} {r['speedup']:>7.2f}x")

    # The acceptance floor: ≥3× at the largest size of each kernel.
    big_grouping = results["grouping"][-1]
    big_secagg = results["secagg"][-1]
    assert big_grouping["num_clients"] == max(GROUPING_SIZES)
    assert big_secagg["group_size"] == max(SECAGG_SIZES)
    assert big_grouping["speedup"] >= 3.0, big_grouping
    assert big_secagg["speedup"] >= 3.0, big_secagg

    report = {
        "benchmark": "hotpaths",
        "smoke": SMOKE,
        "repeats": REPEATS,
        "regression_tolerance": REGRESSION_TOLERANCE,
        "grouping": results["grouping"],
        "secagg": results["secagg"],
    }
    _check_against_baseline(report)
    OUT_PATH.write_text(json.dumps(report, indent=1))
    print(f"wrote {OUT_PATH}")
