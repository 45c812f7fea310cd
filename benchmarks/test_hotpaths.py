"""Hot-path speedup: incremental CoV-Grouping.

Times the rewritten grouping kernel against its golden reference — the
verbatim Algorithm 2 transcription in
``tests/oracles/cov_grouping_reference.py`` — at the sizes the paper's §7
experiments actually hit (grouping over an edge's client pool), asserts
the partitions are identical, and writes ``BENCH_hotpaths.json`` at the
repo root.

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
from tests.oracles.cov_grouping_reference import ReferenceCoVGrouping

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"
REPEATS = 2 if SMOKE else 3
GROUPING_SIZES = [50, 200, 800]
GROUPING_CLASSES = 100  # CIFAR-100-style label space: the label-rich regime
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


def _check_against_baseline(report):
    """The CI perf gate: each point's speedup vs the committed baseline."""
    if not BASELINE_PATH.exists():
        print("no baseline committed yet; skipping regression gate")
        return
    baseline = json.loads(BASELINE_PATH.read_text())
    floor = 1.0 - REGRESSION_TOLERANCE
    base_by = {row["num_clients"]: row["speedup"] for row in baseline["grouping"]}
    for row in report["grouping"]:
        size, got = row["num_clients"], row["speedup"]
        want = base_by.get(size)
        if want is None:
            continue
        print(f"perf gate grouping@{size}: speedup {got:.2f}x vs baseline {want:.2f}x")
        assert got >= floor * want, (
            f"grouping hot path regressed at size {size}: "
            f"{got:.2f}x < {floor:.2f} × baseline {want:.2f}x"
        )


def test_hotpath_speedups(benchmark):
    def sweep():
        return {"grouping": _bench_grouping()}

    results = run_once(benchmark, sweep)

    print(f"\n{'kernel':>10} {'size':>6} {'reference s':>12} {'fast s':>10} {'speedup':>8}")
    for r in results["grouping"]:
        print(f"{'grouping':>10} {r['num_clients']:>6} {r['reference_s']:>12.4f} "
              f"{r['incremental_s']:>10.4f} {r['speedup']:>7.2f}x")

    # The acceptance floor: ≥3× at the largest size.
    big_grouping = results["grouping"][-1]
    assert big_grouping["num_clients"] == max(GROUPING_SIZES)
    assert big_grouping["speedup"] >= 3.0, big_grouping

    report = {
        "benchmark": "hotpaths",
        "smoke": SMOKE,
        "repeats": REPEATS,
        "regression_tolerance": REGRESSION_TOLERANCE,
        "grouping": results["grouping"],
    }
    _check_against_baseline(report)
    OUT_PATH.write_text(json.dumps(report, indent=1))
    print(f"wrote {OUT_PATH}")
