"""Compare two recorded sets of the round ledger, metric by workload.

    python3 benchmarks/e2e/compare.py A B

``A`` (the parent) and ``B`` (the change) are line numbers in history.jsonl
(0-based, negative counts from the end: ``compare.py -2 -1``) or paths to a
file holding one record. For every (end-to-end metric, workload) pair the
allowance — BENCHMARK.json's bound as a share of A's median, or the metric's
absolute floor in ``ABSOLUTE`` when that is larger — is applied to the
medians over each set's runs:

* ``ok``          B's median is not worse than A's by more than the allowance;
* ``regressed``   it is;
* ``unresolved``  the run-to-run spread of either set (interquartile range)
                  is wider than the allowance, so the sets cannot tell —
                  unless every run of B beats every run of A.

Deterministic outputs (params hash, ledger total, sampled groups) and the
per-layer counts are compared exactly when both sets used the same seed
and round counts.
Exits non-zero when anything regressed or an operation failed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
#: Absolute floors under the relative bounds (the driver's schema can only
#: express the relative part): a 25 ms set-up would otherwise "regress" on a
#: 7 ms change, and accuracy is allowed 0.02 whatever its level.
ABSOLUTE = {"setup_s": 0.25, "test_accuracy": 0.02}
#: run outputs that a seed fixes exactly ...
EXACT = ("params_sha256", "ledger_total", "sampled_sha256")
#: ... and the per-layer counts that must repeat with them
COUNTED = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]


def load(ref: str) -> dict:
    """A record by history.jsonl line number, or from a file of its own."""
    try:
        index = int(ref)
    except ValueError:
        return json.loads(Path(ref).read_text().strip().splitlines()[-1])
    lines = (HERE / "history.jsonl").read_text().strip().splitlines()
    return json.loads(lines[index])


def spread(values: list[float]) -> float:
    """Interquartile range, in the metric's unit (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def allowance(metric: dict, median_a: float) -> float:
    """How much worse B's median may be, in the metric's unit."""
    return max(metric["bound"] * abs(median_a), ABSOLUTE.get(metric["name"], 0.0))


def verdict(a: list[float], b: list[float], better: str, allowed: float) -> tuple[str, float]:
    """(``ok`` / ``regressed`` / ``unresolved``, worsening in the metric's unit)."""
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (statistics.median(b) - statistics.median(a))
    if max(spread(a), spread(b)) > allowed:
        all_better = max(sign * v for v in b) < min(sign * v for v in a)
        return ("ok" if all_better else "unresolved"), worsening
    return ("regressed" if worsening > allowed else "ok"), worsening


def compare(a: dict, b: dict) -> int:
    """Print one row per (metric, workload); return the process exit code."""
    bad = 0
    same_inputs = all(a[k] == b[k] for k in ("seed", "rounds", "quick"))
    print(f"A: {a['recorded_at']} {a['machine']['commit'][:12]} seed {a['seed']}")
    print(f"B: {b['recorded_at']} {b['machine']['commit'][:12]} seed {b['seed']}")
    if a["machine"] != b["machine"]:
        differing = sorted(k for k in a["machine"] if a["machine"][k] != b["machine"].get(k))
        print(f"note: machine fingerprints differ in {differing}")
    print(f"{'workload':16s} {'metric':14s} {'A median':>12s} {'B median':>12s} "
          f"{'worse by':>9s} {'allowed':>8s}  verdict")
    for name in a["workloads"]:
        runs_a, runs_b = a["workloads"][name], b["workloads"].get(name)
        if not runs_b:
            print(f"{name:16s} missing from B")
            bad += 1
            continue
        for metric in SPEC["end_to_end"]:
            va = [r["end_to_end"][metric["name"]] for r in runs_a]
            vb = [r["end_to_end"][metric["name"]] for r in runs_b]
            med_a = statistics.median(va)
            allowed = allowance(metric, med_a)
            word, worsening = verdict(va, vb, metric["better"], allowed)
            bad += word == "regressed"
            print(f"{name:16s} {metric['name']:14s} {med_a:12.5g} "
                  f"{statistics.median(vb):12.5g} {worsening / abs(med_a):+9.1%} "
                  f"{allowed / abs(med_a):8.1%}  {word}")
        failed = sum(r["ops_failed"] for r in runs_a + runs_b)
        if failed:
            print(f"{name:16s} ops_failed {failed}")
            bad += 1
        if same_inputs:
            differing = [
                k for k in EXACT
                if {r["info"][k] for r in runs_a} != {r["info"][k] for r in runs_b}
            ] + [
                k for k in COUNTED
                if {r["per_layer"][k] for r in runs_a} != {r["per_layer"][k] for r in runs_b}
            ]
            print(f"{name:16s} deterministic outputs and counts "
                  + ("identical" if not differing else f"DIFFER: {differing}"))
            bad += bool(differing)
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(load(sys.argv[1]), load(sys.argv[2])))
