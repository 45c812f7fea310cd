"""End-to-end round ledger: one command, five pinned workloads.

Two ways to run it::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds 20 --trace 0|1
        one run of one workload (the form BENCHMARK.json's driver uses);
        the last stdout line is one JSON object with the metrics.

    python3 benchmarks/e2e/run.py [--seed N] [--quick] [--repeat R] [--record]
        the full set: every workload, untraced then traced, each run in its
        own interpreter, interleaved A B C D E, A B C D E when repeated;
        prints every metric by name with its unit and (``--record``) appends
        one line to history.jsonl.

``--trace 0`` runs the workload's pinned passes, each a fresh population +
trainer built from the seed, with no wrapper installed anywhere: round
latency comes from a public ``Callback`` stamping ``on_train_start`` /
``on_round_end``. The first round of each pass is warm-up (one-time costs:
the pi_g computation, shared-memory channel creation) and is reported, not
measured. Every pass replays the same seed, so round i does the same work in
each; the round's latency is its fastest replay (see ``quiet_rounds``).

``--trace 1`` alternates untraced and traced passes of the same seed; a
traced pass rebinds the layers' public callables (see trace.py / layers.py)
and gives per-layer self time, counts and the tracing overhead.

The measured work is fixed (``rounds`` x ``passes`` in workloads.py, sized for
``run_seconds``), so ``--seconds`` only accepts that value. Closed loop, one
driver process; BLAS threads are pinned to 1, so only ``dense_process`` uses
more than one core.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from repro.checkpoint import read_checkpoint  # noqa: E402
from repro.core import Callback  # noqa: E402

import layers  # noqa: E402
from trace import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, build  # noqa: E402

#: extra build-only set-ups timed per untraced run, so ``setup_s`` is a
#: median over SETUPS + passes samples
SETUPS = 5
#: (untraced, traced) pass pairs of a ``--trace 1`` run
TRACE_PAIRS = 2
#: share of a round the traced pass may leave unattributed (serial workloads)
MAX_SELF_SHARE = 0.05
#: traced / untraced round latency the full set accepts, on the median of its
#: repeats — a single run is not failed on a ratio of two noisy timings
MAX_TRACE_OVERHEAD = 1.10
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class RoundClock(Callback):
    """Stamps round boundaries; with a tracer, each round is a root span."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.stamps: list[float] = []
        self.roots: list[int] = []
        self.bad_rounds = 0
        self.warmup_counts: dict = {}
        self._open: int | None = None

    def on_train_start(self, trainer) -> None:
        self.stamps.append(time.perf_counter())
        if self.tracer is not None:
            self._open = self.tracer.begin("core.trainer")

    def on_round_end(self, trainer, round_idx: int) -> bool:
        if self.tracer is not None:
            self.tracer.end(self._open)
            self.roots.append(self._open)
            if len(self.roots) == 1:
                self.warmup_counts = dict(self.tracer.counts)
        self.stamps.append(time.perf_counter())
        if not np.isfinite(trainer.global_params).all():
            self.bad_rounds += 1
        if self.tracer is not None:
            self._open = self.tracer.begin("core.trainer")
        return False

    def on_train_end(self, trainer) -> None:
        if self.tracer is not None:
            self.tracer.end(self._open)  # tail after the last round; not a root

    @property
    def round_s(self) -> list[float]:
        return [b - a for a, b in zip(self.stamps, self.stamps[1:])]


def _children_rss_kb() -> int:
    """Sum of the live worker processes' peak RSS (VmHWM), in KiB."""
    total = 0
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1])
    return total


def run_pass(workload: Workload, seed: int, rounds: int, tracer: Tracer | None = None) -> dict:
    """One fresh population + trainer, ``rounds`` global rounds, checked.

    Returns the pass's measurements and a list of failed checks (empty when
    every output is correct). A pass that raises comes back with ``raised``
    set and nothing measured: its rounds are failed operations, and the run
    still prints a result.
    """
    ckpt_dir = None
    if workload.checkpoints:  # scratch space inside the checkout, removed below
        ckpt_dir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        return _checked_pass(workload, seed, rounds, ckpt_dir, RoundClock(tracer))
    except Exception as exc:
        traceback.print_exc()
        return {"raised": True, "errors": [f"pass raised {type(exc).__name__}: {exc}"]}
    finally:
        if ckpt_dir is not None:
            shutil.rmtree(ckpt_dir, ignore_errors=True)


def _checked_pass(workload: Workload, seed: int, rounds: int, ckpt_dir, clock: RoundClock) -> dict:
    setup = build(workload, seed, rounds, ckpt_dir, callbacks=[clock])
    trainer = setup.trainer
    try:
        history = trainer.run()
        children_kb = _children_rss_kb()
    finally:
        setup.close()

    errors: list[str] = []
    params = trainer.global_params
    accuracy = float(history.test_acc[-1])
    if clock.bad_rounds:
        errors.append(f"{clock.bad_rounds} rounds ended with non-finite params")
    if trainer.round_idx != rounds:
        errors.append(f"ran {trainer.round_idx} rounds, expected {rounds}")
    if np.array_equal(params, setup.init_params):
        errors.append("training did not move the parameters")
    if accuracy < workload.min_accuracy:
        errors.append(f"test accuracy {accuracy:.3f} below floor {workload.min_accuracy}")
    if hasattr(trainer.fed, "check_invariants"):
        try:
            trainer.fed.check_invariants()
        except AssertionError as exc:
            errors.append(f"store invariant broken: {exc}")
    if ckpt_dir is not None:
        _, state = read_checkpoint(trainer.checkpoint_manager.latest())
        if state["round_idx"] != rounds or not np.array_equal(state["global_params"], params):
            errors.append("last checkpoint does not hold the final state")

    return {
        "setup_s": setup.total_s,
        "stage_s": setup.stage_s,
        "round_s": clock.round_s,
        "accuracy": accuracy,
        "groups": len(trainer.groups),
        "children_rss_kb": children_kb,
        # what must repeat exactly for a seed: params, Eq. 5 total, S_t history
        "signature": {
            "params_sha256": hashlib.sha256(params.tobytes()).hexdigest(),
            "ledger_total": trainer.ledger.total,
            "sampled_sha256": hashlib.sha256(
                json.dumps(
                    [[g.group_id for g in sel] for sel in trainer.sampled_history]
                ).encode()
            ).hexdigest(),
        },
        "errors": errors,
        "clock": clock,
    }


def quiet_rounds(passes: list[dict]) -> list[float]:
    """Latency of each measured round: the fastest of its replays.

    Every pass replays the same seed, so round i does the same work in each
    (the signature check enforces it) and the replays differ only by what
    the machine was doing. On a shared box that is one-sided: neighbours add
    time in bursts of a second or two, they never remove any. The minimum
    over replays strips the bursts; a cost the *program* pays in round i it
    pays in every replay, so it stays.
    """
    return [min(replays) for replays in zip(*(p["round_s"][1:] for p in passes))]


def _tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has ten
    samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _check_signatures(passes: list[dict], what: str) -> list[str]:
    first = passes[0]["signature"]
    return [
        f"{what}: pass {i} signature differs from pass 0 ({p['signature']} vs {first})"
        for i, p in enumerate(passes[1:], 1)
        if p["signature"] != first
    ]


def _reference_passes(workload: Workload, seed: int, rounds: int, count: int) -> list[dict]:
    """Passes of the serial twin a workload must end bit-identical to."""
    if workload.reference is None:
        return []
    return [run_pass(WORKLOADS[workload.reference], seed, rounds) for _ in range(count)]


def _nothing_measured(passes: list[dict], attempted: int) -> dict:
    """A pass raised, so the run has no numbers: every round counts as failed."""
    return {
        "metrics": {},
        "attempted": attempted,
        "failed": attempted,
        "errors": [e for p in passes for e in p["errors"]],
        "info": {},
    }


def run_untraced(workload: Workload, seed: int, rounds: int, passes: int) -> dict:
    """``--trace 0``: the end-to-end metrics."""
    build(workload, seed, rounds).close()  # untimed warm-up of lazy set-up paths
    setup_s = []
    for _ in range(SETUPS):
        setup = build(workload, seed, rounds)
        setup_s.append(setup.total_s)
        setup.close()
    results = [run_pass(workload, seed, rounds) for _ in range(passes)]
    # read before the serial twin trains in this process: up to here the
    # driver has only ever hosted the workload under test
    driver_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reference = _reference_passes(workload, seed, rounds, 1)
    attempted = rounds * (passes + len(reference))
    if any("raised" in p for p in results + reference):
        return _nothing_measured(results + reference, attempted)

    # checks that span passes: same seed => same outputs, here and on the twin
    across = _check_signatures(results, workload.name)
    for twin in reference:
        across += twin["errors"]
        across += _check_signatures([results[0], twin], f"vs {workload.reference}")

    quiet = quiet_rounds(results)
    metrics = {
        "round_s_p50": statistics.median(quiet),
        "rounds_per_s": len(quiet) / sum(quiet),
        "setup_s": statistics.median(setup_s + [r["setup_s"] for r in results]),
        "peak_rss_mb": (driver_kb + max(r["children_rss_kb"] for r in results)) / 1024,
        "test_accuracy": results[0]["accuracy"],
    }
    # a round fails with its pass; a mismatch across passes fails them all
    failed = attempted if across else rounds * sum(bool(r["errors"]) for r in results)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "errors": [e for r in results for e in r["errors"]] + across,
        "info": {
            "round_samples": len(quiet),
            "replays": passes,
            "pooled_round_s_p50": statistics.median(
                s for r in results for s in r["round_s"][1:]
            ),
            "first_round_s": [r["round_s"][0] for r in results],
            "rounds_per_pass": rounds,
            **results[0]["signature"],
        },
    }


def _quiet_self_times(traced: list[dict]) -> tuple[dict[str, float], float, float]:
    """Per-layer self seconds over the measured rounds, each round read from
    the traced pass that replayed it fastest (same rule as ``quiet_rounds``).

    Also returns those rounds' wall twice: as the sum of their root spans and
    as the sum of the RoundClock's own stamps, taken independently of the
    tracer — the two differ when a span is left open or hung on the wrong
    parent.
    """
    self_s: defaultdict[str, float] = defaultdict(float)
    span_wall = clock_wall = 0.0
    for i in range(1, len(traced[0]["round_s"])):
        best = min(traced, key=lambda t: t["tracer"].duration(t["clock"].roots[i]))
        root = best["clock"].roots[i]
        for name, seconds in best["tracer"].self_times([root]).items():
            self_s[name] += seconds
        span_wall += best["tracer"].duration(root)
        clock_wall += best["round_s"][i]
    return self_s, span_wall, clock_wall


def run_traced(workload: Workload, seed: int, rounds: int, pairs: int) -> dict:
    """``--trace 1``: the per-layer metrics, from ``pairs`` traced passes
    interleaved with as many untraced ones of the same seed (so a drift in
    machine speed cancels out of the overhead ratio)."""
    plain, traced = [], []
    for _ in range(pairs):
        plain.append(run_pass(workload, seed, rounds))
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced.append({**run_pass(workload, seed, rounds, tracer), "tracer": tracer})
        finally:
            tracer.restore()
    reference = _reference_passes(workload, seed, rounds, pairs)
    everything = plain + traced + reference
    attempted = rounds * len(everything)
    if any("raised" in p for p in everything):
        return _nothing_measured(everything, attempted)

    errors = [e for p in everything for e in p["errors"]]
    errors += _check_signatures(plain + traced, "traced vs untraced")
    for t in traced:
        errors += layers.check_errors(t["tracer"])
    if reference:
        errors += _check_signatures([plain[0], *reference], f"vs {workload.reference}")
    counts = traced[0]["tracer"].counts
    if any(t["tracer"].counts != counts for t in traced[1:]):
        errors.append("per-layer counts differ between traced passes of one seed")

    self_s, span_wall, clock_wall = _quiet_self_times(traced)
    measured = rounds - 1
    warmup = traced[0]["clock"].warmup_counts
    trained = counts["nn.samples_trained"] - warmup.get("nn.samples_trained", 0)

    def layer_s(name: str) -> float:
        return self_s.get(name, 0.0) / measured

    plain_p50 = statistics.median(quiet_rounds(plain))
    tail, tail_pct = _tail([s for p in plain for s in p["round_s"][1:]])
    train_s = self_s.get("nn.local_train", 0.0)
    submitted = counts["secure.backdoor.submitted"]
    stage_s = traced[0]["stage_s"]
    metrics = {
        "nn.local_train_s": layer_s("nn.local_train"),
        "nn.local_train_calls": counts["nn.local_train.calls"],
        "nn.samples_trained": counts["nn.samples_trained"],
        "nn.train_samples_per_s": trained / train_s if train_s else 0.0,
        "nn.evaluate_s": layer_s("nn.evaluate"),
        "nn.evaluate_calls": counts["nn.evaluate.calls"],
        "core.group.round_s": layer_s("core.group.round"),
        "core.group.calls": counts["core.group.round.calls"],
        "core.aggregation.s": layer_s("core.aggregation"),
        "core.aggregation.calls": counts["core.aggregation.calls"],
        "secure.secagg_s": layer_s("secure.secagg"),
        "secure.secagg_calls": counts["secure.secagg.calls"],
        "secure.mask_expansions": counts["secure.mask_expansions"],
        "secure.backdoor_s": layer_s("secure.backdoor"),
        "secure.backdoor_calls": counts["secure.backdoor.calls"],
        "secure.admitted_ratio": (
            counts["secure.backdoor.admitted"] / submitted if submitted else 0.0
        ),
        "sampling.sample_s": layer_s("sampling.sample"),
        "sampling.build_s": layer_s("sampling.build"),
        "sampling.builds": counts["sampling.build.calls"],
        "sampling.inclusion_s": layer_s("sampling.inclusion"),
        "sampling.inclusion_calls": counts["sampling.inclusion.calls"],
        "population.step_s": layer_s("population.step"),
        "population.maintain_s": layer_s("population.maintain"),
        "population.events": counts["population.events"],
        "population.groups_changed_rounds": counts["population.groups_changed_rounds"],
        "data.build_s": stage_s["data.build_s"],
        "data.materialize_s": layer_s("data.materialize"),
        "data.clients_materialized": counts["data.clients_materialized"],
        "grouping.form_s": stage_s["grouping.form_s"],
        "grouping.groups": traced[0]["groups"],
        "parallel.map_s": layer_s("parallel.map"),
        "parallel.tasks": counts["parallel.tasks"],
        "parallel.task_bytes": counts["parallel.task_bytes"],
        "parallel.pool_start_s": stage_s.get("parallel.pool_start_s", 0.0),
        "parallel.speedup_vs_serial": (
            statistics.median(quiet_rounds(reference)) / plain_p50 if reference else 0.0
        ),
        "checkpoint.save_s": layer_s("checkpoint.save"),
        "checkpoint.saves": counts["checkpoint.save.calls"],
        "checkpoint.bytes": counts["checkpoint.bytes"],
        "costs.charge_s": layer_s("costs.charge"),
        "core.trainer.self_s": layer_s("core.trainer"),
        "core.trainer.self_share": self_s.get("core.trainer", 0.0) / span_wall,
        "core.trainer.first_round_s": statistics.median(p["round_s"][0] for p in plain),
        "core.trainer.round_s_tail": tail,
        "bench.trace_overhead_ratio": statistics.median(quiet_rounds(traced)) / plain_p50,
    }
    if submitted and metrics["secure.admitted_ratio"] < 0.9:
        errors.append(
            f"backdoor filter admitted only {metrics['secure.admitted_ratio']:.2f} "
            "of honest clients"
        )
    if not workload.workers and metrics["core.trainer.self_share"] > MAX_SELF_SHARE:
        errors.append(
            f"{metrics['core.trainer.self_share']:.1%} of the round is attributed to "
            f"no layer (limit {MAX_SELF_SHARE:.0%})"
        )
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": attempted if errors else 0,
        "errors": errors,
        "info": {
            "tail_percentile": tail_pct,
            "tail_samples": (rounds - 1) * pairs,
            "round_samples": measured,
            "self_sum_s": sum(self_s.values()),
            "traced_clock_wall_s": clock_wall,
            "rounds_per_pass": rounds,
            **plain[0]["signature"],
        },
    }


PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>


def adopt_descendants() -> None:
    """Make this process the parent of every descendant that is orphaned.

    ``multiprocessing`` starts a resource-tracker process the first time a
    process touches shared memory (``repro.shm``): one in the driver and one
    in *each pool worker*, since the pool forks before the driver's tracker
    exists. A tracker exits only when its pipe reaches EOF, i.e. after its
    parent has gone, and nobody waits for it — a worker's tracker is
    reparented to init the moment the pool shuts down. As a subreaper this
    process inherits them instead, so ``stop_descendants`` can wait for each.
    """
    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):  # not Linux: nothing to adopt
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _child_pids() -> list[int]:
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:  # field 4 of stat, after the parenthesised command name
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            if stat.rsplit(")", 1)[1].split()[1] == me:
                found.append(int(entry))
    return found


def stop_descendants(grace_s: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    A closed pool has already joined its workers; what is left on the normal
    path are the resource trackers (see ``adopt_descendants``), which end by
    themselves once the driver closes its end of the pipe. Anything still
    alive after ``grace_s`` is killed.
    """
    for child in multiprocessing.active_children():  # only after a pass raised
        child.terminate()
    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no child left, adopted or own
            return
        if pid == 0:
            if time.monotonic() > deadline:
                for straggler in _child_pids():
                    os.kill(straggler, signal.SIGKILL)
            time.sleep(0.01)


def run_one(args) -> int:
    """Driver form: one workload, one JSON line."""
    workload = WORKLOADS[args.workload]
    rounds = max(3, workload.rounds // 4) if args.quick else workload.rounds
    if args.trace:
        out = run_traced(workload, args.seed, rounds, 1 if args.quick else TRACE_PAIRS)
        wanted = SPEC["per_layer"]
    else:
        out = run_untraced(workload, args.seed, rounds, 1 if args.quick else workload.passes)
        wanted = SPEC["end_to_end"]
    for message in out["errors"]:
        print(f"CHECK FAILED [{workload.name}]: {message}", file=sys.stderr)
    metrics = out["metrics"]  # empty when a pass raised
    if metrics and {m["name"] for m in wanted} != set(metrics):
        raise SystemExit("metrics out of step with BENCHMARK.json")
    result = {
        "correct": not out["errors"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in wanted if m["name"] in metrics
        },
    }
    print(json.dumps({"workload": workload.name, "seed": args.seed, **out["info"]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ------------------------------------------------------------------ full set
def fingerprint() -> dict:
    """Where the numbers were taken — absolute seconds mean nothing without it."""
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": commit,
    }


def _run_child(workload: str, seed: int, trace: int, quick: bool) -> dict:
    """One driver-form run in a fresh interpreter (so peak RSS is the
    workload's own); returns its info + result lines merged."""
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace),
            *(["--quick"] if quick else []),
        ],
        capture_output=True, text=True,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{workload} --trace {trace} produced no result:\n{proc.stdout}")
    return {"info": json.loads(lines[-2]), **json.loads(lines[-1])}


def run_all(args) -> int:
    """Every workload, untraced and traced, printed by name; optionally recorded."""
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    runs: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    for _ in range(args.repeat):
        for name in WORKLOADS:  # interleaved: a noisy stretch lands on every workload
            end_to_end = _run_child(name, args.seed, 0, args.quick)
            per_layer = _run_child(name, args.seed, 1, args.quick)
            runs[name].append({
                "correct": end_to_end["correct"] and per_layer["correct"],
                "ops_attempted": end_to_end["attempted"] + per_layer["attempted"],
                "ops_failed": end_to_end["failed"] + per_layer["failed"],
                "end_to_end": {k: v["value"] for k, v in end_to_end["metrics"].items()},
                "per_layer": {k: v["value"] for k, v in per_layer["metrics"].items()},
                "info": {**per_layer["info"], **end_to_end["info"]},
            })

    ok = True
    for name, reps in runs.items():
        last = reps[-1]
        ok = ok and all(r["correct"] for r in reps)
        print(f"\n== {name} — {WORKLOADS[name].why}")
        print(
            f"   ops_attempted {sum(r['ops_attempted'] for r in reps)}  "
            f"ops_failed {sum(r['ops_failed'] for r in reps)}  "
            f"rounds/pass {last['info']['rounds_per_pass']}  "
            f"round samples {last['info']['round_samples']}  "
            f"tail p{last['info']['tail_percentile']:.1f} of {last['info']['tail_samples']}"
        )
        print(
            f"   Eq.5 ledger total {last['info']['ledger_total']:.6g}  "
            f"params sha256 {last['info']['params_sha256'][:16]}"
        )
        for section in ("end_to_end", "per_layer"):
            for metric in last[section]:
                values = [r[section][metric] for r in reps]
                print(f"   {metric:32s} {statistics.median(values):14.6g} {units[metric]}")
        overhead = statistics.median(r["per_layer"]["bench.trace_overhead_ratio"] for r in reps)
        if overhead > MAX_TRACE_OVERHEAD:
            ok = False
            print(f"CHECK FAILED [{name}]: tracing overhead {overhead:.3f} > {MAX_TRACE_OVERHEAD}",
                  file=sys.stderr)
    if args.record:
        record = {
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "machine": fingerprint(),
            "seed": args.seed,
            "rounds": {name: [w.rounds, w.passes] for name, w in WORKLOADS.items()},
            "quick": args.quick,
            "workloads": runs,
        }
        with open(HERE / "history.jsonl", "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"\nrecorded to {HERE / 'history.jsonl'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=SPEC["run_seconds"],
        help="accepted for the driver; the measured work is pinned for run_seconds",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="1 pass, 1/4 of the rounds")
    parser.add_argument("--repeat", type=int, default=1, help="full sets to interleave")
    parser.add_argument("--record", action="store_true", help="append to history.jsonl")
    args = parser.parse_args(argv)
    if args.seconds != SPEC["run_seconds"]:
        parser.error(
            f"rounds and passes are pinned for run_seconds = {SPEC['run_seconds']}; "
            "run length is not a knob (use --quick for a smoke run)"
        )
    if args.workload is not None:
        adopt_descendants()
        try:
            return run_one(args)
        finally:
            stop_descendants()
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
