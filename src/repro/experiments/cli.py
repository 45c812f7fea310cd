"""Command-line entry point: regenerate any paper figure or table.

Usage::

    python -m repro.experiments fig9 --scale fast --seed 0
    python -m repro.experiments table1 --scale paper
    python -m repro.experiments fig7 --telemetry trace.jsonl
    python -m repro.experiments fig9 --faults dropout:0.2,straggler:0.1:2.0
    python -m repro.experiments fig9 --population start:0.8,join:0.5,leave:0.02
    python -m repro.experiments fig9 --parallel process:4
    python -m repro.experiments fig9 --engine reference --pipeline-rounds
    python -m repro.experiments fig7 --sampling-scheme stratified
    python -m repro.experiments fig9 --checkpoint-dir ckpts/fig9
    python -m repro.experiments fig9 --checkpoint-dir ckpts/fig9 --resume
    python -m repro.experiments tta --scale fast
    python -m repro.experiments list

The run-wide flags (``--telemetry``, ``--parallel``, ``--faults``,
``--population``, ``--checkpoint-dir``/``--resume``, ``--engine``/
``--pipeline-rounds``/``--sampling-scheme``) become one
:class:`repro.context.RunContext`, installed around the generator; each
trainer it builds reads the context once. A ``--resume`` whose checkpoint
was written under other result-changing settings (a different
``--faults`` or ``--population``, say) exits 1 naming the fields.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from repro.checkpoint import CheckpointError, CheckpointPolicy
from repro.context import RunContext, activated
from repro.faults import FaultPlan
from repro.parallel import ParallelMap
from repro.population import PopulationModel
from repro.telemetry import Telemetry

from repro.experiments.figures import (
    fig2a_group_overheads,
    fig2b_group_size,
    fig5_grouping_runtime,
    fig6_cov_vs_overhead,
    fig7_sampling_methods,
    fig8_rpi_measurement,
    fig9_fig10_all_methods_cifar,
    fig11_all_methods_sc,
    fig12_grouping_x_sampling,
    fig_tta_continual,
)
from repro.experiments.report import format_series, format_table
from repro.experiments.tables import table1_maxcov_alpha

__all__ = ["main", "GENERATORS"]

#: name -> (generator, takes_seed, (x_key, y_key) for series printing)
GENERATORS = {
    "fig2a": (fig2a_group_overheads, False, ("x", "seconds")),
    "fig2b": (fig2b_group_size, True, ("cost", "accuracy")),
    "fig5": (fig5_grouping_runtime, True, ("clients", "seconds")),
    "fig6": (fig6_cov_vs_overhead, True, ("avg_overhead", "avg_cov")),
    "fig7": (fig7_sampling_methods, True, ("cost", "accuracy")),
    "fig8": (fig8_rpi_measurement, False, ("x", "seconds")),
    "fig9": (fig9_fig10_all_methods_cifar, True, ("round", "accuracy")),
    "fig10": (fig9_fig10_all_methods_cifar, True, ("cost", "accuracy")),
    "fig11": (fig11_all_methods_sc, True, ("cost", "accuracy")),
    "fig12": (fig12_grouping_x_sampling, True, ("cost", "accuracy")),
    "tta": (fig_tta_continual, True, ("cost", "accuracy")),
    "table1": (table1_maxcov_alpha, True, None),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate a figure/table from the Group-FEL paper.",
    )
    parser.add_argument("target", help="fig2a|fig2b|fig5|...|table1, or 'list'")
    parser.add_argument("--scale", default=None, help="fast (default) or paper")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true", help="emit raw JSON")
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="enable run telemetry: write the JSONL trace to PATH and print "
        "a span/metric summary to stderr",
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="inject faults into every trainer the target constructs: "
        "comma-separated name:prob[:param][@phase] terms, e.g. "
        "'dropout:0.2,straggler:0.1:2.0,loss:0.1,groupfail:0.05' "
        "(see repro.faults.FaultPlan.from_spec)",
    )
    parser.add_argument(
        "--population",
        metavar="SPEC",
        default=None,
        help="run every trainer the target constructs over a dynamic client "
        "population: comma-separated start:frac / join:rate / leave:prob / "
        "drift:prob[:fraction][:rho][@mode] terms, e.g. "
        "'start:0.8,join:0.5,leave:0.02,drift:0.1:0.3@step' "
        "(see repro.population.PopulationModel.from_spec)",
    )
    parser.add_argument(
        "--parallel",
        metavar="BACKEND[:N]",
        default=None,
        help="run group rounds on one shared worker pool: "
        "'serial' or 'process', optionally with a worker count "
        "(e.g. 'process:4'). Every trainer the target constructs reuses "
        "the pool; it is closed when the run finishes.",
    )
    parser.add_argument(
        "--engine",
        choices=["auto", "batched", "reference"],
        default=None,
        help="local-training engine for every trainer the target constructs: "
        "'auto' (default) stacks same-architecture client updates into one "
        "batched forward/backward when the model/strategy support it, "
        "'batched' forces that and errors if unsupported, 'reference' keeps "
        "the per-client loop (the bit-identical golden path)",
    )
    parser.add_argument(
        "--sampling-scheme",
        choices=["sequential_wor", "multinomial", "stratified"],
        default=None,
        help="how every trainer the target constructs draws S_t from p: "
        "'sequential_wor' (the paper's sequential renormalized draw; "
        "unbiased/stabilized weights divide by the inclusion probabilities "
        "pi_g, computed by deterministic quadrature and only in those "
        "modes), 'multinomial' (with replacement — Eq. 4's S*p_g weights "
        "are exact here), or 'stratified' (one draw per p-mass-balanced "
        "stratum; lowest variance)",
    )
    parser.add_argument(
        "--pipeline-rounds",
        action="store_true",
        help="overlap each round's evaluation and checkpoint write with the "
        "next round's group compute on a background thread; histories and "
        "checkpoints stay bit-identical to the synchronous schedule",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="PATH",
        default=None,
        help="crash-safe checkpointing: every trainer the target constructs "
        "saves complete state under PATH/<method-label>/ at each round "
        "boundary (atomic write-temp-then-rename)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="N",
        default=1,
        help="save cadence in global rounds (default 1; with --checkpoint-dir)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume each trainer from its latest checkpoint under "
        "--checkpoint-dir; the resumed curves are bit-identical to an "
        "uninterrupted run",
    )
    args = parser.parse_args(argv)

    if args.target == "list":
        for name in GENERATORS:
            print(name)
        return 0
    try:
        fn, takes_seed, keys = GENERATORS[args.target]
    except KeyError:
        print(f"unknown target {args.target!r}; run 'list' to see options",
              file=sys.stderr)
        return 2

    pmap = None
    if args.parallel:
        # Fail on a malformed backend spec *before* the (possibly long) run.
        backend, _, workers = args.parallel.partition(":")
        try:
            max_workers = int(workers) if workers else None
        except ValueError:
            print(f"bad --parallel spec {args.parallel!r}: worker count "
                  "must be an integer", file=sys.stderr)
            return 2
        try:
            pmap = ParallelMap(backend, max_workers=max_workers)
        except ValueError as exc:
            print(f"bad --parallel spec: {exc}", file=sys.stderr)
            return 2

    checkpoint_policy = None
    if args.resume and not args.checkpoint_dir:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.checkpoint_dir:
        if args.checkpoint_every < 1:
            print(f"bad --checkpoint-every {args.checkpoint_every}: must be >= 1",
                  file=sys.stderr)
            return 2
        checkpoint_policy = CheckpointPolicy(
            dir=args.checkpoint_dir,
            every=args.checkpoint_every,
            resume=args.resume,
        )

    fault_plan = None
    if args.faults:
        # Fail on a malformed spec *before* the (possibly long) run.
        try:
            fault_plan = FaultPlan.from_spec(args.faults, seed=args.seed)
        except ValueError as exc:
            print(f"bad --faults spec: {exc}", file=sys.stderr)
            return 2

    population_model = None
    if args.population:
        # Fail on a malformed spec *before* the (possibly long) run.
        try:
            population_model = PopulationModel.from_spec(args.population, seed=args.seed)
        except ValueError as exc:
            print(f"bad --population spec: {exc}", file=sys.stderr)
            return 2

    telemetry = None
    if args.telemetry:
        # Fail on an unwritable trace path *before* the (possibly long) run,
        # not after, so no results are thrown away over a typo.
        try:
            with open(args.telemetry, "w"):
                pass
        except OSError as exc:
            print(f"cannot write telemetry trace {args.telemetry!r}: {exc}",
                  file=sys.stderr)
            return 2
        telemetry = Telemetry(label=args.target)
        telemetry.meta.update({"scale": args.scale or "fast", "seed": args.seed})
        if args.faults:
            telemetry.meta["faults"] = args.faults
        if args.population:
            telemetry.meta["population"] = args.population

    # One run context: every trainer the generator constructs reads it once
    # and picks up the telemetry, pool, fault plan, population, checkpoint
    # policy and engine knobs without the generators knowing about any.
    context = RunContext(
        telemetry=telemetry,
        parallel=pmap,
        faults=fault_plan,
        population=population_model,
        checkpoint=checkpoint_policy,
        engine=args.engine,
        pipeline_rounds=args.pipeline_rounds or None,
        sampling_scheme=args.sampling_scheme,
    )
    if pmap is not None and telemetry is not None:
        pmap.telemetry = telemetry
    # The pool (if any) is closed on the way out.
    with pmap or nullcontext(), activated(context):
        try:
            result = fn(args.scale, seed=args.seed) if takes_seed else fn(args.scale)
        except CheckpointError as exc:
            print(f"cannot resume: {exc}", file=sys.stderr)
            return 1
    if telemetry is not None:
        telemetry.to_jsonl(args.telemetry)
        print(telemetry.summary(), file=sys.stderr)
    if args.json:
        print(json.dumps(result, default=float, indent=1))
        return 0
    if "rows" in result:
        print(format_table(result["rows"], title=f"Table {result.get('table', '')}"))
    else:
        x_key, y_key = keys
        print(format_series(result["series"], x_key, y_key,
                            title=f"Figure {result.get('figure', '')}"))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
