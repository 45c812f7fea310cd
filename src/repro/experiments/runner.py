"""Run named methods (or custom grouping×sampling combos) over a workload."""

from __future__ import annotations

from dataclasses import replace

from repro.baselines.registry import build_method
from repro.context import current
from repro.core.strategies import PlainSGDStrategy
from repro.core.trainer import GroupFELTrainer, resolve_config
from repro.experiments.configs import Workload
from repro.grouping import Grouper, group_clients_per_edge
from repro.metrics.history import TrainingHistory
from repro.parallel import ParallelMap
from repro.rng import derive_seed

__all__ = ["run_method", "run_methods", "run_combo"]


def run_method(
    name: str,
    workload: Workload,
    max_rounds: int | None = None,
    cost_budget: float | None = None,
    group_size_knob: int | None = None,
    max_cov: float | None = None,
    telemetry=None,
    faults=None,
    population=None,
    parallel: ParallelMap | None = None,
    checkpoint_dir: str | None = None,
    resume_from: str | None = None,
    sampling_scheme: str | None = None,
) -> TrainingHistory:
    """Run one named method (see ``repro.baselines.METHODS``) to completion.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry`) is forwarded to the
    trainer; omit it to use the run context's (see :mod:`repro.context`),
    which defaults to a no-op. ``faults`` (a :class:`repro.faults.FaultPlan`
    or spec string) overrides the workload config's plan; omit it to use
    the config's, falling back to the run context's. ``parallel`` (a
    :class:`repro.parallel.ParallelMap`) shares one persistent worker pool
    across calls; omit it to let the trainer build (and close) its own.
    The trainer is always closed before returning, so pooled backends never
    leak worker processes.

    ``checkpoint_dir`` turns on crash-safe auto-checkpointing every
    ``trainer_config.checkpoint_every`` rounds (default every round);
    ``resume_from`` (a checkpoint file, or a directory whose latest
    checkpoint is taken) restores complete trainer state before running, so
    the returned history is bit-identical to the uninterrupted run's.

    ``population`` (a :class:`repro.population.PopulationModel` or spec
    string) schedules client churn, label drift, and feature corruption;
    omit it to use the config's model, falling back to the run context's.
    Note that drift and corruption mutate client shards in place — when
    calling this directly for several methods over *one* workload, restore
    pristine shards between calls (``fed.snapshot_shards``/
    ``restore_shards``) or build a fresh workload per method;
    :func:`run_methods` does the restore automatically.

    ``sampling_scheme`` overrides the draw mechanics
    (``sequential_wor``/``multinomial``/``stratified``); None keeps the
    method spec's scheme, falling back to the workload config's.
    """
    s = workload.scale
    cfg = workload.trainer_config
    if faults is not None:
        cfg = replace(cfg, faults=faults)
    if population is not None:
        cfg = replace(cfg, population=population)
    trainer = build_method(
        name,
        workload.model_fn,
        workload.fed,
        workload.edge_assignment,
        cfg,
        cost_model=workload.cost_model,
        group_size_knob=group_size_knob if group_size_knob is not None else s.min_group_size,
        max_cov=max_cov if max_cov is not None else s.max_cov,
        rng=derive_seed(workload.seed, "grouping", name),
        telemetry=telemetry,
        parallel=parallel,
        checkpoint_dir=checkpoint_dir,
        sampling_scheme=sampling_scheme,
    )
    try:
        if resume_from is not None:
            trainer.load_checkpoint(resume_from)
        return trainer.run(max_rounds=max_rounds, cost_budget=cost_budget)
    finally:
        trainer.close()


def run_methods(
    names: list[str],
    workload: Workload,
    max_rounds: int | None = None,
    cost_budget: float | None = None,
    telemetry=None,
    faults=None,
    population=None,
    parallel: ParallelMap | None = None,
    sampling_scheme: str | None = None,
) -> dict[str, TrainingHistory]:
    """Run several methods over the same workload (same data, same budget).

    On a pooled backend (``workload.trainer_config.parallel_backend`` of
    ``thread``/``process``) one shared :class:`ParallelMap` is built for the
    whole sweep — workers start once, not once per method — and closed at
    the end. Pass ``parallel`` to reuse an even longer-lived pool.

    With an active population model that mutates shard data (label drift
    or feature corruption), pristine shards are snapshotted before the
    first method and restored between methods (and after the last), so
    every method sees the identical starting data and per-method histories
    are independent of sweep order. The workload is left pristine when the
    sweep returns.

    To checkpoint/resume a whole sweep, run it under a
    :class:`repro.context.RunContext` carrying a
    :class:`repro.checkpoint.CheckpointPolicy`: each method's trainer then
    checkpoints under its own label subdirectory — per-method
    ``checkpoint_dir`` arguments would collide on one directory.
    """
    context = current()
    cfg = workload.trainer_config
    if parallel is None:
        parallel = context.parallel
    owns_pool = parallel is None and cfg.parallel_backend != "serial"
    if owns_pool:
        parallel = ParallelMap(cfg.parallel_backend)
    if population is not None:
        cfg = replace(cfg, population=population)
    # The model the sweep's trainers will resolve (build_method always
    # hands them a grouper), so the shard snapshot matches what they run.
    model = resolve_config(cfg, context).population
    pristine = None
    if model is not None and (model.has_drift or model.has_corruption):
        pristine = workload.fed.snapshot_shards(
            include_features=model.has_corruption
        )
    try:
        results: dict[str, TrainingHistory] = {}
        for name in names:
            if pristine is not None and results:
                workload.fed.restore_shards(pristine)
            results[name] = run_method(
                name,
                workload,
                max_rounds=max_rounds,
                cost_budget=cost_budget,
                telemetry=telemetry,
                faults=faults,
                population=population,
                parallel=parallel,
                sampling_scheme=sampling_scheme,
            )
        return results
    finally:
        if pristine is not None:
            workload.fed.restore_shards(pristine)
        if owns_pool:
            parallel.close()


def run_combo(
    grouper: Grouper,
    sampling_method: str,
    workload: Workload,
    label: str,
    max_rounds: int | None = None,
    cost_budget: float | None = None,
    telemetry=None,
    faults=None,
    population=None,
    parallel: ParallelMap | None = None,
    checkpoint_dir: str | None = None,
    resume_from: str | None = None,
    sampling_scheme: str | None = None,
) -> TrainingHistory:
    """Run an arbitrary grouping × sampling combination (Fig. 12's axes).

    ``sampling_method`` picks the probability construction (Eq. 34 CoV
    weights, ``varopt``, or ``adaptive``); ``sampling_scheme`` the draw
    mechanics (``sequential_wor``/``multinomial``/``stratified`` — None
    keeps the workload config's scheme).
    """
    groups = group_clients_per_edge(
        grouper,
        workload.fed.L,
        workload.edge_assignment,
        rng=derive_seed(workload.seed, "grouping", label),
    )
    cfg = replace(workload.trainer_config, sampling_method=sampling_method)
    if sampling_scheme is not None:
        cfg = replace(cfg, sampling_scheme=sampling_scheme)
    if faults is not None:
        cfg = replace(cfg, faults=faults)
    if population is not None:
        cfg = replace(cfg, population=population)
    trainer = GroupFELTrainer(
        workload.model_fn,
        workload.fed,
        groups,
        cfg,
        cost_model=workload.cost_model,
        strategy=PlainSGDStrategy(),
        grouper=grouper,
        edge_assignment=workload.edge_assignment,
        label=label,
        telemetry=telemetry,
        parallel=parallel,
        checkpoint_dir=checkpoint_dir,
    )
    try:
        if resume_from is not None:
            trainer.load_checkpoint(resume_from)
        return trainer.run(max_rounds=max_rounds, cost_budget=cost_budget)
    finally:
        trainer.close()
