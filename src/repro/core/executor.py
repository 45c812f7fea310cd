"""Group execution: Algorithm 1's "for group g in S_t do ⊲ in parallel".

One group round is a pure function of (start model, group, round RNG,
round index). :class:`GroupRunner` is that function with everything
round-invariant bound to it, and the only caller of ``run_group_round``
under ``core/``. :class:`GroupExecutor` decides *where* it is invoked:

* ``serial`` — in the calling thread (on every backend for SCAFFOLD and
  single-group rounds).
* ``thread`` — on the pool's worker threads, against the same live runner.
* ``process`` — in pool workers, against a telemetry-free copy of the
  runner registered once per pool lifetime, so a task carries only a token,
  the group, its RNG and two :class:`repro.shm.ShmView` descriptors (start
  model out, group model back) — never client data; the trainer refreshes
  the executor when drift mutates the population the workers hold.

Results come back in submission order on every backend, so aggregation
order — and with it every float — is the same wherever the groups ran.
"""

from __future__ import annotations

import copy
import itertools
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.core.strategies import LocalStrategy
from repro.data.store import ColumnarPopulation
from repro.faults import FaultEvent, FaultPlan
from repro.grouping.base import Group
from repro.nn.optim import SGD
from repro.parallel import ParallelMap, worker_state
from repro.shm import ShmChannel
from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["GroupRunner", "GroupExecutor"]

GroupResult = tuple[np.ndarray, list[FaultEvent]]

#: worker-state registration tokens, unique per executor in this process
_TOKENS = itertools.count()


def _without_telemetry(group_op):
    """A shallow copy of a group-operation object that records nothing."""
    if group_op is None:
        return None
    group_op = copy.copy(group_op)
    group_op.telemetry = NULL_TELEMETRY
    return group_op


@dataclass
class GroupRunner:
    """Everything one group round needs that does not change per round. The
    group operations are the trainer's *actual* instances (a custom
    ``backdoor_detector=`` included), never rebuilt from config flags, so
    every backend runs the same objects."""

    model_fn: Callable
    #: the trainer's :class:`repro.core.trainer.TrainerConfig`
    config: object
    strategy: LocalStrategy
    secure_aggregator: object = None
    backdoor_detector: object = None
    dropout_aggregator: object = None
    compressor: object = None
    attackers: dict | None = None
    fault_plan: FaultPlan | None = None
    #: where each group's members are materialized from
    population: ColumnarPopulation | None = None
    telemetry: Telemetry = NULL_TELEMETRY

    def detached(self) -> "GroupRunner":
        """The copy pool workers hold: same state by reference, telemetry
        nulled on the runner and its group operations (a live ``Telemetry``
        owns locks: it neither pickles nor survives a fork taken mid-lock)."""
        return replace(
            self,
            secure_aggregator=_without_telemetry(self.secure_aggregator),
            backdoor_detector=_without_telemetry(self.backdoor_detector),
            telemetry=NULL_TELEMETRY,
        )

    def run(
        self,
        group: Group,
        rng: np.random.Generator,
        start_params: np.ndarray,
        round_idx: int,
        parent_span_id: int | None = None,
    ) -> GroupResult:
        """Train ``group`` for one global round from ``start_params``, on a
        fresh model + optimizer so no optimizer state (momentum buffers,
        step counters) leaks between groups or across rounds."""
        # Resolved through the trainer module at call time: that binding is
        # the layer boundary the end-to-end round ledger
        # (benchmarks/e2e/layers.py) rebinds to time a group round.
        from repro.core import trainer

        cfg = self.config
        model = self.model_fn()
        optimizer = SGD(
            model, lr=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay
        )
        events: list[FaultEvent] = []
        params = trainer.run_group_round(
            model,
            optimizer,
            group,
            self.population.materialize(group.members),
            start_params,
            group_rounds=cfg.group_rounds,
            local_rounds=cfg.local_rounds,
            batch_size=cfg.batch_size,
            rng=rng,
            strategy=self.strategy,
            step_mode=cfg.step_mode,
            secure_aggregator=self.secure_aggregator,
            backdoor_detector=self.backdoor_detector,
            round_id=round_idx,
            compressor=self.compressor,
            dropout_prob=cfg.client_dropout_prob,
            dropout_aggregator=self.dropout_aggregator,
            update_transforms=self.attackers or None,
            telemetry=self.telemetry,
            parent_span_id=parent_span_id,
            fault_plan=self.fault_plan,
            fault_events=events,
            engine=cfg.engine,
        )
        return params, events


def _run_in_worker(task: tuple) -> list[FaultEvent]:
    """Pool-worker entry (module-level: picklable). The group model is
    written to the task's result slot; only the fault events pickle back."""
    token, group, rng, start, round_idx, slot = task
    runner: GroupRunner = worker_state(token)
    if runner.compressor is not None:
        # The registered runner outlives the task: ErrorFeedback residuals
        # must not accumulate across the groups that share a worker.
        runner = replace(runner, compressor=copy.deepcopy(runner.compressor))
    # Zero-copy receive: run_group_round copies the start vector at once,
    # so the view never outlives its ring slot.
    params, events = runner.run(group, rng, start.resolve(), round_idx)
    slot.resolve()[:] = params
    return events


class GroupExecutor:
    """Runs a round's sampled groups on a :class:`repro.parallel.ParallelMap`.

    The pool is a shared ``parallel`` (the trainer passes its argument,
    else its run context's) or, when None, a fresh pool on ``backend`` that
    this executor owns and shuts down in :meth:`close`; shared pools are
    left open. ``label`` is the trainer's, named in errors and in the
    worker-state token. Holds no reference back to the trainer, so a
    dropped trainer (and its dataset) is freed without a GC pass.
    """

    def __init__(
        self,
        runner: GroupRunner,
        *,
        parallel: ParallelMap | None = None,
        backend: str = "serial",
        label: str = "group-fel",
    ):
        self.owns_pool = parallel is None
        self.pmap = parallel or ParallelMap(backend, telemetry=runner.telemetry)
        self.label = label
        self.token = f"executor/{label}/{next(_TOKENS)}"
        #: shared-memory rings, created by the first process-pool dispatch
        self._channel: ShmChannel | None = None
        self._closed = False
        self.refresh(runner)

    def refresh(self, runner: GroupRunner) -> None:
        """Adopt ``runner`` and, on the process backend, re-ship it (the pool
        restarts lazily). Needed when what the runner binds, or workers hold
        a copy of, changed: checkpoint restore, label drift."""
        self.runner = runner
        if self.pmap.backend == "process":
            self.pmap.register_worker_state(self.token, self.runner.detached())

    def close(self) -> None:
        """Shut the pool down if owned (else just unregister the runner)
        and unlink the shared-memory segments. Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self.owns_pool:
            self.pmap.close()
        else:
            self.pmap.unregister_worker_state(self.token)
        if self._channel is not None:
            self._channel.close()
            self._channel = None

    def _shm_channel(self, num_params: int) -> ShmChannel:
        if self._channel is None:
            try:
                self._channel = ShmChannel(num_params)
            except OSError as exc:
                raise RuntimeError(
                    f"trainer {self.label!r}: the process backend moves models "
                    f"through shared memory, which could not be created here "
                    f"({exc!r}); use parallel_backend='thread'"
                ) from exc
        return self._channel

    def execute(
        self,
        selected: list[Group],
        rngs: list[np.random.Generator],
        start_params: np.ndarray,
        round_idx: int,
        round_span_id: int | None = None,
    ) -> list[GroupResult]:
        """Train ``selected`` from ``start_params``; one ``(group_params,
        fault_events)`` pair per group, in order. ``round_span_id`` parents
        the group spans (worker threads have their own span stacks).
        Shared-memory results are copied out of the ring, so a caller may
        dispatch several times per round (clustered trainers do)."""
        runner = self.runner

        def run_here(item) -> GroupResult:
            group, rng = item
            return runner.run(
                group, rng, start_params, round_idx, parent_span_id=round_span_id
            )

        items = list(zip(selected, rngs))
        backend = self.pmap.backend
        # SCAFFOLD mutates shared control-variate state per client, and a
        # single group has nothing to overlap with (the process path would
        # also lose its spans and counters): both run in the caller.
        if backend == "serial" or len(items) <= 1 or runner.strategy.name == "scaffold":
            return [run_here(item) for item in items]
        if backend == "thread":
            return self.pmap.map(run_here, items)

        channel = self._shm_channel(start_params.size)
        start = channel.publish_params(start_params)
        slots = channel.result_slots(len(items))
        tasks = [
            (self.token, group, rng, start, round_idx, slot)
            for (group, rng), slot in zip(items, slots)
        ]
        try:
            events = self.pmap.map(_run_in_worker, tasks)
        except BrokenProcessPool as exc:
            raise RuntimeError(
                f"trainer {self.label!r}: a process-pool worker died during "
                f"round {round_idx}; the round's results are incomplete and "
                "the pool is unusable — resume from the last checkpoint"
            ) from exc
        return [
            (np.array(channel.result_array(i)), group_events)
            for i, group_events in enumerate(events)
        ]
