"""`RunContext` — the run-wide settings every trainer of a run picks up.

Each paper figure is a generator that builds its own trainers, and the
CLI's run-wide flags (``--telemetry``, ``--parallel``, ``--faults``,
``--population``, ``--checkpoint-dir``/``--resume``, ``--engine``/
``--pipeline-rounds``/``--sampling-scheme``) have to reach them without
the generators knowing about any of it. They travel together as one
frozen :class:`RunContext`, installed for a block with :func:`activated`::

    with activated(RunContext(telemetry=tel, faults=plan)):
        fig7_sampling_methods("fast")

A :class:`repro.core.trainer.GroupFELTrainer` reads :func:`current` once,
at construction, and folds the context into its effective config (see
:func:`repro.core.trainer.resolve_config`); neither it nor its group
executor reads it again. The other readers are
:func:`repro.telemetry.resolve`, for components constructed with
``telemetry=None``, and ``run_methods``, once per sweep, to share the pool
and resolve the population exactly as its trainers will.

Precedence, highest first: an explicit argument (``telemetry=``,
``parallel=``, ``checkpoint_dir=``, the runner's keywords) > for
``faults``/``population``, the config's own value > the context. The
context's ``engine``/``pipeline_rounds``/``sampling_scheme`` override the
config, because that is what the CLI flags mean.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotations only; avoids import cycles
    from repro.checkpoint.manager import CheckpointPolicy
    from repro.faults.plan import FaultPlan
    from repro.parallel import ParallelMap
    from repro.population.dynamics import PopulationModel
    from repro.telemetry.facade import Telemetry

__all__ = ["RunContext", "activated", "current"]


@dataclass(frozen=True)
class RunContext:
    """Run-wide settings; every field None means "not set by the run".

    Attributes
    ----------
    telemetry:
        Telemetry every component built without an explicit one records to.
    parallel:
        Shared worker pool the trainers' group executors run on (left open
        when a trainer closes).
    faults / population:
        Fault plan / population model for trainers whose config has none.
    checkpoint:
        Policy under which each trainer checkpoints beneath
        ``dir/<label>/`` (and, with ``resume``, resumes at its first
        ``run()``).
    engine / pipeline_rounds / sampling_scheme:
        Round-engine knobs that override every trainer's config.
    """

    telemetry: Telemetry | None = None
    parallel: ParallelMap | None = None
    faults: FaultPlan | None = None
    population: PopulationModel | None = None
    checkpoint: CheckpointPolicy | None = None
    engine: str | None = None
    pipeline_rounds: bool | None = None
    sampling_scheme: str | None = None


_current = RunContext()


def current() -> RunContext:
    """The installed context (an empty :class:`RunContext` when none is)."""
    return _current


@contextmanager
def activated(context: RunContext):
    """Install ``context`` for the duration of the block (it replaces, not
    merges with, any context already installed)."""
    if not isinstance(context, RunContext):
        raise TypeError(
            f"activated() takes a RunContext, got {type(context).__name__}"
        )
    global _current
    previous, _current = _current, context
    try:
        yield context
    finally:
        _current = previous
