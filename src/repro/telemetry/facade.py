"""The `Telemetry` facade and its resolution.

One object bundles the three collectors (tracer, metrics, event bus) plus
the exporters, and is what gets threaded through the trainer stack. Two
resolution paths exist (see :func:`resolve`):

* **Explicit** — pass ``telemetry=`` to ``GroupFELTrainer`` (and friends).
* **Run context** — ``with activated(RunContext(telemetry=tel)): ...``
  (:mod:`repro.context`) reaches any component constructed inside the
  block. This is how ``python -m repro.experiments <fig> --telemetry
  out.jsonl`` reaches the trainers buried inside figure generators without
  changing their signatures.

When neither gives one, :data:`NULL_TELEMETRY` is used: a singleton
whose every operation is a constant-time no-op (``span`` returns one shared
null context manager; the metric/event methods are empty). Instrumented
hot paths therefore cost an attribute lookup and a call when telemetry is
off — the benchmark suite holds this under 3% of a training run.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Callable

from repro.context import current
from repro.telemetry.events import Event, EventBus
from repro.telemetry.exporters import (
    summary as _summary,
    to_jsonl as _to_jsonl,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Span, Tracer

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "resolve",
]


class Telemetry:
    """Facade over tracing + metrics + events for one run (or many).

    Parameters
    ----------
    label:
        Free-form run label, included in exports.
    clock:
        Monotonic clock for span durations; injectable for tests.
    """

    enabled: bool = True

    def __init__(self, label: str = "run", clock: Callable[[], float] = time.perf_counter):
        self.label = label
        self.tracer = Tracer(clock=clock)
        self.metrics = MetricsRegistry()
        self.events = EventBus()
        #: free-form run metadata included in the JSONL ``meta`` record
        self.meta: dict = {}

    # -------------------------------------------------------------- tracing
    def span(self, name: str, parent_id: int | None = None, **attrs):
        """Context manager timing a region; nests via the thread-local stack."""
        return self.tracer.span(name, parent_id=parent_id, **attrs)

    def current_span_id(self) -> int | None:
        return self.tracer.current_span_id()

    def ingest_spans(
        self, spans: list[Span], parent_id: int | None = None
    ) -> list[Span]:
        """Merge spans from a worker-process tracer (see ``Tracer.ingest``)."""
        return self.tracer.ingest(spans, parent_id=parent_id)

    # -------------------------------------------------------------- metrics
    def inc(self, name: str, amount: float = 1.0) -> None:
        self.metrics.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.metrics.histogram(name).observe(value)

    # --------------------------------------------------------------- events
    def event(self, name: str, **fields) -> Event | None:
        return self.events.emit(name, **fields)

    # -------------------------------------------------------------- exports
    def to_jsonl(self, path: str) -> int:
        return _to_jsonl(self, path)

    def summary(self) -> str:
        return _summary(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Telemetry(label={self.label!r}, spans={len(self.tracer)}, "
            f"events={len(self.events)})"
        )


#: Shared reusable no-op context manager (``nullcontext`` is reentrant).
_NULL_SPAN = nullcontext()


class NullTelemetry(Telemetry):
    """Disabled telemetry: every operation is a constant-time no-op.

    Allocates no collectors; exports raise, because there is nothing to
    export (callers gate on ``telemetry.enabled``).
    """

    enabled = False

    def __init__(self):
        self.label = "disabled"
        self.meta = {}

    def span(self, name: str, parent_id: int | None = None, **attrs):
        return _NULL_SPAN

    def current_span_id(self) -> None:
        return None

    def ingest_spans(self, spans, parent_id=None) -> list:
        return []

    def inc(self, name: str, amount: float = 1.0) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def event(self, name: str, **fields) -> None:
        return None

    def _disabled(self) -> RuntimeError:
        return RuntimeError(
            "telemetry is disabled; construct a Telemetry() and pass it to "
            "the trainer (or install it in a repro.context.RunContext)"
        )

    def to_jsonl(self, path: str) -> int:
        raise self._disabled()

    def summary(self) -> str:
        return "(telemetry disabled)"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullTelemetry()"


NULL_TELEMETRY = NullTelemetry()


def resolve(telemetry: Telemetry | None) -> Telemetry:
    """Explicit instance if given, else the run context's (see
    :mod:`repro.context`), else :data:`NULL_TELEMETRY` — never None."""
    if telemetry is None:
        telemetry = current().telemetry
    return telemetry if telemetry is not None else NULL_TELEMETRY
