"""Structured tracing, metrics, and profiling for Group-FEL runs.

The observability substrate for every run: nestable wall-clock spans
(``round > group > client_update / secagg / backdoor / aggregate``),
counters/gauges/histograms for the quantities the paper's cost model and
sampling theory care about (bytes aggregated, clients dropped, sampled
inclusion probabilities, Γ_p, cost-ledger deltas), a subscribe-able event
bus, and exporters (JSONL trace, CSV summary, Prometheus text, ASCII
summary table).

Quick tour
----------
>>> from repro.telemetry import Telemetry
>>> tel = Telemetry(label="demo")
>>> with tel.span("round", index=0):
...     with tel.span("group", group_id=3):
...         tel.inc("bytes_aggregated", 1024)
>>> print(tel.summary())                           # doctest: +SKIP

Enable it for a training run either explicitly::

    trainer = GroupFELTrainer(..., telemetry=tel)

or through the run context (how the CLI's ``--telemetry out.jsonl`` flag
works; see :mod:`repro.context`)::

    with activated(RunContext(telemetry=tel)):
        run_method("group_fel", workload)
    tel.to_jsonl("out.jsonl")

With no telemetry passed or in the context, every instrumentation point
resolves to :data:`NULL_TELEMETRY`, whose operations are constant-time
no-ops — results are bit-identical and overhead is below the noise floor.
"""

from repro.telemetry.events import Event, EventBus
from repro.telemetry.exporters import (
    load_jsonl,
    parse_prometheus,
    summary,
    to_csv,
    to_jsonl,
    to_prometheus,
)
from repro.telemetry.facade import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    resolve,
)
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.tracing import Span, Tracer

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "resolve",
    "Span",
    "Tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Event",
    "EventBus",
    "to_jsonl",
    "load_jsonl",
    "to_csv",
    "to_prometheus",
    "parse_prometheus",
    "summary",
]
