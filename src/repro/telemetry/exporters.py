"""Exporters: JSONL event log and ASCII table.

Both read the same :class:`~repro.telemetry.Telemetry` facade and are pure
functions of its state — export as often as you like, during or after a
run. The JSONL trace is the lossless format (every span, metric, and
event); the table is its human-readable summary.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.facade import Telemetry

__all__ = [
    "to_jsonl",
    "load_jsonl",
    "summary",
]

def to_jsonl(telemetry: "Telemetry", path: str) -> int:
    """Write the full trace as JSON Lines; returns the record count.

    Record types: one ``meta`` header, then ``span`` (start-time order),
    ``counter``/``gauge``/``histogram``, and ``event`` records.
    """
    records: list[dict] = [
        {"type": "meta", "label": telemetry.label, **telemetry.meta}
    ]
    for span in telemetry.tracer.spans():
        records.append({"type": "span", **span.as_dict()})
    snapshot = telemetry.metrics.snapshot()
    for name, value in sorted(snapshot["counters"].items()):
        records.append({"type": "counter", "name": name, "value": value})
    for name, value in sorted(snapshot["gauges"].items()):
        records.append({"type": "gauge", "name": name, "value": value})
    for name, data in sorted(snapshot["histograms"].items()):
        records.append({"type": "histogram", "name": name, **data})
    for event in telemetry.events.events():
        records.append({"type": "event", **event.as_dict()})
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, default=float) + "\n")
    return len(records)


def load_jsonl(path: str) -> dict[str, list[dict]]:
    """Read a JSONL trace back as ``{record type: [records]}``."""
    out: dict[str, list[dict]] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            out.setdefault(record.pop("type"), []).append(record)
    return out


def summary(telemetry: "Telemetry") -> str:
    """ASCII span/metric summary in the style of ``experiments/report.py``."""
    # Imported lazily: repro.experiments pulls in the trainer, which
    # (indirectly) imports this package.
    from repro.experiments.report import format_table

    sections: list[str] = []
    totals = telemetry.tracer.totals_by_name()
    if totals:
        rows = [
            {
                "span": name,
                "count": count,
                "total_s": total,
                "mean_s": total / count if count else 0.0,
            }
            for name, (count, total) in sorted(
                totals.items(), key=lambda kv: -kv[1][1]
            )
        ]
        sections.append(format_table(rows, title=f"Spans — {telemetry.label}"))
    snapshot = telemetry.metrics.snapshot()
    metric_rows = [
        {"metric": name, "kind": "counter", "value": value}
        for name, value in sorted(snapshot["counters"].items())
    ] + [
        {"metric": name, "kind": "gauge", "value": value}
        for name, value in sorted(snapshot["gauges"].items())
    ] + [
        {"metric": name, "kind": "histogram(mean)", "value": data["mean"]}
        for name, data in sorted(snapshot["histograms"].items())
    ]
    if metric_rows:
        sections.append(format_table(metric_rows, title="Metrics"))
    if telemetry.events.events():
        sections.append(f"Events: {len(telemetry.events.events())}")
    return "\n\n".join(sections) if sections else "(no telemetry recorded)"
