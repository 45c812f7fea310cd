"""Exporter tests: JSONL lossless dump and the ASCII summary."""

import pytest

from repro.telemetry import (
    NULL_TELEMETRY,
    Telemetry,
    load_jsonl,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


@pytest.fixture()
def tel():
    """A telemetry instance with one of everything recorded."""
    tel = Telemetry(label="unit", clock=FakeClock())
    tel.meta["scale"] = "fast"
    with tel.span("round", index=0):
        with tel.span("group", group_id=1):
            pass
    tel.inc("cloud_bytes_aggregated", 1024)
    tel.inc("clients_dropped", 3)
    tel.set_gauge("gamma_p", 0.1234567891011)
    tel.observe("round_cost", 10.0)
    tel.observe("round_cost", 30.0)
    tel.event("train_start", label="unit")
    return tel


class TestJsonl:
    def test_roundtrip(self, tel, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        count = tel.to_jsonl(path)
        records = load_jsonl(path)
        assert sum(len(v) for v in records.values()) == count
        assert records["meta"] == [{"label": "unit", "scale": "fast"}]
        spans = {r["name"]: r for r in records["span"]}
        assert spans["group"]["parent_id"] == spans["round"]["span_id"]
        assert spans["group"]["duration"] <= spans["round"]["duration"]
        counters = {r["name"]: r["value"] for r in records["counter"]}
        assert counters == {"cloud_bytes_aggregated": 1024.0, "clients_dropped": 3.0}
        gauges = {r["name"]: r["value"] for r in records["gauge"]}
        assert gauges["gamma_p"] == 0.1234567891011
        (hist,) = records["histogram"]
        assert hist["name"] == "round_cost"
        assert hist["values"] == [10.0, 30.0]
        assert hist["count"] == 2 and hist["sum"] == 40.0
        (event,) = records["event"]
        assert event["name"] == "train_start"

    def test_span_attrs_survive(self, tel, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tel.to_jsonl(path)
        spans = {r["name"]: r for r in load_jsonl(path)["span"]}
        assert spans["group"]["attrs"] == {"group_id": 1}


class TestSummary:
    def test_contains_spans_and_metrics(self, tel):
        text = tel.summary()
        assert "Spans — unit" in text
        assert "round" in text and "group" in text
        assert "gamma_p" in text
        assert "Events: 1" in text

    def test_empty(self):
        assert Telemetry().summary() == "(no telemetry recorded)"


class TestNullTelemetry:
    def test_exports_raise(self, tmp_path):
        with pytest.raises(RuntimeError, match="disabled"):
            NULL_TELEMETRY.to_jsonl(str(tmp_path / "x.jsonl"))

    def test_summary_is_harmless(self):
        assert NULL_TELEMETRY.summary() == "(telemetry disabled)"

    def test_noop_surface(self):
        assert NULL_TELEMETRY.enabled is False
        with NULL_TELEMETRY.span("anything"):
            assert NULL_TELEMETRY.current_span_id() is None
        NULL_TELEMETRY.inc("x")
        NULL_TELEMETRY.set_gauge("x", 1.0)
        NULL_TELEMETRY.observe("x", 1.0)
        assert NULL_TELEMETRY.event("x") is None
        assert NULL_TELEMETRY.ingest_spans([]) == []

    def test_null_span_is_reentrant(self):
        with NULL_TELEMETRY.span("a"):
            with NULL_TELEMETRY.span("b"):
                pass
