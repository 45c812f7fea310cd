"""Tests for the Telemetry facade and its run-context resolution."""

import pytest

from repro.context import RunContext, activated, current
from repro.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    resolve,
)


class TestFacade:
    def test_span_records_via_tracer(self):
        tel = Telemetry()
        with tel.span("round") as span:
            assert tel.current_span_id() == span.span_id
        assert [s.name for s in tel.tracer.spans()] == ["round"]

    def test_metric_shorthands(self):
        tel = Telemetry()
        tel.inc("c", 2)
        tel.set_gauge("g", 5)
        tel.observe("h", 1.5)
        assert tel.metrics.counters()["c"] == 2.0
        assert tel.metrics.gauges()["g"] == 5.0
        assert tel.metrics.histograms()["h"].values() == [1.5]

    def test_event_shorthand(self):
        tel = Telemetry()
        tel.event("x", a=1)
        assert len(tel.events) == 1

    def test_ingest_spans_delegates(self):
        worker = Telemetry()
        with worker.span("group"):
            pass
        main = Telemetry()
        merged = main.ingest_spans(worker.tracer.spans())
        assert [s.name for s in merged] == ["group"]
        assert len(main.tracer) == 1


class TestAmbient:
    def test_default_is_null(self):
        assert current().telemetry is None
        assert resolve(None) is NULL_TELEMETRY
        assert isinstance(resolve(None), NullTelemetry)

    def test_activated_installs_and_restores(self):
        tel = Telemetry()
        with activated(RunContext(telemetry=tel)) as inside:
            assert inside.telemetry is tel
            assert resolve(None) is tel
        assert resolve(None) is NULL_TELEMETRY

    def test_activated_restores_on_exception(self):
        tel = Telemetry()
        with pytest.raises(RuntimeError):
            with activated(RunContext(telemetry=tel)):
                raise RuntimeError("x")
        assert resolve(None) is NULL_TELEMETRY

    def test_nested_activation(self):
        outer, inner = Telemetry("outer"), Telemetry("inner")
        with activated(RunContext(telemetry=outer)):
            with activated(RunContext(telemetry=inner)):
                assert resolve(None) is inner
            assert resolve(None) is outer

    def test_context_without_telemetry_means_disabled(self):
        with activated(RunContext(telemetry=Telemetry())):
            with activated(RunContext()):
                assert resolve(None) is NULL_TELEMETRY

    def test_resolve(self):
        tel = Telemetry()
        assert resolve(tel) is tel
        assert resolve(None) is NULL_TELEMETRY
        with activated(RunContext(telemetry=tel)):
            assert resolve(None) is tel
            other = Telemetry()
            assert resolve(other) is other
