"""Tests for the span tracer: nesting, threads, and process-trace merging."""

import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import pytest

from repro.telemetry import Span, Tracer


class FakeClock:
    """Deterministic monotonic clock advancing by ``step`` per call."""

    def __init__(self, step: float = 1.0):
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


def _worker_trace(tag: int) -> list[Span]:
    """Record a tiny trace in a fresh tracer (runs in a pool worker)."""
    tracer = Tracer()
    with tracer.span("group", tag=tag):
        with tracer.span("client_update", tag=tag):
            pass
        with tracer.span("secagg", tag=tag):
            pass
    return tracer.spans()


class TestNesting:
    def test_serial_nesting_via_thread_stack(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("round"):
            with tracer.span("group"):
                with tracer.span("client_update"):
                    pass
        spans = {s.name: s for s in tracer.spans()}
        assert spans["round"].parent_id is None
        assert spans["group"].parent_id == spans["round"].span_id
        assert spans["client_update"].parent_id == spans["group"].span_id

    def test_siblings_share_parent(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("round"):
            with tracer.span("group"):
                pass
            with tracer.span("group"):
                pass
        round_span = next(s for s in tracer.spans() if s.name == "round")
        groups = tracer.children(round_span.span_id)
        assert [s.name for s in groups] == ["group", "group"]
        assert groups[0].span_id != groups[1].span_id

    def test_durations_from_injected_clock(self):
        clock = FakeClock(step=1.0)
        tracer = Tracer(clock=clock)
        with tracer.span("outer"):        # start t=1
            with tracer.span("inner"):    # start t=2, end t=3
                pass
        # outer ends t=4
        spans = {s.name: s for s in tracer.spans()}
        assert spans["inner"].duration == pytest.approx(1.0)
        assert spans["outer"].duration == pytest.approx(3.0)
        assert spans["inner"].duration <= spans["outer"].duration

    def test_open_span_has_zero_duration(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer") as span:
            assert span.duration == 0.0
        assert span.duration > 0.0

    def test_current_span_id(self):
        tracer = Tracer()
        assert tracer.current_span_id() is None
        with tracer.span("a") as a:
            assert tracer.current_span_id() == a.span_id
            with tracer.span("b") as b:
                assert tracer.current_span_id() == b.span_id
            assert tracer.current_span_id() == a.span_id
        assert tracer.current_span_id() is None

    def test_exception_still_closes_span(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert len(tracer) == 1
        assert tracer.spans()[0].duration > 0.0
        assert tracer.current_span_id() is None

    def test_attrs_recorded(self):
        tracer = Tracer()
        with tracer.span("group", group_id=3, size=7):
            pass
        span = tracer.spans()[0]
        assert span.attrs == {"group_id": 3, "size": 7}
        assert span.as_dict()["attrs"] == {"group_id": 3, "size": 7}


class TestQueries:
    def test_totals_by_name(self):
        tracer = Tracer(clock=FakeClock())
        for _ in range(3):
            with tracer.span("secagg"):
                pass
        count, total = tracer.totals_by_name()["secagg"]
        assert count == 3
        assert total == pytest.approx(3.0)

    def test_roots(self):
        tracer = Tracer()
        with tracer.span("round"):
            with tracer.span("group"):
                pass
        assert [s.name for s in tracer.roots()] == ["round"]


class TestThreads:
    def test_worker_thread_spans_parent_explicitly(self):
        """A span opened on another thread (the trainer's pipeline thread
        does this for deferred evaluation) stitches under its parent via an
        explicit parent_id (worker stacks start empty)."""
        tracer = Tracer()
        with tracer.span("round") as round_span:
            round_id = tracer.current_span_id()

            def work(gid):
                # Worker thread: the stack here is empty, so nesting must
                # come from the explicit parent_id.
                assert tracer.current_span_id() is None
                with tracer.span("group", parent_id=round_id, group_id=gid):
                    pass

            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(work, range(8)))
        groups = tracer.children(round_span.span_id)
        assert len(groups) == 8
        assert {s.attrs["group_id"] for s in groups} == set(range(8))

    def test_concurrent_recording_is_lossless(self):
        tracer = Tracer()
        n_threads, per_thread = 8, 50

        def work():
            for _ in range(per_thread):
                with tracer.span("op"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer) == n_threads * per_thread
        ids = [s.span_id for s in tracer.spans()]
        assert len(set(ids)) == len(ids)  # no id collisions


class TestIngest:
    def test_ingest_remaps_ids_and_attaches_roots(self):
        main = Tracer(clock=FakeClock())
        with main.span("round") as round_span:
            pass
        worker = Tracer(clock=FakeClock())
        with worker.span("group"):
            with worker.span("client_update"):
                pass
        merged = main.ingest(worker.spans(), parent_id=round_span.span_id)
        by_name = {s.name: s for s in merged}
        assert by_name["group"].parent_id == round_span.span_id
        assert by_name["client_update"].parent_id == by_name["group"].span_id
        ids = [s.span_id for s in main.spans()]
        assert len(set(ids)) == len(ids)

    def test_ingest_empty(self):
        tracer = Tracer()
        assert tracer.ingest([]) == []

    def test_ingest_from_process_pool(self):
        """Spans recorded in real subprocesses merge into the parent trace."""
        main = Tracer()
        with main.span("round") as round_span:
            with ProcessPoolExecutor(max_workers=2) as pool:
                worker_traces = list(pool.map(_worker_trace, range(3)))
            for spans in worker_traces:
                main.ingest(spans, parent_id=round_span.span_id)
        groups = main.children(round_span.span_id)
        assert len(groups) == 3
        assert {s.attrs["tag"] for s in groups} == {0, 1, 2}
        for g in groups:
            assert [c.name for c in main.children(g.span_id)] == [
                "client_update", "secagg",
            ]
