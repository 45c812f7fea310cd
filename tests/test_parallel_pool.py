"""Pool lifecycle: executor reuse, one-time worker init, worker-state
registration, close semantics, and the guarantees ``repro.core.executor``
builds on top (dataset shipped once per pool lifetime, dataset-free task
pickles, live telemetry for single-group rounds, faulted replay on a
process pool, loud failure when a worker dies).
"""

from __future__ import annotations

import functools
import gc
import hashlib
import os
import pickle
import signal
import threading
import weakref
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.context import RunContext, activated
from repro.core.trainer import GroupFELTrainer, TrainerConfig
from repro.data.client_data import ClientDataset
from repro.grouping import CoVGrouping, group_clients_per_edge
from repro.nn import make_mlp
from repro.parallel import ParallelMap, worker_init_count, worker_state
from repro.telemetry import Telemetry

# Module-level so the process backend can pickle them.
model_fn = functools.partial(make_mlp, 192, 10, seed=0)


def _square(x):
    return x * x


def _lookup_state(token):
    return worker_state(token)["value"]


def _model_fn_fatal_in_workers():
    """Builds the model in the parent; a pool worker calling it dies the way
    an OOM-killed worker does — mid-round, without unwinding."""
    if worker_init_count() > 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return model_fn()


def _shm_segments():
    return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}


def _make_trainer(
    small_fed, small_edges, backend="process", faults=None, parallel=None,
    model_fn=model_fn, **cfg_kw,
):
    groups = group_clients_per_edge(
        CoVGrouping(3, 1.0), small_fed.L, small_edges, rng=0
    )
    defaults = dict(
        max_rounds=2, group_rounds=1, local_rounds=1, num_sampled=2,
        momentum=0.9, seed=7, parallel_backend=backend, faults=faults,
    )
    defaults.update(cfg_kw)
    cfg = TrainerConfig(**defaults)
    return GroupFELTrainer(
        model_fn, small_fed, groups, cfg, label="pool-test", parallel=parallel
    )


class TestPoolLifecycle:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_executor_reused_across_map_calls(self, backend):
        with ParallelMap(backend, max_workers=2) as pm:
            assert not pm.has_live_pool  # lazily created
            assert pm.map(_square, [1, 2, 3]) == [1, 4, 9]
            assert pm.has_live_pool
            for _ in range(3):
                pm.map(_square, [4, 5])
            assert pm.pools_created == 1

    def test_workers_initialized_exactly_once_per_pool(self):
        with ParallelMap("process", max_workers=2) as pm:
            # Many more tasks than workers: every task must see exactly one
            # initializer invocation in its process, no matter how tasks
            # are scheduled or how many map calls have happened.
            for _ in range(3):
                counts = pm.map(worker_init_count, range(8))
                assert counts == [1] * 8

    def test_no_silent_in_process_fallback_for_single_item(self):
        # A single-item map still dispatches to the pool: the init count in
        # the parent process is 0, in any pool worker it is 1.
        with ParallelMap("process", max_workers=2) as pm:
            assert pm.map(worker_init_count, [None]) == [1]

    def test_worker_state_reaches_process_workers(self):
        with ParallelMap("process", max_workers=2) as pm:
            pm.register_worker_state("tok", {"value": 41})
            assert pm.map(_lookup_state, ["tok", "tok"]) == [41, 41]

    def test_registering_after_dispatch_restarts_pool(self):
        with ParallelMap("process", max_workers=2) as pm:
            pm.map(_square, [1])
            assert pm.pools_created == 1
            pm.register_worker_state("late", {"value": 7})
            assert pm.map(_lookup_state, ["late"]) == [7]
            assert pm.pools_created == 2
            # ...and the rebuilt pool's workers were initialized once.
            assert pm.map(worker_init_count, range(4)) == [1] * 4

    def test_register_during_lazy_build_never_leaves_stale_state(
        self, monkeypatch
    ):
        """Regression: ``register_worker_state`` used to check-and-swap the
        executor outside the pool lock. A concurrent ``map`` could snapshot
        the state dict, lose the GIL, and assign its freshly-built executor
        *after* the register saw ``None`` — leaving a live pool whose
        workers never received the payload. The check, state write, and
        swap now all happen under the lock, so the register either reaches
        the snapshot or tears the stale executor down."""
        import threading
        from concurrent.futures import Future

        import repro.parallel as par

        built: list = []
        build_started = threading.Event()
        resume_build = threading.Event()

        class SlowBuildExecutor:
            """Stands in for ProcessPoolExecutor; pauses mid-construction
            (i.e. while ``_ensure_executor`` holds the pool lock) so the
            racing register arrives at the worst possible moment."""

            def __init__(self, max_workers=None, initializer=None,
                         initargs=()):
                self.state = dict(initargs[0]) if initargs else {}
                self.is_shutdown = False
                built.append(self)
                build_started.set()
                resume_build.wait(timeout=5)

            def submit(self, fn, item):
                future: Future = Future()
                future.set_result(fn(item))
                return future

            def shutdown(self, wait=True):
                self.is_shutdown = True

        monkeypatch.setattr(par, "ProcessPoolExecutor", SlowBuildExecutor)
        pmap = par.ParallelMap("process", max_workers=1)
        try:
            mapper = threading.Thread(target=pmap.map, args=(_square, [1]))
            mapper.start()
            assert build_started.wait(timeout=5)
            register = threading.Thread(
                target=pmap.register_worker_state, args=("tok", {"value": 1})
            )
            register.start()
            # The fixed code holds the lock across the build, so the
            # register must block here instead of slipping past a None
            # executor check.
            register.join(timeout=0.3)
            raced_past_the_build = not register.is_alive()
            resume_build.set()
            mapper.join(timeout=5)
            register.join(timeout=5)
            assert not raced_past_the_build
            # Whoever won, the next dispatch runs on an executor that has
            # the payload...
            pmap.map(_square, [2])
            assert "tok" in built[-1].state
            # ...and every executor built without it was torn down.
            for executor in built:
                if "tok" not in executor.state:
                    assert executor.is_shutdown
        finally:
            pmap.close()

    def test_missing_worker_state_raises(self):
        with pytest.raises(RuntimeError, match="no worker state"):
            worker_state("never-registered")

    def test_close_idempotent_and_final(self):
        pm = ParallelMap("thread", max_workers=2)
        pm.map(_square, [1, 2])
        pm.close()
        pm.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pm.map(_square, [3])
        with pytest.raises(RuntimeError, match="closed"):
            pm.register_worker_state("tok", 1)

    def test_serial_backend_never_builds_a_pool(self):
        with ParallelMap("serial") as pm:
            assert pm.map(_square, [3]) == [9]
            assert pm.pools_created == 0

    def test_pool_telemetry_counters(self):
        tel = Telemetry(label="pool-test")
        with ParallelMap("thread", max_workers=2, telemetry=tel) as pm:
            pm.map(_square, [1, 2, 3])
            pm.map(_square, [4])
        assert tel.metrics.counter("pool.created").value == 1.0
        assert tel.metrics.counter("pool.map_calls").value == 2.0
        assert tel.metrics.counter("pool.tasks").value == 4.0
        assert tel.metrics.histogram("pool.init_s").count == 1
        assert tel.metrics.histogram("pool.dispatch_s").count == 2


class TestTrainerPoolIntegration:
    def test_dataset_ships_at_most_once_per_pool_lifetime(
        self, small_fed, small_edges, monkeypatch
    ):
        pickles = {"n": 0}
        orig = getattr(ClientDataset, "__getstate__", None)

        def counting_getstate(self):
            pickles["n"] += 1
            return self.__dict__ if orig is None else orig(self)

        monkeypatch.setattr(
            ClientDataset, "__getstate__", counting_getstate, raising=False
        )
        pm = ParallelMap("process", max_workers=2)
        trainer = _make_trainer(small_fed, small_edges, "process", parallel=pm)
        try:
            trainer.train_round()
            after_first = pickles["n"]
            # One shipment per worker at most (0 under the fork start
            # method, where initargs are inherited, not pickled).
            assert after_first <= len(small_fed.clients) * pm.max_workers
            trainer.train_round()
            trainer.train_round()
            # Later rounds re-ship nothing: dispatch is dataset-free.
            assert pickles["n"] == after_first
        finally:
            trainer.close()
            pm.close()

    def test_dispatch_payload_is_small_and_dataset_free(
        self, small_fed, small_edges
    ):
        trainer = _make_trainer(small_fed, small_edges, "process")
        try:
            sent = []
            pmap = trainer.executor.pmap
            real_map = pmap.map

            def recording_map(fn, tasks):
                sent.extend(tasks)
                return real_map(fn, tasks)

            pmap.map = recording_map
            trainer.train_round()
            assert len(sent) == 2
            dataset_bytes = len(pickle.dumps(small_fed.clients))
            for task in sent:
                payload = pickle.dumps(task)
                assert b"ClientDataset" not in payload
                assert len(payload) < dataset_bytes / 10
        finally:
            trainer.close()

    def test_single_group_round_keeps_live_telemetry(
        self, small_fed, small_edges
    ):
        """A 1-group round on the process backend runs trainer-side with the
        real telemetry instance — group spans and counters must not vanish
        into a worker's NULL_TELEMETRY."""
        tel = Telemetry(label="single-group")
        groups = group_clients_per_edge(
            CoVGrouping(3, 1.0), small_fed.L, small_edges, rng=0
        )
        cfg = TrainerConfig(
            max_rounds=1, group_rounds=1, local_rounds=1, num_sampled=1,
            use_secure_aggregation=True, seed=3, parallel_backend="process",
        )
        trainer = GroupFELTrainer(
            model_fn, small_fed, groups, cfg, telemetry=tel
        )
        try:
            trainer.run()
        finally:
            trainer.close()
        span_names = {s.name for s in tel.tracer.spans()}
        assert {"round", "group", "client_update", "secagg"} <= span_names
        assert tel.metrics.counter("client_updates").value > 0
        assert tel.metrics.counter("secagg_calls").value > 0
        # The serial path never needed (or built) the pool.
        assert trainer.executor.pmap.pools_created == 0

    def test_faulted_replay_serial_vs_persistent_process_pool(
        self, small_fed, small_edges
    ):
        spec = "dropout:0.3@after,loss:0.2,straggler:0.4:0.5"
        digests, signatures = [], []
        for backend in ("serial", "process"):
            trainer = _make_trainer(
                small_fed, small_edges, backend, faults=spec,
                use_secure_aggregation=True, max_rounds=3,
            )
            try:
                trainer.run()
            finally:
                trainer.close()
            digests.append(hashlib.sha256(
                np.ascontiguousarray(trainer.global_params).tobytes()
            ).hexdigest())
            signatures.append(trainer.fault_trace.signature())
        assert digests[0] == digests[1]
        assert signatures[0] == signatures[1]

    def test_trainer_owns_and_closes_its_pool(self, small_fed, small_edges):
        trainer = _make_trainer(small_fed, small_edges, "process", max_rounds=1)
        assert trainer.executor.owns_pool
        trainer.run()
        assert trainer.executor.pmap.has_live_pool
        trainer.close()
        trainer.close()  # idempotent
        assert not trainer.executor.pmap.has_live_pool
        with pytest.raises(RuntimeError, match="closed"):
            trainer.executor.pmap.map(_square, [1, 2])

    def test_ambient_pool_is_picked_up_and_left_open(
        self, small_fed, small_edges
    ):
        with ParallelMap("thread", max_workers=2) as pm:
            with activated(RunContext(parallel=pm)):
                trainer = _make_trainer(small_fed, small_edges, "thread")
                assert trainer.executor.pmap is pm
                assert not trainer.executor.owns_pool
                trainer.run()
                trainer.close()
            # closing the trainer must not close the shared pool
            assert pm.map(_square, [5]) == [25]

    def test_dropped_trainer_is_freed_without_a_gc_pass(
        self, small_fed, small_edges
    ):
        """The executor must not point back at its trainer: a cycle would
        keep every dropped trainer — and its dataset — alive until the
        collector runs, which the round ledger sees as peak RSS."""
        trainer = _make_trainer(small_fed, small_edges, "thread", max_rounds=1)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            trainer.run()
            trainer.close()
            gone = weakref.ref(trainer)
            del trainer
            assert gone() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_context_manager_closes(self, small_fed, small_edges):
        with _make_trainer(small_fed, small_edges, "thread", max_rounds=1) as t:
            t.run()
        assert not t.executor.pmap.has_live_pool


class TestExecutorFailurePaths:
    def test_killed_worker_fails_the_run_and_leaks_no_segment(
        self, small_fed, small_edges
    ):
        """A worker SIGKILLed mid-round must surface from ``run()`` at once
        — no hang, no partial round — and ``close()`` must still unlink every
        shared-memory segment the run created."""
        before = _shm_segments()
        trainer = _make_trainer(
            small_fed, small_edges, "process",
            model_fn=_model_fn_fatal_in_workers,
        )
        outcome = []

        def run():
            try:
                trainer.run()
            except BaseException as exc:  # noqa: BLE001 - reported below
                outcome.append(exc)

        runner = threading.Thread(target=run)
        runner.start()
        runner.join(timeout=60)
        try:
            assert not runner.is_alive(), "run() hung after a worker died"
            assert len(outcome) == 1 and isinstance(outcome[0], RuntimeError)
            assert trainer.round_idx == 0  # the broken round never counted
            assert _shm_segments() - before  # the round did open segments
        finally:
            trainer.close()
        assert _shm_segments() <= before

    def test_broken_pool_error_names_trainer_and_round(
        self, small_fed, small_edges
    ):
        trainer = _make_trainer(small_fed, small_edges, "process")
        try:
            def broken_map(fn, tasks):
                raise BrokenProcessPool("a child process terminated abruptly")

            trainer.executor.pmap.map = broken_map
            trainer.round_idx = 4
            with pytest.raises(RuntimeError, match=r"'pool-test'.*round 4"):
                trainer.train_round()
        finally:
            trainer.close()
