"""Execution backends for group-parallel simulation.

Algorithm 1 trains the sampled groups of a global round *in parallel*
("for group g in S_t do ⊲ in parallel"). In this simulator each group's
round is an independent pure function of ``(global model, group state)``,
so it maps cleanly onto an executor. Two backends are provided:

* ``serial``  — plain loop; the default, fully deterministic, zero overhead.
* ``process`` — ``ProcessPoolExecutor``; true multiprocess fan-out. Work
  items and results cross the pool as pickles.

Results are always returned **in submission order** on both backends so
that aggregation order — and therefore floating-point results — is stable.

Pool lifetime
-------------
A :class:`ParallelMap` is a **long-lived** object: the executor is created
lazily on the first pooled :meth:`map` call and then reused by every
subsequent call until :meth:`close` (or the ``with`` block) shuts it down.
Per-round pool startup — historically the dominant dispatch cost — is paid
once per pool lifetime. One pool can serve every trainer of a run: pass
it as ``parallel=``, or as ``RunContext(parallel=...)`` (what the CLI's
``--parallel`` flag does; see :mod:`repro.context`).

Worker state
------------
Large, round-invariant payloads (the federated dataset, the model factory)
should not ride on every task. :meth:`ParallelMap.register_worker_state`
ships a payload to every worker **once per pool lifetime** via the process
pool's initializer; tasks then carry only a registration token and call
:func:`worker_state` inside the worker to look the payload up. The parent
process keeps a mirror of the registry, so the same lookup works on the
serial backend without special-casing.

Telemetry
---------
When a :class:`repro.telemetry.Telemetry` is attached, pooled calls record
``pool.init_s`` (executor construction, once per pool), ``pool.dispatch_s``
(per-call task submission time — the serialization/enqueue overhead, not
the compute), ``pool.tasks`` and ``pool.map_calls`` counters.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Executor, ProcessPoolExecutor
from typing import Any, Callable, Sequence, TypeVar

from repro._heap import trim_free_heap
from repro.telemetry import Telemetry, resolve as resolve_telemetry

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "ParallelMap",
    "available_backends",
    "worker_state",
    "worker_init_count",
]

_BACKENDS = ("serial", "process")


def available_backends() -> tuple[str, ...]:
    """Names of the supported execution backends."""
    return _BACKENDS


# --------------------------------------------------------------------------
# Worker-side state registry.
#
# In a worker process this dict is populated exactly once, by
# ``_pool_initializer`` when the pool spawns the worker. In the parent
# process ``ParallelMap.register_worker_state`` keeps a mirror so lookups
# also resolve on the serial backend.
_WORKER_STATE: dict[str, Any] = {}

#: times ``_pool_initializer`` ran in *this* process — 0 in the parent,
#: and exactly 1 in a healthy pool worker (the one-time-init contract).
_WORKER_INIT_COUNT = 0


def _pool_initializer(state: dict[str, Any]) -> None:
    """Install registered worker state; runs once per worker per pool."""
    global _WORKER_INIT_COUNT
    _WORKER_INIT_COUNT += 1
    _WORKER_STATE.update(state)


def worker_state(token: str) -> Any:
    """Look up a payload registered under ``token`` (worker or parent side)."""
    try:
        return _WORKER_STATE[token]
    except KeyError:
        raise RuntimeError(
            f"no worker state registered under {token!r}; call "
            "ParallelMap.register_worker_state(token, payload) before "
            "dispatching tasks that reference it"
        ) from None


def worker_init_count(_: Any = None) -> int:
    """Initializer invocations in the calling process (test/debug probe).

    Mapping this over a process pool returns one count per executed task;
    every value must be 1 when workers are initialized exactly once. The
    ignored argument lets it ride through ``ParallelMap.map`` unchanged.
    """
    return _WORKER_INIT_COUNT


class _StarCall:
    """Picklable adapter that unpacks a tuple into positional arguments.

    A lambda would work for the serial backend but cannot be sent
    to a ``ProcessPoolExecutor`` worker; a module-level class instance can
    (as long as ``fn`` itself is picklable).
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[..., R]):
        self.fn = fn

    def __call__(self, args: tuple) -> R:
        return self.fn(*args)


class ParallelMap:
    """Ordered ``map`` over a lazily-created, reusable execution backend.

    Parameters
    ----------
    backend:
        ``"serial"`` or ``"process"``.
    max_workers:
        Worker count for the process backend. Defaults to ``os.cpu_count()``
        capped at 8 (group counts per round are small; more workers only add
        startup cost — profile before raising, per the optimization guide).
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`; defaults to the
        run context's (see :func:`repro.telemetry.resolve`). Records the ``pool.*`` counters described in the
        module docstring. Assignable after construction.
    """

    def __init__(
        self,
        backend: str = "serial",
        max_workers: int | None = None,
        telemetry: Telemetry | None = None,
    ):
        if backend not in _BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {_BACKENDS}")
        self.backend = backend
        if max_workers is None:
            max_workers = min(8, os.cpu_count() or 1)
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self.telemetry = resolve_telemetry(telemetry)
        self._executor: Executor | None = None
        self._state: dict[str, Any] = {}
        self._closed = False
        self._lock = threading.Lock()
        #: executors built over this object's lifetime (1 after any number
        #: of ``map`` calls; each ``register_worker_state`` on a live
        #: process pool adds one)
        self.pools_created = 0

    # ------------------------------------------------------------ lifecycle
    @property
    def has_live_pool(self) -> bool:
        """True while an executor is alive."""
        return self._executor is not None

    def _new_executor(self) -> Executor:
        t0 = time.perf_counter()
        # A forked worker counts the parent's free heap as its own
        # resident memory; hand it back first (see repro._heap).
        trim_free_heap()
        # Worker state ships once, through the initializer, to every
        # worker this pool ever spawns. (Executor construction is cheap;
        # actual process spawn cost lands in the first dispatch.)
        ex = ProcessPoolExecutor(
            max_workers=self.max_workers,
            initializer=_pool_initializer,
            initargs=(dict(self._state),),
        )
        self.pools_created += 1
        tel = self.telemetry
        if tel.enabled:
            tel.observe("pool.init_s", time.perf_counter() - t0)
            tel.inc("pool.created")
        return ex

    def _ensure_executor(self) -> Executor:
        with self._lock:
            if self._closed:
                raise RuntimeError("ParallelMap is closed")
            if self._executor is None:
                self._executor = self._new_executor()
            return self._executor

    def register_worker_state(self, token: str, payload: Any) -> None:
        """Register a one-time payload shipped to every worker of this pool.

        The payload is also mirrored into the parent-side registry so
        :func:`worker_state` resolves on the serial backend. If a
        process pool is already live, it is shut down and lazily rebuilt on
        the next ``map`` so the new state reaches fresh workers — register
        *before* the first dispatch to keep the one-startup guarantee.

        The closed-check, state write, and executor swap-out all happen
        under the pool lock: ``_ensure_executor`` snapshots the state dict
        under the same lock, so a concurrent ``map`` can no longer lazily
        build a stale-state executor between this method's check and its
        swap (it either builds before the swap — and the swap tears that
        executor down — or after, seeing the new state). Only the blocking
        ``shutdown`` runs outside the lock.
        """
        stale = None
        with self._lock:
            if self._closed:
                raise RuntimeError("ParallelMap is closed")
            self._state[token] = payload
            _WORKER_STATE[token] = payload
            stale, self._executor = self._executor, None
        if stale is not None:
            stale.shutdown(wait=True)

    def unregister_worker_state(self, token: str) -> None:
        """Drop a registered payload (live workers keep a harmless copy)."""
        self._state.pop(token, None)
        _WORKER_STATE.pop(token, None)

    def close(self, wait: bool = True) -> None:
        """Shut the executor down and unregister state. Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            ex, self._executor = self._executor, None
        if ex is not None:
            ex.shutdown(wait=wait)
        for token in list(self._state):
            _WORKER_STATE.pop(token, None)
        self._state.clear()

    def __enter__(self) -> "ParallelMap":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close(wait=False)
        except Exception:
            pass

    # ------------------------------------------------------------- mapping
    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every item, returning results in input order.

        The process backend always dispatches to the pool — there is no silent
        in-process fallback for short item lists, so worker-side effects
        (telemetry routing, worker-state lookups) are the same for one task
        as for many. Callers that want live-telemetry semantics for tiny
        rounds should route them through their own serial path instead.
        """
        if self._closed:
            raise RuntimeError("ParallelMap is closed")
        items = list(items)
        if self.backend == "serial" or not items:
            return [fn(item) for item in items]
        ex = self._ensure_executor()
        tel = self.telemetry
        t0 = time.perf_counter()
        futures = [ex.submit(fn, item) for item in items]
        if tel.enabled:
            tel.observe("pool.dispatch_s", time.perf_counter() - t0)
            tel.inc("pool.tasks", float(len(items)))
            tel.inc("pool.map_calls")
        return [f.result() for f in futures]

    def starmap(self, fn: Callable[..., R], arg_tuples: Sequence[tuple]) -> list[R]:
        """Like :meth:`map` but unpacks each item as positional arguments."""
        return self.map(_StarCall(fn), arg_tuples)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else ("live" if self.has_live_pool else "idle")
        return (
            f"ParallelMap(backend={self.backend!r}, "
            f"max_workers={self.max_workers}, {state})"
        )
