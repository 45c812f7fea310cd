"""Tests for the shared-memory dispatch primitives (``repro.shm``).

The rings are plain POSIX shared memory: a ``ShmView`` pickles to ~100
bytes and resolves to a live float64 view in any process that maps the
segment. The executor integration (descriptors riding each process-pool
task) is covered by the backend-determinism and pool tests; here we pin the
primitives themselves plus the fail-fast contract when a segment cannot be
created.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.shm import ShmChannel, ShmRing


def test_shm_available_here():
    # The suite's process-backend tests rely on it; surface loudly if the
    # environment can't do shared memory at all.
    ShmRing(slot_len=1, slots=1).close()


class TestShmRing:
    def test_write_view_roundtrip(self):
        ring = ShmRing(slot_len=8, slots=3)
        try:
            values = np.arange(8, dtype=np.float64)
            ring.write(1, values)
            assert np.array_equal(ring.view(1), values)
            # Other slots untouched.
            assert np.array_equal(ring.view(0), np.zeros(8))
        finally:
            ring.close()

    def test_descriptor_resolves_to_same_memory(self):
        ring = ShmRing(slot_len=4, slots=2)
        try:
            desc = ring.write(0, np.array([1.0, 2.0, 3.0, 4.0]))
            view = desc.resolve()
            assert np.array_equal(view, [1.0, 2.0, 3.0, 4.0])
            # Writes through the resolved view land in the ring (zero-copy).
            view[0] = 99.0
            assert ring.view(0)[0] == 99.0
        finally:
            ring.close()

    def test_descriptor_is_tiny_when_pickled(self):
        ring = ShmRing(slot_len=100_000, slots=1)
        try:
            payload = pickle.dumps(ring.descriptor(0))
            # The whole point: descriptor size is independent of slot size.
            assert len(payload) < 200
        finally:
            ring.close()

    def test_slot_bounds_checked(self):
        ring = ShmRing(slot_len=4, slots=2)
        try:
            with pytest.raises(IndexError):
                ring.view(2)
            with pytest.raises(IndexError):
                ring.descriptor(-1)
        finally:
            ring.close()

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            ShmRing(slot_len=0, slots=1)
        with pytest.raises(ValueError):
            ShmRing(slot_len=1, slots=0)

    def test_close_idempotent(self):
        ring = ShmRing(slot_len=4, slots=1)
        ring.close()
        ring.close()


class TestShmChannel:
    def test_publish_params_double_buffers(self):
        chan = ShmChannel(num_params=6)
        try:
            a = chan.publish_params(np.full(6, 1.0))
            b = chan.publish_params(np.full(6, 2.0))
            # Consecutive publishes land in different slots, so a consumer
            # still reading round t's vector never sees round t+1's write.
            assert a.offset != b.offset
            assert np.array_equal(a.resolve(), np.full(6, 1.0))
            assert np.array_equal(b.resolve(), np.full(6, 2.0))
        finally:
            chan.close()

    def test_publish_params_validates_shape(self):
        chan = ShmChannel(num_params=6)
        try:
            with pytest.raises(ValueError):
                chan.publish_params(np.zeros(5))
        finally:
            chan.close()

    def test_result_slots_grow_on_demand(self):
        chan = ShmChannel(num_params=3)
        try:
            first = chan.result_slots(2)
            assert len(first) == 2
            grown = chan.result_slots(5)
            assert len(grown) == 5
            # Shrinking requests reuse the larger ring.
            again = chan.result_slots(1)
            assert again[0].name == grown[0].name
            chan.result_array(0)[:] = [7.0, 8.0, 9.0]
            assert np.array_equal(again[0].resolve(), [7.0, 8.0, 9.0])
        finally:
            chan.close()

    def test_result_array_requires_allocation(self):
        chan = ShmChannel(num_params=3)
        try:
            with pytest.raises(RuntimeError):
                chan.result_array(0)
        finally:
            chan.close()


def _worker_scale(task):
    """Resolve the input view, write 2x into the result slot (module-level
    so the process pool can pickle it)."""
    params_view, result_view = task
    result_view.resolve()[:] = 2.0 * params_view.resolve()
    return None


class TestCrossProcess:
    def test_views_cross_a_process_pool(self):
        chan = ShmChannel(num_params=16)
        try:
            src = np.arange(16, dtype=np.float64)
            params_view = chan.publish_params(src)
            (slot,) = chan.result_slots(1)
            with ProcessPoolExecutor(max_workers=1) as pool:
                pool.submit(_worker_scale, (params_view, slot)).result()
            assert np.array_equal(chan.result_array(0), 2.0 * src)
        finally:
            chan.close()

    def test_resolve_attach_cached_per_name(self):
        ring = ShmRing(slot_len=4, slots=2)
        try:
            v1 = ring.descriptor(0).resolve()
            v2 = ring.descriptor(1).resolve()
            v1[:] = 1.0
            v2[:] = 2.0
            assert np.array_equal(ring.view(0), np.ones(4))
            assert np.array_equal(ring.view(1), np.full(4, 2.0))
        finally:
            ring.close()


class TestTrainerChannel:
    def test_channel_failure_raises_named_error(
        self, small_fed, small_edges, monkeypatch
    ):
        """No silent switch to another wire protocol: the error carries the
        OS error and points at the backend that needs no shared memory."""
        import functools

        import repro.core.executor as executor_mod
        from repro.core.trainer import GroupFELTrainer, TrainerConfig
        from repro.grouping import CoVGrouping, group_clients_per_edge
        from repro.nn import make_mlp

        def no_shm(num_params):
            raise FileNotFoundError(2, "No such file or directory: '/dev/shm'")

        monkeypatch.setattr(executor_mod, "ShmChannel", no_shm)
        groups = group_clients_per_edge(
            CoVGrouping(3, 1.0), small_fed.L, small_edges, rng=0
        )
        cfg = TrainerConfig(
            max_rounds=1, group_rounds=1, local_rounds=1, num_sampled=2,
            seed=5, parallel_backend="process",
        )
        trainer = GroupFELTrainer(
            functools.partial(make_mlp, 192, 10, seed=0),
            small_fed, groups, cfg, label="no-shm",
        )
        try:
            with pytest.raises(RuntimeError) as err:
                trainer.run()
            message = str(err.value)
            assert "'no-shm'" in message
            assert "FileNotFoundError" in message and "/dev/shm" in message
            assert "parallel_backend='thread'" in message
            assert isinstance(err.value.__cause__, FileNotFoundError)
            assert not trainer.history.rounds
        finally:
            trainer.close()
