"""Tests for the parallel executors and RNG utilities."""

import numpy as np
import pytest

from repro.parallel import ParallelMap, available_backends
from repro.rng import (
    derive_seed,
    derive_seeds,
    first_uniform,
    make_rng,
    seedseq_columns,
    seedseq_pool,
    seedseq_words,
    spawn,
    spawn_many,
)


class TestParallelMap:
    def test_backends_listed(self):
        assert set(available_backends()) == {"serial", "process"}

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            ParallelMap("gpu")

    @pytest.mark.parametrize("backend", ["serial"])
    def test_map_preserves_order(self, backend):
        pm = ParallelMap(backend, max_workers=4)
        out = pm.map(lambda x: x * x, list(range(20)))
        assert out == [x * x for x in range(20)]

    def test_process_backend(self):
        pm = ParallelMap("process", max_workers=2)
        out = pm.map(abs, [-3, -1, 2])
        assert out == [3, 1, 2]

    def test_starmap(self):
        pm = ParallelMap("serial")
        assert pm.starmap(lambda a, b: a + b, [(1, 2), (3, 4)]) == [3, 7]

    def test_starmap_process_backend(self):
        # Regression: starmap used a lambda wrapper, which cannot be pickled
        # into ProcessPoolExecutor workers. operator.pow is picklable.
        import operator

        pm = ParallelMap("process", max_workers=2)
        out = pm.starmap(operator.pow, [(2, 3), (3, 2), (5, 1)])
        assert out == [8, 9, 5]

    def test_single_item_short_circuits(self):
        """``map`` never short-circuits: a one-item map on the process
        backend still dispatches to the pool and returns the one result.
        (``GroupExecutor`` runs single-group rounds in the caller itself.)"""
        with ParallelMap("process", max_workers=2) as pm:
            assert pm.map(abs, [-42]) == [42]
            assert pm.has_live_pool

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ParallelMap("process", max_workers=0)


class TestRng:
    def test_make_rng_from_int(self):
        a = make_rng(5).random(3)
        b = make_rng(5).random(3)
        assert np.allclose(a, b)

    def test_make_rng_passthrough(self):
        g = np.random.default_rng(0)
        assert make_rng(g) is g

    def test_spawn_children_independent(self):
        root = make_rng(0)
        a, b = spawn_many(root, 2)
        assert not np.allclose(a.random(10), b.random(10))

    def test_spawn_single(self):
        child = spawn(make_rng(0))
        assert isinstance(child, np.random.Generator)

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_many(make_rng(0), -1)

    def test_derive_seed_stable(self):
        assert derive_seed(42, "client", 3) == derive_seed(42, "client", 3)

    def test_derive_seed_path_sensitive(self):
        assert derive_seed(42, "client", 3) != derive_seed(42, "client", 4)
        assert derive_seed(42, "a") != derive_seed(42, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_derive_seed_in_range(self):
        for i in range(20):
            s = derive_seed(i, "x")
            assert 0 <= s < 2**63


class TestBatchSeeds:
    """``derive_seeds`` / ``first_uniform`` are the scalar calls, per lane."""

    def test_bit_identical_on_random_sites(self):
        rng = np.random.default_rng(99)
        roots = [0, 7, 2**32 - 1, 2**32, 2**40 + 17, 2**63 + 5, 2**64 - 1]
        kinds = ["leave", "drift", "drift-state", "corrupt", "x", "a-much-longer-token"]
        sites = 0
        for root in roots:
            for kind in kinds:
                for index in (0, 3):  # several dynamics of one kind
                    round_idx = int(rng.choice([0, 1, 17, 2**31, 2**32 + 9]))
                    ids = rng.integers(0, 2**32, size=128)
                    ids[:3] = [0, 1, 2**32 - 1]
                    seeds = derive_seeds(root, kind, index, round_idx, ids)
                    want = [derive_seed(root, kind, index, round_idx, int(c)) for c in ids]
                    assert seeds.tolist() == want
                    assert first_uniform(seeds).tolist() == [
                        make_rng(s).random() for s in want
                    ]
                    sites += ids.size
        assert sites >= 10_000

    def test_lane_shapes(self):
        grid = derive_seeds(7, "k", np.arange(3)[:, None], np.arange(4)[None, :])
        assert grid.shape == (3, 4)
        assert int(grid[2, 3]) == derive_seed(7, "k", 2, 3)
        scalar = derive_seeds(7, "k", 1)
        assert scalar.shape == () and int(scalar) == derive_seed(7, "k", 1)
        assert derive_seeds(7, "k", np.empty(0, np.int64)).shape == (0,)
        assert first_uniform(np.empty(0, np.uint64)).shape == (0,)

    def test_first_uniform_of_small_seeds(self):
        seeds = np.array([0, 1, 2**32 - 1, 2**32, 2**63 - 1], dtype=np.uint64)
        assert first_uniform(seeds).tolist() == [
            make_rng(int(s)).random() for s in seeds
        ]

    def test_wide_array_entries_raise_by_position(self):
        with pytest.raises(ValueError, match=r"entropy item 3 .*\[0, 2\*\*32\)"):
            derive_seeds(5, "leave", 0, np.array([1, 2**32]))
        with pytest.raises(ValueError, match="entropy item 2"):
            derive_seeds(5, "leave", np.array([-1]))
        with pytest.raises(TypeError, match="integer array"):
            derive_seeds(5, "leave", np.array([0.5]))

    def test_pool_matches_numpy_past_four_words(self):
        """The emulation covers entropy lists longer than the pool."""
        rng = np.random.default_rng(4)
        for n_words in (1, 2, 4, 5, 9):
            entropy = [int(x) for x in rng.integers(0, 2**32, size=n_words)]
            seq = np.random.SeedSequence(entropy)
            pool = seedseq_pool(seedseq_columns(entropy))
            assert [int(w[0]) for w in pool] == [int(w) for w in seq.pool]
            words = seedseq_words(pool, 6)
            assert [int(w[0]) for w in words] == seq.generate_state(6).tolist()
