"""Pairwise mask derivation for secure aggregation.

Each ordered client pair (i, j) with i < j shares a seed; client i adds the
PRG expansion of that seed to its masked vector and client j subtracts it.
Summed over all clients, every mask cancels exactly (in ring arithmetic),
so the aggregate equals the true sum while individual vectors stay hidden.

Each client touches |g|−1 pairs and expands a length-d mask for each, so
per-client work is Θ(|g|·d) and group work is Θ(|g|²·d) — the quadratic
group overhead at the heart of the paper's cost model.

Two implementations coexist:

* :func:`pairwise_seed` / :func:`pairwise_mask` — the scalar reference
  path: one ``SeedSequence`` per pair, one ``Generator(Philox)`` per mask.
* :func:`pairwise_seed_table` / :func:`batched_pair_masks` /
  :func:`accumulate_pair_masks` — the hot path: all Θ(s²) pair seeds of a
  round are derived in one vectorized ``SeedSequence`` hash pass
  (:func:`repro.rng.seedseq_pool` — the entropy-pool mix as fused NumPy
  array ops, shared with the population layer's batch decisions), all Philox
  key schedules likewise, and one reusable counter-mode Philox stream is
  re-keyed per pair instead of constructing a ``Generator`` object per
  mask.  All of it is **bit-identical** to the reference functions
  element-for-element (``tests/secure/test_masking_batched.py`` pins the
  equivalence), so masked vectors and ring sums do not change.

Seed tables are cached per (session, round, group size) — in the
simulator pair identity is positional (local client indices 0..s−1), so
the table depends on nothing else. A training run uses the group id as
the session, so no two groups of one round share masks.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.rng import seedseq_columns, seedseq_pool, seedseq_words

__all__ = [
    "pairwise_seed",
    "pairwise_mask",
    "pairwise_seed_table",
    "batched_pair_masks",
    "clear_seed_table_cache",
]


def pairwise_seed(round_id: int, client_a: int, client_b: int, session: int = 0) -> int:
    """Deterministic shared seed for an unordered client pair in a round.

    In the real protocol this comes from a Diffie–Hellman key agreement;
    here it is a stable hash of (session, round, sorted pair), which gives
    the same privacy-irrelevant property we need for simulation: both
    endpoints derive the same seed, nobody else's masks collide.
    """
    lo, hi = (client_a, client_b) if client_a <= client_b else (client_b, client_a)
    seq = np.random.SeedSequence([int(session), int(round_id), int(lo), int(hi)])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def pairwise_mask(seed: int, dim: int) -> np.ndarray:
    """Expand a pair seed into a uint64 mask vector of length ``dim``."""
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.integers(0, 2**64, size=dim, dtype=np.uint64)


_U32 = np.uint64(32)
_LOW32 = np.uint64(0xFFFFFFFF)


# --------------------------------------------------------------------------
# Batched mask expansion: one reusable Philox bit generator for all pairs.
# --------------------------------------------------------------------------


def _philox_keys(seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-seed Philox key pair, matching ``Philox(seed)``'s key schedule
    (``SeedSequence(seed).generate_state(2, uint64)``), vectorized."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    pool = seedseq_pool([seeds & _LOW32, seeds >> _U32])
    w = seedseq_words(pool, 4)
    return w[0] | (w[1] << _U32), w[2] | (w[3] << _U32)


class _MaskStream:
    """One Philox counter-mode stream reused across all pairs of a round.

    ``pairwise_mask`` pays a ``SeedSequence`` hash plus a fresh
    ``Philox``/``Generator`` object per expansion (~tens of µs before the
    first random byte).  Here the keys of all pairs are derived in one
    vectorized :func:`_philox_keys` pass and a single bit generator is
    re-keyed per pair through its ``state`` dict (~1 µs); the raw counter
    stream then equals ``Generator(Philox(seed)).integers(0, 2**64, dim,
    uint64)`` bit for bit (full-range integers are the unmasked raw
    stream).
    """

    def __init__(self, seeds: np.ndarray):
        self._k0, self._k1 = _philox_keys(seeds)
        self._bitgen = np.random.Philox()
        self._state = self._bitgen.state
        self._state["state"]["counter"][:] = 0
        self._key = self._state["state"]["key"]

    def mask(self, index: int, dim: int) -> np.ndarray:
        """The mask for pair ``index``: equals ``pairwise_mask(seeds[index], dim)``."""
        self._key[0] = self._k0[index]
        self._key[1] = self._k1[index]
        self._state["buffer_pos"] = 4  # flush the 4-word output buffer
        self._bitgen.state = self._state
        return self._bitgen.random_raw(dim)


def batched_pair_masks(seeds: np.ndarray, dim: int) -> np.ndarray:
    """Expand many pair seeds at once: (len(seeds), dim) uint64 masks.

    Row k is bit-identical to ``pairwise_mask(seeds[k], dim)``; all key
    schedules are derived in one vectorized pass and a single reusable
    Philox stream expands every row (see :class:`_MaskStream`).
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    n = seeds.shape[0]
    out = np.empty((n, int(dim)), dtype=np.uint64)
    if n == 0 or dim == 0:
        return out
    stream = _MaskStream(seeds)
    for k in range(n):
        out[k] = stream.mask(k, int(dim))
    return out


def accumulate_pair_masks(
    masked: np.ndarray, lo: np.ndarray, hi: np.ndarray, seeds: np.ndarray
) -> None:
    """Apply every pair mask to ``masked`` in place: row ``lo[k]`` gains
    ``+pairwise_mask(seeds[k], dim)`` and row ``hi[k]`` gains the same mask
    negated (uint64 wraparound = ring arithmetic).

    Each mask is expanded **once** and applied with both signs — ring
    addition commutes, so the resulting rows are bit-identical to the
    reference protocol where both endpoints expand the mask independently.
    Nothing quadratic is materialized: the peak extra memory is one
    ``dim``-length vector.
    """
    if masked.ndim != 2 or masked.dtype != np.uint64:
        raise ValueError("masked must be a 2-D uint64 matrix")
    n = len(seeds)
    if n == 0:
        return
    dim = masked.shape[1]
    stream = _MaskStream(np.asarray(seeds, dtype=np.uint64))
    for k in range(n):
        mask = stream.mask(k, dim)
        masked[lo[k]] += mask
        masked[hi[k]] -= mask


# --------------------------------------------------------------------------
# Per-round pair-seed tables, cached.
# --------------------------------------------------------------------------

_SEED_TABLE_CACHE: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
_SEED_TABLE_LOCK = threading.Lock()
_SEED_TABLE_CAPACITY = 16


def pairwise_seed_table(
    round_id: int, num_clients: int, session: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All pair seeds of one round: ``(lo, hi, seeds)`` in condensed order.

    ``lo``/``hi`` are the i < j index pairs in ``np.triu_indices`` order and
    ``seeds[k] == pairwise_seed(round_id, lo[k], hi[k], session)`` for every
    k — derived in one vectorized SeedSequence pass over all Θ(s²) pairs.
    Tables are memoized (capacity-bounded, thread-safe) on
    (session, round, group size): the simulator addresses clients by local
    index, so nothing else enters the table.
    """
    key = (int(session), int(round_id), int(num_clients))
    with _SEED_TABLE_LOCK:
        cached = _SEED_TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    lo, hi = np.triu_indices(int(num_clients), k=1)
    lo = lo.astype(np.int64)
    hi = hi.astype(np.int64)
    w = seedseq_words(seedseq_pool(seedseq_columns([key[0], key[1], lo, hi])), 2)
    seeds = w[0] | (w[1] << _U32)
    table = (lo, hi, seeds)
    with _SEED_TABLE_LOCK:
        if len(_SEED_TABLE_CACHE) >= _SEED_TABLE_CAPACITY:
            _SEED_TABLE_CACHE.pop(next(iter(_SEED_TABLE_CACHE)))
        _SEED_TABLE_CACHE[key] = table
    return table


def clear_seed_table_cache() -> None:
    """Drop all memoized pair-seed tables (mainly for tests)."""
    with _SEED_TABLE_LOCK:
        _SEED_TABLE_CACHE.clear()
