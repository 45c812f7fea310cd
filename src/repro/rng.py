"""Deterministic random-number management for Group-FEL simulations.

Every stochastic component (data synthesis, Dirichlet partitioning, group
formation tie-breaking, group sampling, minibatch selection, weight
initialization) draws from a :class:`numpy.random.Generator` that is
*spawned* from a single root seed. Spawning follows NumPy's ``SeedSequence``
design so that independent components receive statistically independent
streams while the whole experiment stays reproducible from one integer.

Components that must be re-created anywhere from *where* they sit rather
than from a live stream use path-derived seeds: :func:`derive_seed` for one
site, :func:`derive_seeds` / :func:`first_uniform` for an array of sites at
once (a vectorized emulation of numpy's ``SeedSequence`` and PCG64 seeding,
bit-identical to the scalar calls).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "make_rng",
    "spawn",
    "spawn_many",
    "derive_seed",
    "derive_seeds",
    "first_uniform",
    "seedseq_columns",
    "seedseq_pool",
    "seedseq_words",
    "generator_state",
    "restore_generator",
]


_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF


def make_rng(seed: int | None | np.random.Generator = None) -> np.random.Generator:
    """Return a Generator from a seed, None, or an existing Generator.

    Passing a Generator through unchanged lets APIs accept either a seed or
    a live stream without callers caring which.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator) -> np.random.Generator:
    """Spawn one statistically independent child generator."""
    return rng.spawn(1)[0]


def spawn_many(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Spawn ``n`` independent child generators in one call."""
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of generators: {n}")
    return list(rng.spawn(n))


def _path_tokens(root_seed: int, path: tuple) -> list:
    """The entropy tokens of a key path: 64-bit ints, strings FNV-1a folded;
    integer arrays (the lanes of :func:`derive_seeds`) pass through."""
    tokens: list = [int(root_seed) & _M64]
    for item in path:
        if isinstance(item, str):
            # Stable string -> int folding (FNV-1a, 64-bit).
            acc = 0xCBF29CE484222325
            for byte in item.encode("utf-8"):
                acc ^= byte
                acc = (acc * 0x100000001B3) & _M64
            tokens.append(acc)
        elif isinstance(item, np.ndarray) and item.ndim:
            tokens.append(item)
        else:
            tokens.append(int(item) & _M64)
    return tokens


def derive_seed(root_seed: int, *path: int | str) -> int:
    """Derive a stable 63-bit integer seed from a root seed and a key path.

    Used when a component must be re-created from scratch (e.g. in a worker
    process) yet still align with the parent experiment's stream layout.
    The derivation hashes the path through ``SeedSequence`` entropy mixing,
    so ``derive_seed(s, "client", 3)`` is stable across runs and platforms.
    """
    seq = np.random.SeedSequence(_path_tokens(root_seed, path))
    return int(seq.generate_state(1, dtype=np.uint64)[0] & 0x7FFFFFFFFFFFFFFF)


# --------------------------------------------------------------------------
# Vectorized SeedSequence (numpy's entropy-pool hash, pool_size=4).
#
# Constants and mixing steps mirror numpy.random.SeedSequence exactly; all
# arithmetic runs on uint64 arrays masked back to 32 bits, so thousands of
# sites (population decisions, SecAgg pair seeds) hash in a handful of fused
# array ops instead of one SeedSequence + Generator object each. This is the
# only emulation in the package; ``tests/test_parallel_rng.py`` pins it to
# numpy bit for bit.
# --------------------------------------------------------------------------

_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = np.uint64(0xCA01F9DD)
_MIX_R = np.uint64(0x4973F715)
_XSHIFT = np.uint64(16)
_U32 = np.uint64(32)
_LOW32 = np.uint64(_M32)
_POOL_SIZE = 4


def _hashmix(values: np.ndarray, hash_const: int) -> tuple[np.ndarray, int]:
    """One SeedSequence hash step over an array of 32-bit words."""
    values = values ^ np.uint64(hash_const)
    hash_const = (hash_const * _MULT_A) & _M32
    values = (values * np.uint64(hash_const)) & _LOW32
    values = values ^ (values >> _XSHIFT)
    return values, hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = (x * _MIX_L - y * _MIX_R) & _LOW32
    return r ^ (r >> _XSHIFT)


def seedseq_pool(entropy_cols: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Vectorized ``SeedSequence(entropy).pool``: one lane per array entry.

    Each column holds one 32-bit entropy word per lane (stored in uint64);
    columns broadcast against each other, so a word shared by every lane is
    a length-1 column. Fewer than four columns are zero-padded — identical
    to omitting the word, which is how numpy coerces integers below 2³² (so
    callers may always pass the (low, high) split of a 64-bit value) — and
    words past the fourth are folded into every pool word, as numpy does.
    """
    zero = np.zeros(1, np.uint64)
    pool: list[np.ndarray] = []
    hash_const = _INIT_A
    for i in range(_POOL_SIZE):
        col = entropy_cols[i] if i < len(entropy_cols) else zero
        hashed, hash_const = _hashmix(col, hash_const)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], hashed)
    for col in entropy_cols[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            hashed, hash_const = _hashmix(col, hash_const)
            pool[dst] = _mix(pool[dst], hashed)
    return pool


def seedseq_words(pool: list[np.ndarray], n_words32: int) -> list[np.ndarray]:
    """Vectorized ``SeedSequence.generate_state`` (32-bit word stream);
    uint64 word k of numpy's output is ``words[2k] | words[2k+1] << 32``."""
    hash_const = _INIT_B
    words = []
    for i in range(n_words32):
        v = pool[i % _POOL_SIZE] ^ np.uint64(hash_const)
        hash_const = (hash_const * _MULT_B) & _M32
        v = (v * np.uint64(hash_const)) & _LOW32
        words.append(v ^ (v >> _XSHIFT))
    return words


def seedseq_columns(entropy: Sequence[int | np.ndarray]) -> list[np.ndarray]:
    """Entropy columns for :func:`seedseq_pool`, coerced the way numpy
    coerces ``SeedSequence(entropy)``'s list.

    A Python int becomes its little-endian 32-bit words, as many as the
    value needs (0 is one zero word), each a length-1 column shared by
    every lane. An integer array is one word per lane, so its entries must
    lie in [0, 2³²): numpy spreads a larger integer over two words, which
    would give the lanes of one array different layouts — such an item
    raises, naming its position.
    """
    cols: list[np.ndarray] = []
    for position, item in enumerate(entropy):
        if isinstance(item, np.ndarray):
            if item.dtype.kind not in "iu":
                raise TypeError(
                    f"entropy item {position} must be an integer array, "
                    f"got dtype {item.dtype}"
                )
            if item.size and (item.min() < 0 or item.max() > _M32):
                raise ValueError(
                    f"entropy item {position} has entries outside [0, 2**32) "
                    f"(min {item.min()}, max {item.max()}); hash those sites "
                    "one by one with numpy's SeedSequence"
                )
            cols.append(item.astype(np.uint64))
            continue
        item = int(item)
        if item < 0:
            raise ValueError(f"entropy item {position} is negative: {item}")
        cols.append(np.array([item & _M32], np.uint64))
        while item > _M32:
            item >>= 32
            cols.append(np.array([item & _M32], np.uint64))
    return cols


def derive_seeds(root_seed: int, *path: int | str | np.ndarray) -> np.ndarray:
    """The array form of :func:`derive_seed`: one seed per lane.

    Any path item may be an integer array with entries in [0, 2³²) (see
    :func:`seedseq_columns`; scalar items of any size are fine); arrays
    broadcast to the lane shape, and entry ``k`` of the result equals
    ``derive_seed`` called with entry ``k`` of each array in its place, bit
    for bit.
    """
    tokens = _path_tokens(root_seed, path)
    shape = np.broadcast_shapes(
        *(t.shape for t in tokens if isinstance(t, np.ndarray))
    )
    w = seedseq_words(seedseq_pool(seedseq_columns(tokens)), 2)
    seeds = (w[0] | (w[1] << _U32)) & np.uint64(0x7FFFFFFFFFFFFFFF)
    return seeds.reshape(shape)


# PCG64 (numpy's default bit generator): 128-bit LCG state kept as (high,
# low) uint64 halves, XSL-RR output.
_PCG_MULT_HI = np.uint64(2549297995355413924)
_PCG_MULT_LO = np.uint64(4865540595714422341)


def _pcg_step(
    hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """state <- state * MULT + inc (mod 2¹²⁸), vectorized over lanes."""
    # 64x64 -> 128 product of the low halves through 32-bit limbs
    a0, a1 = lo & _LOW32, lo >> _U32
    b0, b1 = _PCG_MULT_LO & _LOW32, _PCG_MULT_LO >> _U32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry_hi = a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    new_lo = lo * _PCG_MULT_LO
    new_hi = carry_hi + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI
    out_lo = new_lo + inc_lo
    return new_hi + inc_hi + (out_lo < new_lo).astype(np.uint64), out_lo


def first_uniform(seeds: np.ndarray) -> np.ndarray:
    """``np.random.default_rng(seed).random()`` for every seed, vectorized.

    The per-lane twin of ``make_rng(seed).random()`` — bit-identical —
    for sites that need exactly one uniform each: seeding PCG64 from the
    emulated ``SeedSequence(seed)`` and taking its first double costs a few
    dozen array ops for all lanes instead of two objects per lane.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    shape = seeds.shape
    seeds = seeds.reshape(-1)  # 0-d input would take numpy's scalar path, which warns on wraparound
    w = seedseq_words(seedseq_pool([seeds & _LOW32, seeds >> _U32]), 8)
    v = [w[2 * k] | (w[2 * k + 1] << _U32) for k in range(4)]
    one, top = np.uint64(1), np.uint64(63)
    inc_hi, inc_lo = (v[2] << one) | (v[3] >> top), (v[3] << one) | one
    # pcg_setseq_128_srandom: state = 0; step; state += initstate; step
    lo = inc_lo + v[1]
    hi = inc_hi + v[0] + (lo < inc_lo).astype(np.uint64)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    # first output: step, then XSL-RR of the new state
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    x, rot = hi ^ lo, hi >> np.uint64(58)
    out = (x >> rot) | (x << ((np.uint64(64) - rot) & top))
    return ((out >> np.uint64(11)) * (1.0 / 9007199254740992.0)).reshape(shape)


def generator_state(rng: np.random.Generator) -> dict:
    """Snapshot a Generator completely enough to resume it bit-for-bit.

    ``bit_generator.state`` alone is not enough: :meth:`Generator.spawn`
    consumes the *seed sequence's* child counter, which lives outside the
    bit-generator state. Both are captured, so a restored generator
    reproduces the original's future draws **and** future spawns.

    The returned dict contains only builtin types (ints, strings, lists),
    so it serializes under any format.
    """
    bg = rng.bit_generator
    seq = getattr(bg, "seed_seq", None)
    seq_state = None
    if isinstance(seq, np.random.SeedSequence):
        entropy = seq.entropy
        if isinstance(entropy, np.ndarray):  # normalize for serialization
            entropy = [int(e) for e in entropy]
        seq_state = {
            "entropy": entropy,
            "spawn_key": [int(k) for k in seq.spawn_key],
            "pool_size": int(seq.pool_size),
            "n_children_spawned": int(seq.n_children_spawned),
        }
    return {
        "bit_generator": type(bg).__name__,
        "state": bg.state,
        "seed_seq": seq_state,
    }


def restore_generator(state: dict) -> np.random.Generator:
    """Rebuild a Generator from a :func:`generator_state` snapshot."""
    try:
        bg_cls = getattr(np.random, state["bit_generator"])
    except AttributeError:
        raise ValueError(
            f"unknown bit generator {state['bit_generator']!r}"
        ) from None
    seq_state = state.get("seed_seq")
    if seq_state is not None:
        entropy = seq_state["entropy"]
        if isinstance(entropy, list):
            entropy = [int(e) for e in entropy]
        seq = np.random.SeedSequence(
            entropy=entropy,
            spawn_key=tuple(int(k) for k in seq_state["spawn_key"]),
            pool_size=int(seq_state["pool_size"]),
            n_children_spawned=int(seq_state["n_children_spawned"]),
        )
        bg = bg_cls(seq)
    else:
        # No seed sequence (exotic hand-built generator): the stream
        # position is restored below but future .spawn() calls are not
        # reproducible — see docs/API.md, "RNG-state caveats".
        bg = bg_cls()
    bg.state = state["state"]
    return np.random.Generator(bg)
