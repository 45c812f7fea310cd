"""Pairwise mask derivation for secure aggregation.

Each ordered client pair (i, j) with i < j shares a seed; client i adds the
PRG expansion of that seed to its masked vector and client j subtracts it.
Summed over all clients, every mask cancels exactly (in ring arithmetic),
so the aggregate equals the true sum while individual vectors stay hidden.

Each client touches |g|−1 pairs and expands a length-d mask for each, so
per-client work is Θ(|g|·d) and group work is Θ(|g|²·d) — the quadratic
group overhead at the heart of the paper's cost model. Both endpoints
derive a pair's mask independently: one ``SeedSequence`` per seed, one
``Generator(Philox)`` per mask.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pairwise_seed", "pairwise_mask"]


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
