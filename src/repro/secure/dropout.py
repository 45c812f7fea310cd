"""Dropout-tolerant secure aggregation (Bonawitz et al.'s round 2).

Extends the mask-cancellation core with seed secret-sharing: before
masking, every client splits each of its pairwise seeds among the group
(threshold t). If a client drops after others already applied masks
against it, the server collects ≥ t shares from survivors, reconstructs
the dropped client's pairwise seeds, re-expands the masks, and cancels
them from the aggregate. The decoded sum then equals the plain sum of the
*surviving* clients' vectors.

That sum is the ring sum of the survivors' encodings, bit for bit, so the
simulator computes it directly and expands no mask; the seed sharing
(which draws from the caller's generator) and reconstruction still run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rng import make_rng
from repro.secure.masking import pairwise_seed
from repro.secure.quantize import FixedPointCodec
from repro.secure.shamir import reconstruct_secret, split_secret

__all__ = ["DropoutSecAggResult", "DropoutTolerantAggregator"]


@dataclass
class DropoutSecAggResult:
    """Outcome of a dropout-tolerant aggregation."""

    total: np.ndarray  # sum over surviving clients
    survivors: np.ndarray  # indices of clients whose data made it in
    reconstructed_pairs: int  # how many pair masks had to be reconstructed
    shares_used: int  # total Shamir shares consumed


class DropoutTolerantAggregator:
    """Pairwise-masked aggregation that survives client dropouts.

    Parameters
    ----------
    threshold:
        Shamir threshold t; reconstruction needs t surviving shareholders,
        so the protocol tolerates up to ``group_size − threshold`` drops.
    codec:
        Fixed-point codec shared with the basic aggregator.
    """

    def __init__(self, threshold: int = 2, codec: FixedPointCodec | None = None):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = int(threshold)
        self.codec = codec or FixedPointCodec()

    def aggregate(
        self,
        vectors: np.ndarray,
        dropped: set[int] | list[int] = (),
        round_id: int = 0,
        session: int = 0,
        rng: np.random.Generator | int | None = None,
    ) -> DropoutSecAggResult:
        """Aggregate with the given clients dropping after masking.

        ``dropped`` clients never deliver their masked vector, but the
        masks other clients applied against them must still be cancelled —
        that is the reconstruction step.
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError(f"expected (clients, dim), got {vectors.shape}")
        s = vectors.shape[0]
        dropped_set = set(int(d) for d in dropped)
        if any(d < 0 or d >= s for d in dropped_set):
            raise ValueError("dropped indices out of range")
        survivors = [i for i in range(s) if i not in dropped_set]
        if len(survivors) < self.threshold:
            raise ValueError(
                f"only {len(survivors)} survivors but threshold is {self.threshold}: "
                "aggregate unrecoverable"
            )
        rng = make_rng(rng)

        # Round 0: every client Shamir-shares each pairwise seed among the
        # group (in the real protocol, encrypted peer-to-peer).
        seeds: dict[tuple[int, int], int] = {}
        seed_shares: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for i in range(s):
            for j in range(i + 1, s):
                seeds[(i, j)] = pairwise_seed(round_id, i, j, session)
                seed_shares[(i, j)] = split_secret(
                    seeds[(i, j)], num_shares=s, threshold=self.threshold, rng=rng
                )

        # Round 1: survivors submit masked vectors. Masks between survivors
        # cancel in the ring sum, and round 2 cancels the rest.
        ring_sum = self.codec.encode(vectors[survivors]).sum(axis=0, dtype=np.uint64)

        # Round 2: every (survivor, dropped) pair left exactly one un-matched
        # mask in the uploads. Survivors hand the server their shares of the
        # dropped clients' seeds, and the server reconstructs each seed.
        reconstructed = 0
        shares_used = 0
        for d in dropped_set:
            for i in survivors:
                pair = (i, d) if i < d else (d, i)
                shares = seed_shares[pair]
                # Server queries `threshold` surviving shareholders.
                provider_ids = survivors[: self.threshold]
                subset = [shares[p] for p in provider_ids]
                if reconstruct_secret(subset) != seeds[pair]:
                    raise RuntimeError(f"seed of pair {pair} not recovered from its shares")
                shares_used += len(subset)
                reconstructed += 1

        total = self.codec.decode(ring_sum)
        return DropoutSecAggResult(
            total=total,
            survivors=np.array(survivors, dtype=np.int64),
            reconstructed_pairs=reconstructed,
            shares_used=shares_used,
        )
