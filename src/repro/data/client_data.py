"""The per-client dataset view handed to local training."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.rng import make_rng

__all__ = ["ClientDataset"]


@dataclass
class ClientDataset:
    """One client's local shard plus its label statistics.

    ``label_counts`` is the client's row of the label matrix L — the only
    information grouping algorithms are allowed to see (§5.1: "without any
    information of their local data, model, nor gradient").
    """

    client_id: int
    x: np.ndarray
    y: np.ndarray
    label_counts: np.ndarray

    @property
    def n(self) -> int:
        """Number of local samples (the paper's n_i)."""
        return self.x.shape[0]

    def batches(
        self, batch_size: int, rng: np.random.Generator | int | None = None
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Shuffled minibatches covering the shard once."""
        rng = make_rng(rng)
        order = rng.permutation(self.n)
        for start in range(0, self.n, batch_size):
            idx = order[start : start + batch_size]
            yield self.x[idx], self.y[idx]

    def sample_batch(
        self, batch_size: int, rng: np.random.Generator | int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """One random minibatch ξ (with replacement if shard is smaller)."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        rng = make_rng(rng)
        replace = self.n < batch_size
        idx = rng.choice(self.n, size=min(batch_size, self.n) if not replace else batch_size,
                         replace=replace)
        return self.x[idx], self.y[idx]
