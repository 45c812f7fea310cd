"""Per-client fairness metrics (the conclusion's future-work direction).

The paper closes by noting CoV-prioritized sampling concentrates training
on well-balanced groups and leaves "maintaining client/data fairness" to
future work. These metrics quantify that concern: per-client accuracy of
the global model, its dispersion, and participation counts per client
under a sampling scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.client_data import ClientDataset
from repro.grouping.base import Group
from repro.nn.model import Model

__all__ = ["FairnessReport", "per_client_accuracy", "participation_counts"]


@dataclass
class FairnessReport:
    """Distributional summary of per-client accuracies."""

    accuracies: np.ndarray
    mean: float
    std: float
    min: float
    p10: float

    @property
    def cov(self) -> float:
        """Coefficient of variation of client accuracies (lower = fairer)."""
        return self.std / self.mean if self.mean > 0 else float("inf")


def per_client_accuracy(
    model: Model, clients: list[ClientDataset], params: np.ndarray | None = None
) -> FairnessReport:
    """Evaluate the global model on every client's local data."""
    if params is not None:
        model.set_params(params)
    accs = np.empty(len(clients))
    for k, c in enumerate(clients):
        _, accs[k] = model.evaluate(c.x, c.y)
    return FairnessReport(
        accuracies=accs,
        mean=float(accs.mean()),
        std=float(accs.std()),
        min=float(accs.min()),
        p10=float(np.percentile(accs, 10)),
    )


def participation_counts(
    sampled_rounds: list[list[Group]], num_clients: int
) -> np.ndarray:
    """How many rounds each client participated in.

    Feed it the per-round S_t lists to expose the coverage skew that CoV
    sampling introduces (and that regrouping mitigates).
    """
    counts = np.zeros(num_clients, dtype=np.int64)
    for groups in sampled_rounds:
        for g in groups:
            counts[g.members] += 1
    return counts
