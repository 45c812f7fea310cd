"""The training loss: (scalar loss, gradient w.r.t. logits)."""

from __future__ import annotations

import numpy as np

from repro.nn.functional import log_softmax, softmax

__all__ = ["CrossEntropyLoss"]


class CrossEntropyLoss:
    """Softmax cross-entropy on integer labels (fused for stability).

    The fused formulation avoids materializing probabilities twice and keeps
    the gradient exactly ``(softmax(z) - onehot(y)) / N``.
    """

    def __call__(self, logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
        targets = np.asarray(targets)
        n = logits.shape[0]
        if targets.shape[0] != n:
            raise ValueError(f"batch mismatch: logits {n} vs targets {targets.shape[0]}")
        logp = log_softmax(logits, axis=1)
        loss = -logp[np.arange(n), targets].mean()
        grad = softmax(logits, axis=1)
        grad[np.arange(n), targets] -= 1.0
        grad /= n
        return float(loss), grad
