"""Model container with a flat-parameter-vector API.

Federated learning constantly ships, averages, and diffs whole models.
Representing a model's state as one contiguous ``float64`` vector makes
every FL operation a vectorized array expression:

* FedAvg aggregation  -> ``np.einsum("g,gp->p", weights, stacked_params)``
* FedProx proximal    -> ``grad += mu * (params - global_params)``
* SCAFFOLD variates   -> plain vector adds
* secure aggregation  -> fixed-point quantization of one buffer

``Sequential.get_params()`` copies layer arrays into the flat buffer;
``set_params`` copies back. Layer arrays keep their identity, so views held
by the optimizer stay valid.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.nn.layers import Layer
from repro.nn.losses import CrossEntropyLoss, Loss

__all__ = ["Model", "Sequential"]


class Model:
    """Abstract model: forward pass + flat parameter access."""

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def accumulate_grads(self, grad_out: np.ndarray) -> None:
        """:meth:`backward` for a caller that discards the input gradient."""
        self.backward(grad_out)

    # -- flat parameter interface -------------------------------------------------
    @property
    def layers(self) -> Sequence[Layer]:
        raise NotImplementedError

    def _param_items(self) -> list[tuple[Layer, str]]:
        return [
            (leaf, name)
            for layer in self.layers
            for leaf in layer.param_layers()
            for name in leaf.params
        ]

    @property
    def num_params(self) -> int:
        return sum(
            leaf.num_params for layer in self.layers for leaf in layer.param_layers()
        )

    def get_params(self, out: np.ndarray | None = None) -> np.ndarray:
        """Copy all parameters into one contiguous vector."""
        n = self.num_params
        if out is None:
            out = np.empty(n, dtype=np.float64)
        elif out.shape != (n,):
            raise ValueError(f"out has shape {out.shape}, expected ({n},)")
        offset = 0
        for layer, name in self._param_items():
            p = layer.params[name]
            out[offset : offset + p.size] = p.ravel()
            offset += p.size
        return out

    def set_params(self, vec: np.ndarray) -> None:
        """Load parameters from a flat vector (in-place into layer arrays)."""
        n = self.num_params
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (n,):
            raise ValueError(f"vector has shape {vec.shape}, expected ({n},)")
        offset = 0
        for layer, name in self._param_items():
            p = layer.params[name]
            p.ravel()[:] = vec[offset : offset + p.size]
            offset += p.size

    def get_grads(self, out: np.ndarray | None = None) -> np.ndarray:
        """Copy all gradients into one contiguous vector."""
        n = self.num_params
        if out is None:
            out = np.empty(n, dtype=np.float64)
        offset = 0
        for layer, name in self._param_items():
            g = layer.grads[name]
            out[offset : offset + g.size] = g.ravel()
            offset += g.size
        return out

    def trainable_mask(self) -> np.ndarray:
        """Boolean vector marking optimizer-updatable entries."""
        mask = np.empty(self.num_params, dtype=bool)
        offset = 0
        for layer, name in self._param_items():
            size = layer.params[name].size
            mask[offset : offset + size] = layer.trainable[name]
            offset += size
        return mask

    def zero_grads(self) -> None:
        for layer in self.layers:
            layer.zero_grads()

    # -- training helpers ---------------------------------------------------------
    def loss_and_grad(
        self, x: np.ndarray, y: np.ndarray, loss_fn: Loss | None = None
    ) -> float:
        """One forward+backward pass; gradients accumulate into the layers.

        The input gradient is never built (see :meth:`accumulate_grads`);
        call :meth:`backward` when it is wanted.
        """
        loss_fn = loss_fn or CrossEntropyLoss()
        self.zero_grads()
        logits = self.forward(x, training=True)
        loss, grad = loss_fn(logits, y)
        self.accumulate_grads(grad)
        return loss

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Class predictions without caching activations."""
        outputs = []
        for start in range(0, x.shape[0], batch_size):
            logits = self.forward(x[start : start + batch_size], training=False)
            outputs.append(logits.argmax(axis=1))
        return np.concatenate(outputs) if outputs else np.empty(0, dtype=np.int64)

    def evaluate(
        self, x: np.ndarray, y: np.ndarray, batch_size: int = 256
    ) -> tuple[float, float]:
        """Return (mean cross-entropy loss, accuracy) on a dataset."""
        loss_fn = CrossEntropyLoss()
        total_loss = 0.0
        correct = 0
        n = x.shape[0]
        if n == 0:
            return 0.0, 0.0
        for start in range(0, n, batch_size):
            xb, yb = x[start : start + batch_size], y[start : start + batch_size]
            logits = self.forward(xb, training=False)
            loss, _ = loss_fn(logits, yb)
            total_loss += loss * xb.shape[0]
            correct += int((logits.argmax(axis=1) == yb).sum())
        return total_loss / n, correct / n


class Sequential(Model):
    """A simple layer pipeline."""

    def __init__(self, layers: Iterable[Layer]):
        self._layers = list(layers)

    @property
    def layers(self) -> Sequence[Layer]:
        return self._layers

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        for layer in self._layers:
            x = layer.forward(x, training=training)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self._layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def accumulate_grads(self, grad_out: np.ndarray) -> None:
        """Backward that never builds the first layer's input gradient
        (for a conv stem that is one GEMM plus a col2im per step)."""
        for layer in reversed(self._layers[1:]):
            grad_out = layer.backward(grad_out)
        if self._layers:
            self._layers[0].accumulate_grads(grad_out)

    def __repr__(self) -> str:
        inner = ", ".join(repr(layer) for layer in self._layers)
        return f"Sequential([{inner}])"
