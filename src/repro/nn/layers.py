"""Neural-network layers with explicit forward/backward passes.

Each layer owns named parameter arrays (``self.params``), matching gradient
arrays (``self.grads``), and a trainability flag per parameter
(``self.trainable``) — BatchNorm running statistics are parameters that are
federated-averaged but never touched by the optimizer.

Shapes follow the PyTorch convention: images are ``(N, C, H, W)``,
sequences are ``(N, C, L)``, dense activations are ``(N, F)``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import (
    col2im,
    col2im_1d,
    im2col,
    im2col_1d,
    kaiming_normal,
)

__all__ = [
    "Layer",
    "Dense",
    "Conv2d",
    "Conv1d",
    "ReLU",
    "LeakyReLU",
    "Dropout",
    "Flatten",
    "MaxPool2d",
    "MaxPool1d",
    "GlobalAvgPool2d",
    "GlobalAvgPool1d",
    "BatchNorm2d",
    "BatchNorm1d",
]


class Layer:
    """Base class: a differentiable transform with named parameters."""

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.trainable: dict[str, bool] = {}

    def add_param(self, name: str, value: np.ndarray, trainable: bool = True) -> None:
        """Register a parameter array (float64, contiguous)."""
        arr = np.ascontiguousarray(value, dtype=np.float64)
        self.params[name] = arr
        self.grads[name] = np.zeros_like(arr)
        self.trainable[name] = trainable

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def accumulate_grads(self, grad_out: np.ndarray) -> None:
        """The parameter-gradient half of :meth:`backward`.

        For a layer whose input gradient nobody reads — the first layer
        under :meth:`Model.loss_and_grad`. The default runs ``backward``
        and drops the result; layers whose input gradient costs a GEMM
        skip building it.
        """
        self.backward(grad_out)

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g.fill(0.0)

    def param_layers(self) -> list["Layer"]:
        """Leaf layers owning parameters; composite layers override this."""
        return [self]

    @property
    def num_params(self) -> int:
        return sum(p.size for p in self.params.values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Dense(Layer):
    """Affine layer: ``y = x @ W + b`` with ``W`` of shape (in, out)."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.add_param("W", kaiming_normal(rng, (in_features, out_features), in_features))
        self.add_param("b", np.zeros(out_features))
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._x = x
        return x @ self.params["W"] + self.params["b"]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self.accumulate_grads(grad_out)
        return grad_out @ self.params["W"].T

    def accumulate_grads(self, grad_out: np.ndarray) -> None:
        x = self._x
        if x is None:
            raise RuntimeError("backward called before a training forward pass")
        self.grads["W"] += x.T @ grad_out
        self.grads["b"] += grad_out.sum(axis=0)

    def __repr__(self) -> str:
        return f"Dense({self.in_features}, {self.out_features})"


class _Conv(Layer):
    """Convolution as im2col + GEMM over ``ndim`` spatial axes.

    Weight shape (C_out, C_in, *kernel). Subclasses supply the unfold/fold
    kernel pair for their rank.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int,
        padding: int,
        ndim: int,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.add_param(
            "W",
            kaiming_normal(
                rng,
                (out_channels, in_channels, *(kernel_size,) * ndim),
                in_channels * kernel_size**ndim,
            ),
        )
        self.add_param("b", np.zeros(out_channels))
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None

    def _unfold(self, x: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
        """Patch rows of ``x`` plus the output spatial shape."""
        raise NotImplementedError

    def _fold(self, grad_cols: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`_unfold` onto the cached input shape."""
        raise NotImplementedError

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        cols, out_size = self._unfold(x)
        w_mat = self.params["W"].reshape(self.out_channels, -1)
        out = cols @ w_mat.T
        out += self.params["b"]
        if training:
            self._cols = cols
            self._x_shape = x.shape
        return np.moveaxis(out.reshape(x.shape[0], *out_size, self.out_channels), -1, 1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_rows = self._accumulate(grad_out)
        return self._fold(grad_rows @ self.params["W"].reshape(self.out_channels, -1))

    def accumulate_grads(self, grad_out: np.ndarray) -> None:
        self._accumulate(grad_out)

    def _accumulate(self, grad_out: np.ndarray) -> np.ndarray:
        """Add the W/b gradients; return ``grad_out`` as (positions, C_out) rows."""
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before a training forward pass")
        grad_rows = np.moveaxis(grad_out, 1, -1).reshape(-1, self.out_channels)
        self.grads["W"] += (grad_rows.T @ self._cols).reshape(self.params["W"].shape)
        self.grads["b"] += grad_rows.sum(axis=0)
        return grad_rows

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.padding})"
        )


class Conv2d(_Conv):
    """2-D convolution via im2col + GEMM. Weight shape (C_out, C_in, KH, KW)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
    ):
        super().__init__(in_channels, out_channels, kernel_size, rng, stride, padding, ndim=2)

    def _unfold(self, x: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
        return im2col(x, self.kernel_size, self.stride, self.padding)

    def _fold(self, grad_cols: np.ndarray) -> np.ndarray:
        return col2im(grad_cols, self._x_shape, self.kernel_size, self.stride, self.padding)


class Conv1d(_Conv):
    """1-D convolution via im2col + GEMM. Weight shape (C_out, C_in, K)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
    ):
        super().__init__(in_channels, out_channels, kernel_size, rng, stride, padding, ndim=1)

    def _unfold(self, x: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
        cols, ol = im2col_1d(x, self.kernel_size, self.stride, self.padding)
        return cols, (ol,)

    def _fold(self, grad_cols: np.ndarray) -> np.ndarray:
        return col2im_1d(grad_cols, self._x_shape, self.kernel_size, self.stride, self.padding)


class ReLU(Layer):
    """Rectified linear unit (mask cached for the backward pass)."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        mask = x > 0
        if training:
            self._mask = mask
        return np.where(mask, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training forward pass")
        return np.where(self._mask, grad_out, 0.0)


class LeakyReLU(Layer):
    """Leaky ReLU with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = float(negative_slope)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        mask = x > 0
        if training:
            self._mask = mask
        return np.where(mask, x, self.negative_slope * x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training forward pass")
        return np.where(self._mask, grad_out, self.negative_slope * grad_out)


class Dropout(Layer):
    """Inverted dropout; identity at evaluation time."""

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = float(p)
        self.rng = rng
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if not training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask


class Flatten(Layer):
    """Collapse all non-batch axes."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before a training forward pass")
        return grad_out.reshape(self._shape)


class MaxPool2d(Layer):
    """Max pooling with kernel == stride (the common non-overlapping case)."""

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = int(kernel_size)
        self._argmax: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        k = self.kernel_size
        n, c, h, w = x.shape
        if h % k or w % k:
            raise ValueError(f"spatial dims ({h},{w}) not divisible by pool size {k}")
        oh, ow = h // k, w // k
        windows = x.reshape(n, c, oh, k, ow, k).transpose(0, 1, 2, 4, 3, 5)
        flat = windows.reshape(n, c, oh, ow, k * k)
        if training:
            self._argmax = flat.argmax(axis=-1)
            self._x_shape = x.shape
        return flat.max(axis=-1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._argmax is None or self._x_shape is None:
            raise RuntimeError("backward called before a training forward pass")
        k = self.kernel_size
        n, c, h, w = self._x_shape
        oh, ow = h // k, w // k
        flat = np.zeros((n, c, oh, ow, k * k), dtype=grad_out.dtype)
        np.put_along_axis(flat, self._argmax[..., None], grad_out[..., None], axis=-1)
        return (
            flat.reshape(n, c, oh, ow, k, k)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h, w)
        )

    def __repr__(self) -> str:
        return f"MaxPool2d(k={self.kernel_size})"


class MaxPool1d(Layer):
    """1-D max pooling with kernel == stride."""

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = int(kernel_size)
        self._argmax: np.ndarray | None = None
        self._x_shape: tuple[int, int, int] | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        k = self.kernel_size
        n, c, length = x.shape
        if length % k:
            raise ValueError(f"sequence length {length} not divisible by pool size {k}")
        ol = length // k
        windows = x.reshape(n, c, ol, k)
        if training:
            self._argmax = windows.argmax(axis=-1)
            self._x_shape = x.shape
        return windows.max(axis=-1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._argmax is None or self._x_shape is None:
            raise RuntimeError("backward called before a training forward pass")
        k = self.kernel_size
        n, c, length = self._x_shape
        windows = np.zeros((n, c, length // k, k), dtype=grad_out.dtype)
        np.put_along_axis(windows, self._argmax[..., None], grad_out[..., None], axis=-1)
        return windows.reshape(n, c, length)

    def __repr__(self) -> str:
        return f"MaxPool1d(k={self.kernel_size})"


class GlobalAvgPool2d(Layer):
    """Spatial global average pooling: (N, C, H, W) -> (N, C)."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before a training forward pass")
        n, c, h, w = self._x_shape
        return np.broadcast_to(grad_out[:, :, None, None] / (h * w), self._x_shape).copy()


class GlobalAvgPool1d(Layer):
    """Temporal global average pooling: (N, C, L) -> (N, C)."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: tuple[int, int, int] | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._x_shape = x.shape
        return x.mean(axis=2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before a training forward pass")
        n, c, length = self._x_shape
        return np.broadcast_to(grad_out[:, :, None] / length, self._x_shape).copy()


class _BatchNormBase(Layer):
    """Shared batch-norm math over a reduction axis set.

    Running statistics are registered as *non-trainable* parameters so they
    ride along in the flat parameter vector (and are federated-averaged),
    but the optimizer never updates them.
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.num_features = int(num_features)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.add_param("gamma", np.ones(num_features))
        self.add_param("beta", np.zeros(num_features))
        self.add_param("running_mean", np.zeros(num_features), trainable=False)
        self.add_param("running_var", np.ones(num_features), trainable=False)
        self._cache: tuple | None = None

    # Subclasses define how (N, C, ...) maps to per-feature statistics.
    _axes: tuple[int, ...] = (0,)

    def _reshape(self, v: np.ndarray, ndim: int) -> np.ndarray:
        shape = [1] * ndim
        shape[1 if ndim > 1 else 0] = self.num_features
        return v.reshape(shape)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        ndim = x.ndim
        gamma = self._reshape(self.params["gamma"], ndim)
        beta = self._reshape(self.params["beta"], ndim)
        if training:
            mean = x.mean(axis=self._axes)
            # One centred tensor serves both the variance and x_hat. numpy's
            # var is this same mean, subtraction, square and sum/count, so
            # both keep their exact values.
            x_hat = x - self._reshape(mean, ndim)
            var = np.square(x_hat).mean(axis=self._axes)
            rm, rv = self.params["running_mean"], self.params["running_var"]
            rm *= 1.0 - self.momentum
            rm += self.momentum * mean
            rv *= 1.0 - self.momentum
            rv += self.momentum * var
            inv_std = 1.0 / np.sqrt(var + self.eps)
            x_hat *= self._reshape(inv_std, ndim)
            self._cache = (x_hat, inv_std)
            out = gamma * x_hat
        else:
            mean = self._reshape(self.params["running_mean"], ndim)
            var = self._reshape(self.params["running_var"], ndim)
            out = x - mean
            np.multiply(gamma, out, out=out)
            out /= np.sqrt(var + self.eps)
        out += beta
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        x_hat, inv_std = self._cache
        ndim = grad_out.ndim
        m = grad_out.size // self.num_features
        self.grads["gamma"] += (grad_out * x_hat).sum(axis=self._axes)
        self.grads["beta"] += grad_out.sum(axis=self._axes)
        gamma = self._reshape(self.params["gamma"], ndim)
        g = grad_out * gamma
        g_sum = g.sum(axis=self._axes, keepdims=True)
        gx_sum = (g * x_hat).sum(axis=self._axes, keepdims=True)
        inv = self._reshape(inv_std, ndim)
        return inv * (g - g_sum / m - x_hat * gx_sum / m)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.num_features})"


class BatchNorm2d(_BatchNormBase):
    """Batch normalization over (N, H, W) per channel for (N, C, H, W)."""

    _axes = (0, 2, 3)


class BatchNorm1d(_BatchNormBase):
    """Batch normalization for (N, C, L) sequences or (N, F) features."""

    @property
    def _axes(self):  # type: ignore[override]
        return self._axes_dynamic

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._axes_dynamic = (0,) if x.ndim == 2 else (0, 2)
        return super().forward(x, training)
