"""The textbook conv data movement — the oracle for ``repro.nn.functional``.

``im2col`` / ``im2col_1d`` zero-pad with ``np.pad`` and copy a 6-D (4-D)
strided window view into patch rows; ``col2im`` / ``col2im_1d`` scatter-add
each kernel offset into an NCHW (NCL) buffer and return the cropped view.
Production kernels must produce the same bytes, signed zeros included.

``batchnorm_forward`` and ``loss_and_grad`` are the matching forms of
``BatchNorm2d.forward`` (mean and variance as two independent numpy
reductions) and ``Model.loss_and_grad`` (a full backward that also builds
the discarded input gradient of the first layer).
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import _pair, conv_output_size
from repro.nn.losses import CrossEntropyLoss

__all__ = [
    "im2col",
    "col2im",
    "im2col_1d",
    "col2im_1d",
    "batchnorm_forward",
    "loss_and_grad",
]


def im2col(
    x: np.ndarray, kernel: int | tuple[int, int], stride: int = 1, pad: int = 0
) -> tuple[np.ndarray, tuple[int, int]]:
    """Unfold ``(N, C, H, W)`` into ``(N*OH*OW, C*KH*KW)`` patch rows."""
    kh, kw = _pair(kernel)
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, kh, kw),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    # (N, OH, OW, C, KH, KW) -> rows of patches.
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols), (oh, ow)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int | tuple[int, int],
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Fold patch-gradient rows back to an input gradient (im2col adjoint)."""
    kh, kw = _pair(kernel)
    n, c, h, w = x_shape
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    hp, wp = h + 2 * pad, w + 2 * pad
    grad = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    patches = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    # Scatter-add each kernel offset in one vectorized slice assignment.
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            grad[:, :, i:i_max:stride, j:j_max:stride] += patches[:, :, i, j]
    if pad > 0:
        return grad[:, :, pad:-pad, pad:-pad]
    return grad


def im2col_1d(
    x: np.ndarray, kernel: int, stride: int = 1, pad: int = 0
) -> tuple[np.ndarray, int]:
    """Unfold ``(N, C, L)`` into ``(N*OL, C*K)`` patch rows; returns (cols, OL)."""
    n, c, length = x.shape
    ol = conv_output_size(length, kernel, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad)), mode="constant")
    sn, sc, sl = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, ol, kernel),
        strides=(sn, sc, sl * stride, sl),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 1, 3).reshape(n * ol, c * kernel)
    return np.ascontiguousarray(cols), ol


def col2im_1d(
    cols: np.ndarray,
    x_shape: tuple[int, int, int],
    kernel: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Adjoint of :func:`im2col_1d`."""
    n, c, length = x_shape
    ol = conv_output_size(length, kernel, stride, pad)
    lp = length + 2 * pad
    grad = np.zeros((n, c, lp), dtype=cols.dtype)
    patches = cols.reshape(n, ol, c, kernel).transpose(0, 2, 3, 1)
    for k in range(kernel):
        grad[:, :, k : k + stride * ol : stride] += patches[:, :, k]
    if pad > 0:
        return grad[:, :, pad:-pad]
    return grad


def batchnorm_forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
    """``BatchNorm2d.forward`` with ``x.mean`` and ``x.var`` as two passes."""
    ndim = x.ndim
    gamma = self._reshape(self.params["gamma"], ndim)
    beta = self._reshape(self.params["beta"], ndim)
    if training:
        mean = x.mean(axis=self._axes)
        var = x.var(axis=self._axes)
        rm, rv = self.params["running_mean"], self.params["running_var"]
        rm *= 1.0 - self.momentum
        rm += self.momentum * mean
        rv *= 1.0 - self.momentum
        rv += self.momentum * var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - self._reshape(mean, ndim)) * self._reshape(inv_std, ndim)
        self._cache = (x_hat, inv_std)
        return gamma * x_hat + beta
    mean = self._reshape(self.params["running_mean"], ndim)
    var = self._reshape(self.params["running_var"], ndim)
    return gamma * (x - mean) / np.sqrt(var + self.eps) + beta


def loss_and_grad(self, x: np.ndarray, y: np.ndarray) -> float:
    """``Model.loss_and_grad`` through the full ``backward``."""
    self.zero_grads()
    logits = self.forward(x, training=True)
    loss, grad = CrossEntropyLoss()(logits, y)
    self.backward(grad)
    return loss
