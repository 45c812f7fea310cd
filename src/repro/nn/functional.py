"""Stateless numerical kernels shared by layers and losses.

The convolution path uses im2col/col2im so the inner loops become one big
GEMM per layer — the canonical vectorization trick from the scientific-
Python optimization guide (replace Python loops with one BLAS call).

Around those GEMMs the conv kernels only move data, and they are written so
that every float they produce is the one the textbook form produces:

* ``im2col`` is one ``np.take`` gather from a zero-padded copy of the input
  through a flat index that depends only on (C, spatial size, kernel,
  stride, pad). The index is built once per shape, kept read-only in a
  bounded cache, and safe to share across threads. A gather copies values,
  so the column matrix — the GEMM operand — holds exactly the input's bits
  (including ``-0.0``, ``inf`` and NaN payloads) in the usual
  (N·OH·OW, C·KH·KW) row order.
* ``col2im`` accumulates into a channels-last zero buffer, one strided add
  per kernel offset in row-major (i, j) order, then makes one contiguous
  NCHW copy. Every input-gradient element is the same left-to-right sum,
  starting from ``+0.0``, that the NCHW loop computes, so it is bit-equal —
  signed zeros included — and only the memory walk changes.

The rule: only data movement may change — never the operands of a GEMM
(permuting a GEMM operand's columns changes its blocking and therefore its
rounding), and never the order of the additions that make one value.
``tests/nn/test_conv_kernels.py`` holds both kernel pairs byte-equal to
the strided-view originals kept in ``tests/oracles/conv_reference.py``.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

__all__ = [
    "im2col",
    "col2im",
    "im2col_1d",
    "col2im_1d",
    "softmax",
    "log_softmax",
    "one_hot",
    "xavier_uniform",
    "kaiming_normal",
]


def _pair(v: int | tuple[int, int]) -> tuple[int, int]:
    return (v, v) if isinstance(v, int) else (int(v[0]), int(v[1]))


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output length of a convolution along one axis."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution output size {out} <= 0 "
            f"(input={size}, kernel={kernel}, stride={stride}, pad={pad})"
        )
    return out


@functools.lru_cache(maxsize=64)
def _patch_index(
    channels: int,
    size: tuple[int, ...],
    kernel: tuple[int, ...],
    stride: int,
    pad: int,
) -> np.ndarray:
    """Read-only ``(prod(out), C*prod(kernel))`` flat offsets of every patch.

    Row r lists, in (C, *kernel) row-major order, the positions inside one
    zero-padded ``(C, *size + 2*pad)`` sample that output position r reads.
    Depends only on the layer geometry, so one array serves every batch.
    """
    padded = [s + 2 * pad for s in size]
    steps = np.cumprod([1, *padded[::-1]])[::-1]  # element strides: C, *spatial
    origin = np.zeros(1, dtype=np.intp)
    patch = np.arange(channels, dtype=np.intp) * steps[0]
    for s, k, step in zip(size, kernel, steps[1:]):
        out = conv_output_size(s, k, stride, pad)
        origin = np.add.outer(origin, np.arange(out) * (stride * step)).ravel()
        patch = np.add.outer(patch, np.arange(k) * step).ravel()
    index = np.add.outer(origin, patch).astype(np.intp, copy=False)
    index.flags.writeable = False
    return index


def _unfold(x: np.ndarray, kernel: tuple[int, ...], stride: int, pad: int) -> np.ndarray:
    """``(N, C, *size)`` -> ``(N * prod(out), C * prod(kernel))`` patch rows."""
    n, c, *size = x.shape
    index = _patch_index(c, tuple(size), kernel, stride, pad)
    if pad > 0:
        padded = np.zeros((n, c, *(s + 2 * pad for s in size)), dtype=x.dtype)
        padded[(slice(None), slice(None), *(slice(pad, pad + s) for s in size))] = x
        x = padded
    cols = np.take(x.reshape(n, math.prod(x.shape[1:])), index, axis=1)
    return cols.reshape(n * index.shape[0], index.shape[1])


def _fold(
    cols: np.ndarray,
    x_shape: tuple[int, ...],
    kernel: tuple[int, ...],
    stride: int,
    pad: int,
) -> np.ndarray:
    """Adjoint of :func:`_unfold`: sum patch rows back onto ``x_shape``."""
    n, c, *size = x_shape
    out = [conv_output_size(s, k, stride, pad) for s, k in zip(size, kernel)]
    grad = np.zeros((n, *(s + 2 * pad for s in size), c), dtype=cols.dtype)
    patches = cols.reshape(n, *out, c, *kernel)
    # One strided add per kernel offset, offsets in row-major order: each
    # element's sum runs in the same order as the NCHW formulation.
    for offset in itertools.product(*map(range, kernel)):
        window = tuple(slice(o, o + stride * m, stride) for o, m in zip(offset, out))
        grad[(slice(None), *window)] += patches[(..., *offset)]
    interior = grad[(slice(None), *(slice(pad, pad + s) for s in size))]
    return np.ascontiguousarray(np.moveaxis(interior, -1, 1))


def im2col(
    x: np.ndarray, kernel: int | tuple[int, int], stride: int = 1, pad: int = 0
) -> tuple[np.ndarray, tuple[int, int]]:
    """Unfold ``(N, C, H, W)`` into ``(N*OH*OW, C*KH*KW)`` patch rows.

    Returns the column matrix (C-contiguous) plus the output spatial shape
    ``(OH, OW)``. One gather through a cached read-only index.
    """
    kh, kw = _pair(kernel)
    _, _, h, w = x.shape
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    return _unfold(x, (kh, kw), stride, pad), (oh, ow)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int | tuple[int, int],
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Fold patch-gradient rows back to a contiguous ``(N, C, H, W)`` input
    gradient (im2col adjoint)."""
    return _fold(cols, x_shape, _pair(kernel), stride, pad)


def im2col_1d(
    x: np.ndarray, kernel: int, stride: int = 1, pad: int = 0
) -> tuple[np.ndarray, int]:
    """Unfold ``(N, C, L)`` into ``(N*OL, C*K)`` patch rows; returns (cols, OL)."""
    ol = conv_output_size(x.shape[2], kernel, stride, pad)
    return _unfold(x, (kernel,), stride, pad), ol


def col2im_1d(
    cols: np.ndarray,
    x_shape: tuple[int, int, int],
    kernel: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Adjoint of :func:`im2col_1d`; returns a contiguous ``(N, C, L)``."""
    return _fold(cols, x_shape, (kernel,), stride, pad)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    return shifted


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels ``(N,)`` -> one-hot ``(N, num_classes)`` float64."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels out of range [0, {num_classes}): "
            f"min={labels.min()}, max={labels.max()}"
        )
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def xavier_uniform(
    rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int
) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def kaiming_normal(
    rng: np.random.Generator, shape: tuple[int, ...], fan_in: int
) -> np.ndarray:
    """He/Kaiming normal initialization (for ReLU networks)."""
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)
