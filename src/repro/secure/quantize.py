"""Fixed-point quantization for secure aggregation.

Secure aggregation works over a modular integer ring; floating-point model
parameters are encoded as scaled integers mod 2^64 (native uint64 wraparound
is exactly the ring arithmetic we need, and stays vectorized).
"""

from __future__ import annotations

import numpy as np

__all__ = ["FixedPointCodec"]

#: elements per ``encode`` block: a 512 KiB float64 work buffer
_BLOCK = 1 << 16


class FixedPointCodec:
    """Encode float vectors as uint64 fixed-point ring elements.

    Parameters
    ----------
    scale:
        Fixed-point scale (values are rounded to multiples of 1/scale).
        The default 2^24 keeps round-trip error ~6e-8 per element while
        leaving ~2^39 of headroom for sums over many clients.
    clip:
        Values are clipped to ±clip before encoding; prevents overflow for
        adversarially large updates (and bounds the ring usage).
    """

    def __init__(self, scale: float = float(2**24), clip: float = 1e6):
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        if clip <= 0:
            raise ValueError(f"clip must be positive, got {clip}")
        self.scale = float(scale)
        self.clip = float(clip)

    def encode(self, vec: np.ndarray) -> np.ndarray:
        """float64 -> uint64 ring elements (two's-complement embedding).

        Blocks of ``_BLOCK`` elements are clipped, scaled and rounded in a
        small float64 work buffer and cast into the int64 output, which is the
        only array of the input's size; ``vec`` is never written.
        """
        src = np.asarray(vec, dtype=np.float64)
        out = np.empty(src.shape, dtype=np.int64)
        flat_src, flat_out = src.reshape(-1), out.reshape(-1)
        work = np.empty(min(_BLOCK, flat_src.size))
        for lo in range(0, flat_src.size, _BLOCK):
            block = flat_src[lo : lo + _BLOCK]
            buf = work[: block.size]
            np.clip(block, -self.clip, self.clip, out=buf)
            np.multiply(buf, self.scale, out=buf)
            np.rint(buf, out=buf)
            flat_out[lo : lo + block.size] = buf
        return out.view(np.uint64)

    def decode(self, ring: np.ndarray, count: int = 1) -> np.ndarray:
        """uint64 ring elements -> float64.

        ``count`` is the number of encoded vectors that were summed; it only
        matters for error intuition — decoding is the same either way as
        long as the true sum stays within ±2^63/scale.
        """
        return ring.view(np.int64).astype(np.float64) / self.scale

    def roundtrip_error_bound(self) -> float:
        """Max absolute error introduced per element by one encode/decode."""
        return 0.5 / self.scale
