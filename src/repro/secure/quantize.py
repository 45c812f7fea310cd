"""Fixed-point quantization for secure aggregation.

Secure aggregation works over a modular integer ring; floating-point model
parameters are encoded as scaled integers mod 2^64 (native uint64 wraparound
is exactly the ring arithmetic we need, and stays vectorized).
"""

from __future__ import annotations

import numpy as np

__all__ = ["FixedPointCodec"]


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

        One float64 copy is clipped, scaled and rounded in place; the int64
        cast is the only other array.
        """
        buf = np.array(vec, dtype=np.float64)
        np.clip(buf, -self.clip, self.clip, out=buf)
        np.multiply(buf, self.scale, out=buf)
        np.rint(buf, out=buf)
        return buf.astype(np.int64).view(np.uint64)

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
