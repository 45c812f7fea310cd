"""Bonawitz-style secure aggregation over a client group.

The protocol simulated here is the mask-cancellation core of
"Practical Secure Aggregation for Privacy-Preserving Machine Learning"
(CCS'17): fixed-point encoding, pairwise additive masks, server-side ring
summation; dropout recovery lives in :mod:`repro.secure.dropout`. The cost
structure (Θ(|g|²·d) mask work per group) is exactly what the paper's
O_g(|g|) quadratic overhead models.

Every pair mask is added by one endpoint and subtracted by the other, so
the masks cancel exactly in the uint64 ring: the server's sum of the
masked uploads is the ring sum of the plain encodings, bit for bit.
:meth:`SecureAggregator.aggregate` computes ``total`` that way and
expands no mask. The masked uploads, :attr:`SecAggResult.masked_inputs`,
are derived on first read by the protocol itself: every client expands
the mask it shares with each partner, s(s−1) expansions. ``mask_expansions``
and the telemetry counters count that work (the Θ(s²) quantity, and
s·d·payload words masked) whether or not the masks are expanded; the
cost model's constants come from timing the masked
:meth:`SecureAggregator.aggregate_reference` (``costs.rpi``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from repro.secure.masking import pairwise_mask, pairwise_seed
from repro.secure.quantize import FixedPointCodec
from repro.telemetry import Telemetry, resolve as resolve_telemetry

__all__ = ["SecAggResult", "SecureAggregator"]


@dataclass
class SecAggResult:
    """Outcome of one secure aggregation.

    ``total`` is the decoded sum of all client vectors; ``masked_inputs``
    are what the server saw under the protocol (for tests asserting
    privacy), derived from the encodings on first read; ``mask_expansions``
    counts PRG mask vectors the protocol generates (2 per pair), the
    quantity that scales quadratically with group size.
    """

    total: np.ndarray
    mask_expansions: int
    _clients: int = field(repr=False)
    _masked: Callable[[], np.ndarray] = field(repr=False)

    @cached_property
    def masked_inputs(self) -> np.ndarray:
        return self._masked()

    @property
    def mean(self) -> np.ndarray:
        return self.total / self._clients


class SecureAggregator:
    """Aggregate client vectors without revealing any individual vector.

    Parameters
    ----------
    codec:
        Fixed-point codec; default scale 2^24 (error ≤ 3e-8 per element).
    payload_factor:
        Multiplier on the vector length actually masked, modelling protocol
        variants that ship extra state — SCAFFOLD sends model + control
        variate, i.e. ``payload_factor=2`` (Fig. 8's "SCAFFOLD SecAgg"
        curve sits above plain SecAgg for exactly this reason).
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`; every aggregation
        records ``secagg_calls`` / ``secagg_mask_expansions`` /
        ``secagg_bytes_masked`` counters — the Θ(s²) quantities of Eq. (5).
    """

    def __init__(
        self,
        codec: FixedPointCodec | None = None,
        payload_factor: int = 1,
        telemetry: Telemetry | None = None,
    ):
        if payload_factor < 1:
            raise ValueError(f"payload_factor must be >= 1, got {payload_factor}")
        self.codec = codec or FixedPointCodec()
        self.payload_factor = int(payload_factor)
        self.telemetry = resolve_telemetry(telemetry)

    def _validate(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError(f"expected (clients, dim), got shape {vectors.shape}")
        return vectors

    def _mask(self, encoded: np.ndarray, round_id: int, session: int) -> np.ndarray:
        """The masked uploads: a tiled copy of ``encoded`` in which client i
        adds the mask it shares with each partner j > i and subtracts the
        one it shares with each j < i. Every client expands its own masks,
        s(s−1) ``Generator`` objects in all; uint64 wraparound is the ring
        arithmetic."""
        masked = np.tile(encoded, (1, self.payload_factor))
        s, masked_dim = masked.shape
        for i in range(s):
            row = masked[i]
            for j in range(s):
                if j == i:
                    continue
                mask = pairwise_mask(pairwise_seed(round_id, i, j, session), masked_dim)
                if i < j:
                    row += mask
                else:
                    row -= mask
        return masked

    def _finish(
        self,
        ring_sum: np.ndarray,
        s: int,
        dim: int,
        expansions: int,
        masked: Callable[[], np.ndarray],
    ) -> SecAggResult:
        total = self.codec.decode(ring_sum[:dim], count=s)
        if self.telemetry.enabled:
            self.telemetry.inc("secagg_calls")
            self.telemetry.inc("secagg_mask_expansions", float(expansions))
            self.telemetry.inc("secagg_bytes_masked", float(s * dim * self.payload_factor * 8))
        return SecAggResult(total, expansions, s, masked)

    def aggregate(
        self,
        vectors: np.ndarray,
        round_id: int = 0,
        session: int = 0,
    ) -> SecAggResult:
        """Securely sum ``vectors`` of shape (clients, dim).

        The server's sum of the masked uint64 uploads (wraparound = ring
        addition) equals the ring sum of the encodings, since the masks
        cancel; that sum is decoded, and the masks are expanded only if
        ``masked_inputs`` is read. The result equals the plain sum up to
        fixed-point rounding.
        """
        vectors = self._validate(vectors)
        s, dim = vectors.shape
        encoded = self.codec.encode(vectors)
        return self._finish(
            encoded.sum(axis=0, dtype=np.uint64),
            s,
            dim,
            s * (s - 1),
            partial(self._mask, encoded, round_id, session),
        )

    def aggregate_reference(
        self,
        vectors: np.ndarray,
        round_id: int = 0,
        session: int = 0,
    ) -> SecAggResult:
        """Securely sum ``vectors`` the way the protocol's server does:
        encode, mask (:meth:`_mask`), ring-sum the masked uploads, decode.

        Kept as the golden reference and the calibration subject:
        ``costs.rpi`` times it for Figs. 2a/8, and the equivalence tests
        assert that :meth:`aggregate` produces a bit-identical total.
        """
        vectors = self._validate(vectors)
        s, dim = vectors.shape
        masked = self._mask(self.codec.encode(vectors), round_id, session)
        ring_sum = masked.sum(axis=0, dtype=np.uint64)
        return self._finish(ring_sum, s, dim, s * (s - 1), lambda: masked)

    def aggregate_weighted(
        self,
        vectors: np.ndarray,
        weights: np.ndarray,
        round_id: int = 0,
        session: int = 0,
    ) -> np.ndarray:
        """Securely compute Σ w_i · v_i (clients pre-scale locally)."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (vectors.shape[0],):
            raise ValueError("one weight per client vector required")
        return self.aggregate(vectors * weights[:, None], round_id, session).total
