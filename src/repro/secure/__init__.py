"""Group operations: secure aggregation and backdoor detection.

These are the operations whose per-client cost is quadratic in group size
(Fig. 2a / Fig. 8) and which motivate the whole paper: groups must be small
for cost, yet IID for convergence. Both are real implementations, not
cost-model stubs — the RPi emulation (`repro.costs.rpi`) times them to
calibrate the cost model.

* ``secagg`` — Bonawitz-style pairwise-masked aggregation over fixed-point
  integers: each pair of clients derives a shared mask that cancels in the
  sum, so the server only ever sees masked vectors. Because they cancel,
  a training run's total is the ring sum of the encodings; the masked
  vectors are derived only when read, one mask per client and partner.
* ``backdoor`` — a FLAME-style defense: pairwise cosine distances between
  client updates, clustering to drop outliers, median-norm clipping, and
  optional noise.
"""

from repro.secure.quantize import FixedPointCodec
from repro.secure.masking import pairwise_mask, pairwise_seed
from repro.secure.secagg import SecureAggregator, SecAggResult
from repro.secure.backdoor import BackdoorDetector, DefenseReport
from repro.secure.shamir import PRIME, reconstruct_secret, split_secret
from repro.secure.dropout import DropoutSecAggResult, DropoutTolerantAggregator

__all__ = [
    "FixedPointCodec",
    "pairwise_mask",
    "pairwise_seed",
    "SecureAggregator",
    "SecAggResult",
    "BackdoorDetector",
    "DefenseReport",
    "PRIME",
    "split_secret",
    "reconstruct_secret",
    "DropoutTolerantAggregator",
    "DropoutSecAggResult",
]
