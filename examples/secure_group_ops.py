"""Group operations in action: secure aggregation + backdoor defense.

Demonstrates why Group-FEL's cost model charges quadratic group overhead:
this script runs the *real* group operations — pairwise-masked secure
aggregation and the FLAME-style clustering defense — inside a training
round, shows the defense catching a label-flipping attacker, and times
both operations across group sizes to expose the s² scaling.

    python examples/secure_group_ops.py
"""

import time

import numpy as np

from repro.secure import BackdoorDetector, SecureAggregator


def demo_secagg() -> None:
    print("=== secure aggregation ===")
    rng = np.random.default_rng(0)
    group_size, dim = 6, 1000
    updates = rng.normal(size=(group_size, dim))

    agg = SecureAggregator()
    result = agg.aggregate(updates, round_id=0)
    true_sum = updates.sum(axis=0)
    err = np.abs(result.total - true_sum).max()
    print(f"group of {group_size}, dim {dim}")
    print(f"max error vs plain sum: {err:.2e} (fixed-point rounding only)")
    print(f"mask expansions: {result.mask_expansions} "
          f"(= |g|·(|g|−1) — the quadratic work)")

    # The server saw only masked vectors: none matches any raw update.
    masked = result.masked_inputs.view(np.int64).astype(np.float64) / agg.codec.scale
    leaked = min(
        np.abs(masked[i] - updates[j]).max()
        for i in range(group_size)
        for j in range(group_size)
    )
    print(f"closest masked-vs-raw distance: {leaked:.2e} (nothing leaked)\n")


def demo_backdoor() -> None:
    print("=== backdoor detection ===")
    rng = np.random.default_rng(1)
    dim = 500
    honest_direction = rng.normal(size=dim)
    honest = honest_direction + 0.2 * rng.normal(size=(9, dim))
    attackers = -3.0 * honest_direction + 0.2 * rng.normal(size=(2, dim))
    updates = np.vstack([honest, attackers])

    detector = BackdoorDetector(distance_threshold=0.5)
    report = detector.detect(updates, rng=0)
    print(f"clients: {updates.shape[0]} (last 2 are attackers)")
    print(f"flagged: {report.flagged.tolist()}")
    print(f"admitted: {report.admitted.tolist()}")
    print(f"clip norm (median of honest): {report.clip_norm:.2f}\n")


def demo_quadratic_scaling() -> None:
    print("=== quadratic group-size scaling (the paper's premise) ===")
    rng = np.random.default_rng(2)
    agg = SecureAggregator()
    print(f"{'|g|':>4s} {'secagg(s)':>10s} {'per-pair(ms)':>13s}")
    for s in (4, 8, 16, 32):
        vecs = rng.normal(size=(s, 2000))
        # The masked protocol, as costs.rpi times it: aggregate() itself
        # sums the encodings, because the masks cancel in that sum.
        t0 = time.perf_counter()
        agg.aggregate_reference(vecs, round_id=s)
        dt = time.perf_counter() - t0
        pairs = s * (s - 1)
        print(f"{s:4d} {dt:10.4f} {1e3 * dt / pairs:13.4f}")
    print("time per pair is ~constant -> total is Θ(|g|²)")


if __name__ == "__main__":
    demo_secagg()
    demo_backdoor()
    demo_quadratic_scaling()
