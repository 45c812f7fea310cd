"""Crash-safe checkpoint/resume: kill a faulted run mid-flight, resume it,
and verify the result is bit-identical to never having crashed.

Three legs over the same workload and seed:

1. **Golden** — train 6 rounds straight through, no checkpointing.
2. **Crashed** — train with auto-checkpointing and simulate a hard crash
   after round 3 (an exception out of the training loop; the round-3
   checkpoint is already on disk at that point).
3. **Resumed** — build a fresh trainer from the same inputs, restore the
   latest checkpoint, and finish the remaining rounds.

The script asserts that the resumed run's accuracy/cost curves, final
model parameters, and fault-replay signature all match the golden run
exactly, and exits nonzero on any mismatch — CI runs it as a smoke test.

    python examples/resume_run.py [--backend serial|process]
"""

import argparse
import functools
import hashlib
import sys
import tempfile

import numpy as np

from repro import (
    CoVGrouping,
    FederatedDataset,
    GroupFELTrainer,
    SyntheticImage,
    TrainerConfig,
    group_clients_per_edge,
    make_mlp,
    paper_cost_model,
)
from repro.core.callbacks import Callback

NUM_CLIENTS = 24
ROUNDS = 6
CRASH_AFTER = 3
FAULTS = "dropout:0.3@after,loss:0.2,straggler:0.3:0.5"

# Module-level so the process backend can pickle it.
model_fn = functools.partial(make_mlp, 192, 10, seed=0)


class CrashAfter(Callback):
    """Simulate a hard crash right after a round's checkpoint is saved."""

    def __init__(self, round_idx: int):
        self.round_idx = round_idx

    def on_round_end(self, trainer, round_idx: int) -> bool:
        if round_idx >= self.round_idx:
            raise KeyboardInterrupt(f"simulated crash after round {round_idx}")
        return False


def make_workload():
    data = SyntheticImage(noise_std=2.0, seed=0)
    train, test = data.train_test(4_000, 500)
    fed = FederatedDataset.from_dataset(
        train, test, num_clients=NUM_CLIENTS, alpha=0.1, rng=11
    )
    edges = [np.arange(0, 12), np.arange(12, 24)]
    groups = group_clients_per_edge(CoVGrouping(3, 1.0), fed.L, edges, rng=0)
    return fed, groups


def make_trainer(fed, groups, backend, checkpoint_dir=None):
    cfg = TrainerConfig(
        max_rounds=ROUNDS, group_rounds=1, local_rounds=1, num_sampled=2,
        momentum=0.9, seed=7, parallel_backend=backend, faults=FAULTS,
    )
    return GroupFELTrainer(
        model_fn, fed, groups, cfg, paper_cost_model(),
        label="resume-demo", checkpoint_dir=checkpoint_dir,
    )


def fingerprint(trainer, history):
    digest = hashlib.sha256(
        np.ascontiguousarray(trainer.global_params).tobytes()
    ).hexdigest()
    return {
        "rounds": history.rounds,
        "costs": history.costs,
        "accuracy": history.test_acc,
        "params_sha256": digest,
        "fault_signature": trainer.fault_trace.signature(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", default="serial",
                        choices=["serial", "process"])
    args = parser.parse_args()

    fed, groups = make_workload()

    print(f"[1/3] golden: {ROUNDS} uninterrupted rounds ({args.backend})")
    with make_trainer(fed, groups, args.backend) as golden_trainer:
        golden = fingerprint(golden_trainer, golden_trainer.run())

    with tempfile.TemporaryDirectory(prefix="repro-ckpt-") as ckdir:
        print(f"[2/3] crashed: checkpointing to {ckdir}, killing after "
              f"round {CRASH_AFTER}")
        crashed = make_trainer(fed, groups, args.backend, checkpoint_dir=ckdir)
        crashed.callbacks.append(CrashAfter(CRASH_AFTER))
        try:
            crashed.run()
        except KeyboardInterrupt as exc:
            print(f"        crash: {exc}")
        finally:
            crashed.close()

        print("[3/3] resumed: fresh trainer + latest checkpoint")
        with make_trainer(fed, groups, args.backend) as resumed_trainer:
            resumed_trainer.load_checkpoint(ckdir)  # directory → latest
            print(f"        restored at round {resumed_trainer.round_idx}")
            resumed = fingerprint(resumed_trainer, resumed_trainer.run())

    mismatches = [k for k in golden if golden[k] != resumed[k]]
    acc = ", ".join(f"{a:.3f}" for a in resumed["accuracy"])
    print(f"\nresumed accuracy curve : [{acc}]")
    print(f"params sha256          : {resumed['params_sha256'][:16]}…")
    print(f"fault signature        : {resumed['fault_signature'][:16]}…")
    if mismatches:
        print(f"\nFAIL: resumed run diverged from golden in {mismatches}")
        return 1
    print("\nOK: interrupted-then-resumed run is bit-identical to the "
          "uninterrupted run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
