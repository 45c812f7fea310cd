"""Crash-safe checkpoint/resume with deterministic replay.

`repro.checkpoint` serializes *complete* trainer state — global model,
strategy state (SCAFFOLD control variates), training history, cost-ledger
series, fault trace, sampler state, and all RNG generator states — to a
versioned, atomically-written file, so a run interrupted at any round
boundary resumes bit-identically to the uninterrupted run on every
parallel backend.

Entry points:

* ``GroupFELTrainer.save_checkpoint() / load_checkpoint()`` — one trainer.
* ``TrainerConfig(checkpoint_every=...)`` + ``GroupFELTrainer(checkpoint_dir=...)``
  — periodic auto-saving during ``run()``.
* ``run_method(..., checkpoint_dir=..., resume_from=...)`` — the runner.
* ``python -m repro.experiments <target> --checkpoint-dir D [--resume]`` —
  the CLI, via the :class:`CheckpointPolicy` in its
  :class:`repro.context.RunContext`.
"""

from repro.checkpoint.format import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointVersionError,
    CorruptCheckpointError,
    read_checkpoint,
    read_header,
    write_checkpoint,
)
from repro.checkpoint.manager import (
    CheckpointManager,
    CheckpointPolicy,
    manager_for_label,
)
from repro.checkpoint.state import capture_state, config_fingerprint, restore_state

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CorruptCheckpointError",
    "CheckpointVersionError",
    "read_checkpoint",
    "read_header",
    "write_checkpoint",
    "CheckpointManager",
    "CheckpointPolicy",
    "manager_for_label",
    "capture_state",
    "restore_state",
    "config_fingerprint",
]
