"""Checkpoint directory management and the run-wide checkpoint policy.

A :class:`CheckpointManager` owns one directory of round-stamped
checkpoints (``ckpt_round_000012.ckpt``), writes them atomically (see
``repro.checkpoint.format``), finds the latest for resume, and prunes old
ones under a retention knob.

A :class:`CheckpointPolicy` is the CLI-facing counterpart: carried by a
:class:`repro.context.RunContext` (``RunContext(checkpoint=policy)``),
every trainer a figure generator constructs picks it up — each under a
per-label subdirectory, via :func:`manager_for_label` — so the generators
stay checkpoint-agnostic.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

from repro.checkpoint.format import read_checkpoint, write_checkpoint
from repro.telemetry import Telemetry, resolve as resolve_telemetry

__all__ = [
    "CheckpointManager",
    "CheckpointPolicy",
    "manager_for_label",
]

_CKPT_RE = re.compile(r"^ckpt_round_(\d+)\.ckpt$")


def _slug(label: str) -> str:
    """Filesystem-safe directory name for a trainer label."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", label) or "run"


@dataclass(frozen=True)
class CheckpointPolicy:
    """How a run (possibly spanning many trainers) should checkpoint.

    Attributes
    ----------
    dir:
        Root checkpoint directory; each trainer writes under
        ``dir/<label>/``.
    every:
        Save cadence in global rounds (trainers with an explicit
        ``TrainerConfig.checkpoint_every`` keep their own).
    resume:
        When True, a trainer that finds a checkpoint under its label
        auto-resumes from the latest one at the start of its first
        ``run()`` (once the whole trainer, subclass state included, is
        built).
    keep:
        Retain only the newest ``keep`` checkpoints per trainer
        (None = keep all).
    """

    dir: str
    every: int = 1
    resume: bool = False
    keep: int | None = None


class CheckpointManager:
    """Round-stamped atomic checkpoints in one directory."""

    def __init__(
        self,
        directory: str | os.PathLike,
        every: int = 1,
        keep: int | None = None,
        telemetry: Telemetry | None = None,
    ):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        if keep is not None and keep < 1:
            raise ValueError(f"keep must be >= 1 or None, got {keep}")
        self.directory = os.fspath(directory)
        self.every = int(every)
        self.keep = keep
        self.telemetry = resolve_telemetry(telemetry)
        #: round of the most recent save (None before the first)
        self.last_saved_round: int | None = None

    # -------------------------------------------------------------- queries
    def should_save(self, round_idx: int) -> bool:
        """True when ``round_idx`` falls on the save cadence."""
        return round_idx % self.every == 0

    def path_for(self, round_idx: int) -> str:
        return os.path.join(self.directory, f"ckpt_round_{round_idx:06d}.ckpt")

    def checkpoints(self) -> list[str]:
        """All checkpoint paths in this directory, oldest round first."""
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return []
        stamped = []
        for name in names:
            m = _CKPT_RE.match(name)
            if m:
                stamped.append((int(m.group(1)), name))
        return [
            os.path.join(self.directory, name) for _, name in sorted(stamped)
        ]

    def latest(self) -> str | None:
        """Path of the newest checkpoint, or None when the dir is empty."""
        paths = self.checkpoints()
        return paths[-1] if paths else None

    # ---------------------------------------------------------------- write
    def save(self, payload: dict, round_idx: int, meta: dict | None = None) -> str:
        """Atomically write one checkpoint; returns its path.

        Emits the ``checkpoint.saves`` / ``checkpoint.bytes`` counters and
        prunes past the retention limit.
        """
        path = self.path_for(round_idx)
        meta = dict(meta or {})
        meta.setdefault("round_idx", int(round_idx))
        nbytes = write_checkpoint(path, payload, meta=meta)
        self.last_saved_round = int(round_idx)
        tel = self.telemetry
        if tel.enabled:
            tel.inc("checkpoint.saves")
            tel.inc("checkpoint.bytes", float(nbytes))
        if self.keep is not None:
            for old in self.checkpoints()[: -self.keep]:
                try:
                    os.unlink(old)
                except OSError:  # pragma: no cover - benign race
                    pass
        return path

    def load_latest(self) -> tuple[dict, dict]:
        """(header, payload) of the newest checkpoint; raises if none."""
        latest = self.latest()
        if latest is None:
            raise FileNotFoundError(
                f"no checkpoints under {self.directory!r}"
            )
        return read_checkpoint(latest)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CheckpointManager(dir={self.directory!r}, every={self.every}, "
            f"keep={self.keep}, n={len(self.checkpoints())})"
        )


def manager_for_label(policy: CheckpointPolicy, label: str,
                      every: int | None = None,
                      telemetry: Telemetry | None = None) -> CheckpointManager:
    """The per-trainer manager a policy implies (``dir/<label-slug>/``)."""
    return CheckpointManager(
        os.path.join(policy.dir, _slug(label)),
        every=every if every is not None else policy.every,
        keep=policy.keep,
        telemetry=telemetry,
    )
