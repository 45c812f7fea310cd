"""Callback hooks for GroupFELTrainer.

Callbacks observe (and can stop) a training run without subclassing the
trainer: per-round logging, early stopping on plateau, periodic model
checkpointing, and wall-clock budgets. The trainer invokes them in
registration order after every global round.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from repro.telemetry import NULL_TELEMETRY, Telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.trainer import GroupFELTrainer

__all__ = [
    "Callback",
    "RoundLogger",
    "EarlyStopping",
    "Checkpointer",
    "TimeBudget",
    "MetricTracker",
    "TelemetryCallback",
]


class Callback:
    """Observer interface; return ``True`` from ``on_round_end`` to stop."""

    def on_train_start(self, trainer: "GroupFELTrainer") -> None:
        """Called once before the first round."""

    def on_round_end(self, trainer: "GroupFELTrainer", round_idx: int) -> bool:
        """Called after each global round; truthy return stops training."""
        return False

    def on_train_end(self, trainer: "GroupFELTrainer") -> None:
        """Called once after the final round."""


class RoundLogger(Callback):
    """Print one line per round (or every ``every`` rounds)."""

    def __init__(self, every: int = 1, printer=print):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.every = int(every)
        self.printer = printer

    def on_round_end(self, trainer, round_idx):
        if round_idx % self.every == 0:
            loss, acc = trainer.evaluate()
            self.printer(
                f"[{trainer.label}] round {round_idx:4d} "
                f"cost {trainer.ledger.total:12.0f} acc {acc:.4f} loss {loss:.4f}"
            )
        return False


class EarlyStopping(Callback):
    """Stop when test accuracy hasn't improved by ``min_delta`` for
    ``patience`` consecutive evaluations."""

    def __init__(self, patience: int = 5, min_delta: float = 1e-3):
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.patience = int(patience)
        self.min_delta = float(min_delta)
        self.best = -np.inf
        self.stale = 0
        self.stopped_at: int | None = None

    def on_train_start(self, trainer):
        self.best = -np.inf
        self.stale = 0
        self.stopped_at = None

    def on_round_end(self, trainer, round_idx):
        _, acc = trainer.evaluate()
        if acc > self.best + self.min_delta:
            self.best = acc
            self.stale = 0
            return False
        self.stale += 1
        if self.stale >= self.patience:
            self.stopped_at = round_idx
            return True
        return False


class Checkpointer(Callback):
    """Keep snapshots of the global model every ``every`` rounds.

    Snapshots are in-memory flat parameter vectors (cheap: one array per
    checkpoint); ``best_params`` additionally tracks the best-accuracy
    model seen.
    """

    def __init__(self, every: int = 5, keep_best: bool = True):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.every = int(every)
        self.keep_best = bool(keep_best)
        self.snapshots: dict[int, np.ndarray] = {}
        self.best_params: np.ndarray | None = None
        self.best_acc = -np.inf

    def on_round_end(self, trainer, round_idx):
        if round_idx % self.every == 0:
            self.snapshots[round_idx] = trainer.global_params.copy()
        if self.keep_best:
            _, acc = trainer.evaluate()
            if acc > self.best_acc:
                self.best_acc = acc
                self.best_params = trainer.global_params.copy()
        return False


class TimeBudget(Callback):
    """Stop after ``seconds`` of wall-clock time."""

    def __init__(self, seconds: float):
        if seconds <= 0:
            raise ValueError(f"seconds must be positive, got {seconds}")
        self.seconds = float(seconds)
        self._start = 0.0

    def on_train_start(self, trainer):
        self._start = time.perf_counter()

    def on_round_end(self, trainer, round_idx):
        return (time.perf_counter() - self._start) >= self.seconds


class TelemetryCallback(Callback):
    """Bridge a training run to its telemetry: lifecycle events, per-round
    progress gauges, and optional exports when training ends.

    Parameters
    ----------
    telemetry:
        Explicit :class:`repro.telemetry.Telemetry`; default None uses the
        trainer's own (``trainer.telemetry``). A disabled telemetry makes
        every hook a no-op.
    jsonl_path:
        When set, the JSONL trace is written on ``on_train_end``.
    summary_printer:
        Callable receiving the ASCII span/metric summary at train end
        (e.g. ``print``).
    """

    def __init__(
        self,
        telemetry: Telemetry | None = None,
        jsonl_path: str | None = None,
        summary_printer=None,
    ):
        self.telemetry = telemetry
        self.jsonl_path = jsonl_path
        self.summary_printer = summary_printer

    def _tel(self, trainer) -> Telemetry:
        if self.telemetry is not None:
            return self.telemetry
        return getattr(trainer, "telemetry", NULL_TELEMETRY)

    def on_train_start(self, trainer):
        tel = self._tel(trainer)
        if not tel.enabled:
            return
        tel.event(
            "train_start",
            label=trainer.label,
            num_groups=len(trainer.groups),
            num_clients=trainer.fed.num_clients,
            strategy=trainer.strategy.name,
        )

    def on_round_end(self, trainer, round_idx):
        tel = self._tel(trainer)
        if tel.enabled:
            tel.set_gauge("rounds_completed", float(round_idx))
            fields = {"round": round_idx, "cost": trainer.ledger.total}
            # Reuse the trainer's own checkpoint instead of re-evaluating.
            if trainer.history.rounds and trainer.history.rounds[-1] == round_idx:
                fields["accuracy"] = trainer.history.test_acc[-1]
                fields["loss"] = trainer.history.test_loss[-1]
            tel.event("round_end", **fields)
        return False

    def on_train_end(self, trainer):
        tel = self._tel(trainer)
        if not tel.enabled:
            return
        tel.event(
            "train_end",
            label=trainer.label,
            rounds=trainer.round_idx,
            cost=trainer.ledger.total,
        )
        if self.jsonl_path:
            tel.to_jsonl(self.jsonl_path)
        if self.summary_printer is not None:
            self.summary_printer(tel.summary())


class MetricTracker(Callback):
    """Record arbitrary per-round metrics via user functions.

    Example::

        tracker = MetricTracker({
            "grad_norm": lambda tr: float(np.linalg.norm(tr.global_params)),
        })
    """

    def __init__(self, metrics: dict):
        self.metric_fns = dict(metrics)
        self.records: dict[str, list[float]] = {k: [] for k in metrics}

    def on_round_end(self, trainer, round_idx):
        for name, fn in self.metric_fns.items():
            self.records[name].append(float(fn(trainer)))
        return False
