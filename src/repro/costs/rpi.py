"""Raspberry-Pi device emulation: regenerate Figs. 2(a) and 8 by measurement.

The paper parameterizes its cost model from wall-clock measurements of
training, secure aggregation, and backdoor detection on Raspberry Pi 4
devices. We have no RPi, but we have real implementations of all three
operations — so this module *times them here* at varying data/group sizes,
verifies the linear/quadratic shapes by least-squares fit, and rescales to
RPi-second magnitudes via a single device-speed factor.

That preserves exactly what the paper uses the measurements for: the shape
(training linear in n, group ops quadratic in |g|, SCAFFOLD SecAgg above
plain SecAgg above backdoor detection) and relative magnitudes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.costs.calibration import fit_linear, fit_quadratic
from repro.costs.model import LinearCost, QuadraticCost
from repro.nn import make_audio_cnn, make_resnet_lite
from repro.rng import make_rng
from repro.secure import BackdoorDetector, SecureAggregator

__all__ = ["MeasurementSeries", "RPiEmulator"]


def _safe_fit(kind: str, sizes: np.ndarray, secs: np.ndarray) -> tuple[tuple, float]:
    """Fit when enough points exist; otherwise report no fit (params ())."""
    try:
        if kind == "linear":
            fit, r2 = fit_linear(sizes, secs)
            return (fit.c0, fit.c1), r2
        fit, r2 = fit_quadratic(sizes, secs)
        return (fit.c0, fit.c1, fit.c2), r2
    except ValueError:
        return (), 0.0


@dataclass
class MeasurementSeries:
    """One measured overhead curve (a single line of Fig. 8)."""

    label: str
    sizes: np.ndarray
    seconds: np.ndarray
    fit_kind: str  # "linear" | "quadratic"
    fit_params: tuple = ()
    fit_r2: float = 0.0

    def as_rows(self) -> list[dict]:
        return [
            {"label": self.label, "x": int(s), "seconds": float(t)}
            for s, t in zip(self.sizes, self.seconds)
        ]


class RPiEmulator:
    """Measure group-operation and training costs on this machine.

    Parameters
    ----------
    model_dim:
        Vector length used for SecAgg / backdoor timing (stand-in for model
        size; the paper's models are O(10⁴–10⁵) params, default trimmed for
        quick measurement — shapes are size-independent).
    device_factor:
        Multiplier converting local seconds to RPi-4 seconds (an RPi 4 is
        roughly 30–100× slower than a server core on NumPy workloads).
    repeats:
        Timing repetitions per point (the minimum is kept; see ``_time``).
    """

    def __init__(
        self,
        model_dim: int = 2000,
        device_factor: float = 50.0,
        repeats: int = 3,
        seed: int = 0,
    ):
        self.model_dim = int(model_dim)
        self.device_factor = float(device_factor)
        self.repeats = int(repeats)
        self.rng = make_rng(seed)

    def _task_dim(self, task: str) -> int:
        # SC's 5-layer CNN is far smaller than the CIFAR ResNet; its SecAgg
        # and defense payloads shrink accordingly (Fig. 8: SC curves sit
        # below the CIFAR ones).
        return self.model_dim if task == "cifar" else max(1, self.model_dim // 3)

    def _time(self, fn) -> float:
        # Min over repeats: the standard noise-robust timing estimator —
        # scheduler preemption and concurrent load only ever inflate a
        # sample, so the minimum best estimates the intrinsic cost.
        best = float("inf")
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best * self.device_factor

    # ------------------------------------------------------------------ training
    def measure_training(
        self, data_sizes: list[int] | np.ndarray, task: str = "cifar"
    ) -> MeasurementSeries:
        """Time one local pass over n samples for the task's model."""
        if task == "cifar":
            model = make_resnet_lite(base_width=8, seed=1)
            shape = (3, 8, 8)
            classes = 10
        elif task == "sc":
            model = make_audio_cnn(base_width=8, seed=1)
            shape = (8, 16)
            classes = 35
        else:
            raise KeyError(f"unknown task {task!r}; known: cifar, sc")
        sizes = np.asarray(data_sizes, dtype=np.int64)
        secs = np.empty(sizes.shape, dtype=np.float64)
        for k, n in enumerate(sizes):
            x = self.rng.normal(size=(int(n), *shape))
            y = self.rng.integers(0, classes, size=int(n))
            secs[k] = self._time(lambda: model.loss_and_grad(x, y))
        params, r2 = _safe_fit("linear", sizes, secs)
        return MeasurementSeries(
            label=f"{task} training",
            sizes=sizes,
            seconds=secs,
            fit_kind="linear",
            fit_params=params,
            fit_r2=r2,
        )

    # ------------------------------------------------------------ group operations
    def measure_secagg(
        self, group_sizes: list[int] | np.ndarray, payload_factor: int = 1, task: str = "cifar"
    ) -> MeasurementSeries:
        """Time secure aggregation for groups of each size.

        ``payload_factor=2`` gives the SCAFFOLD-SecAgg curve (model +
        control variate are both masked).

        Times :meth:`SecureAggregator.aggregate_reference` — the
        protocol-faithful path where every client expands each of its
        |g|−1 pair masks itself, which is the Θ(|g|²·d) per-device work
        the cost model calibrates.  A training round's
        :meth:`SecureAggregator.aggregate` expands no mask at all (the
        masks cancel, so it decodes the ring sum of the encodings), and
        timing it would miss what one RPi actually computes.
        """
        agg = SecureAggregator(payload_factor=payload_factor)
        sizes = np.asarray(group_sizes, dtype=np.int64)
        secs = np.empty(sizes.shape, dtype=np.float64)
        dim = self._task_dim(task)
        for k, s in enumerate(sizes):
            vecs = self.rng.normal(size=(int(s), dim))
            secs[k] = self._time(lambda: agg.aggregate_reference(vecs, round_id=k))
        params, r2 = _safe_fit("quadratic", sizes, secs)
        name = "SCAFFOLD SecAgg" if payload_factor > 1 else "SecAgg"
        return MeasurementSeries(
            label=f"{task} {name}",
            sizes=sizes,
            seconds=secs,
            fit_kind="quadratic",
            fit_params=params,
            fit_r2=r2,
        )

    def measure_backdoor(
        self, group_sizes: list[int] | np.ndarray, task: str = "cifar"
    ) -> MeasurementSeries:
        """Time the backdoor-detection defense for groups of each size."""
        det = BackdoorDetector()
        sizes = np.asarray(group_sizes, dtype=np.int64)
        secs = np.empty(sizes.shape, dtype=np.float64)
        dim = self._task_dim(task)
        for k, s in enumerate(sizes):
            ups = self.rng.normal(size=(max(int(s), 2), dim))
            secs[k] = self._time(lambda: det.detect(ups, rng=0))
        params, r2 = _safe_fit("quadratic", sizes, secs)
        return MeasurementSeries(
            label=f"{task} Backdoor Detection",
            sizes=sizes,
            seconds=secs,
            fit_kind="quadratic",
            fit_params=params,
            fit_r2=r2,
        )

    # --------------------------------------------------------------------- Fig. 8
    def measurement_table(
        self,
        sizes: list[int] | np.ndarray = (2, 5, 10, 20, 35, 50),
        tasks: tuple[str, ...] = ("cifar", "sc"),
    ) -> list[MeasurementSeries]:
        """All eight Fig. 8 curves: {cifar, sc} × {training, backdoor, SecAgg, SCAFFOLD SecAgg}."""
        series = []
        for task in tasks:
            series.append(self.measure_training(sizes, task))
            series.append(self.measure_backdoor(sizes, task))
            series.append(self.measure_secagg(sizes, payload_factor=1, task=task))
            series.append(self.measure_secagg(sizes, payload_factor=2, task=task))
        return series
