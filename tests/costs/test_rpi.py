"""Tests for the RPi measurement emulation (Figs. 2a / 8).

The shape and ordering checks read a clock stubbed to count work —
samples × parameters trained, SecAgg mask expansions, bytes masked — so
they are exact. Only the ``slow`` class times the real operations.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.context import RunContext, activated
from repro.costs import RPiEmulator, fit_linear, fit_quadratic, rpi
from repro.nn.model import Model
from repro.telemetry import Telemetry


@pytest.fixture(scope="module")
def emu():
    # Tiny dims so the whole module runs in seconds.
    return RPiEmulator(model_dim=200, device_factor=1.0, repeats=1, seed=0)


def _stub_clock(monkeypatch, read) -> None:
    """The emulator's timer reads ``read()`` instead of the wall clock."""
    monkeypatch.setattr(rpi, "time", SimpleNamespace(perf_counter=read))


@pytest.fixture()
def training_work(monkeypatch):
    """A clock that advances by samples × parameters per training pass."""
    work = [0.0]
    original = Model.loss_and_grad

    def counted(self, x, y, loss_fn=None):
        work[0] += x.shape[0] * self.num_params
        return original(self, x, y, loss_fn)

    monkeypatch.setattr(Model, "loss_and_grad", counted)
    _stub_clock(monkeypatch, lambda: work[0])


@pytest.fixture()
def secagg_counter(monkeypatch):
    """Route SecAgg telemetry to a fresh instance; ``use(name)`` makes the
    emulator's clock read that counter."""
    tel = Telemetry()

    def use(name: str) -> None:
        _stub_clock(monkeypatch, lambda: tel.metrics.counters().get(name, 0.0))

    with activated(RunContext(telemetry=tel)):
        yield use


class TestRPiEmulator:
    def test_training_is_linear(self, emu, training_work):
        sizes = np.array([5, 20, 40, 80])
        series = emu.measure_training(sizes, task="cifar")
        per_sample = series.seconds / sizes
        # Every sample costs the same work: one forward+backward pass.
        np.testing.assert_array_equal(per_sample, per_sample[0])
        assert per_sample[0] == float(rpi.make_resnet_lite(base_width=8, seed=1).num_params)
        assert series.fit_kind == "linear"
        assert series.fit_r2 == pytest.approx(1.0)

    def test_sc_training_cheaper_than_cifar(self, emu, training_work):
        cifar = emu.measure_training([40], task="cifar")
        sc = emu.measure_training([40], task="sc")
        assert sc.seconds[0] < cifar.seconds[0]

    def test_secagg_is_quadratic(self, emu, secagg_counter):
        secagg_counter("secagg_mask_expansions")
        sizes = np.array([2, 6, 12, 24])
        series = emu.measure_secagg(sizes, task="cifar")
        # Every client expands one mask per partner: s(s-1) per group.
        np.testing.assert_array_equal(series.seconds, sizes * (sizes - 1))
        assert series.fit_kind == "quadratic"
        assert series.fit_r2 == pytest.approx(1.0)

    def test_scaffold_secagg_costlier(self, emu, secagg_counter):
        secagg_counter("secagg_bytes_masked")
        plain = emu.measure_secagg([24], payload_factor=1)
        scaffold = emu.measure_secagg([24], payload_factor=2)
        # Model + control variate: exactly twice the bytes masked.
        assert plain.seconds[0] == 24 * 200 * 8
        assert scaffold.seconds[0] == 2 * plain.seconds[0]
        assert "SCAFFOLD" in scaffold.label

    def test_backdoor_series(self, emu):
        series = emu.measure_backdoor([2, 8, 16], task="sc")
        assert series.fit_kind == "quadratic"
        assert np.all(series.seconds >= 0)

    def test_unknown_task(self, emu):
        with pytest.raises(KeyError):
            emu.measure_training([5], task="mnist")

    def test_measurement_table_has_eight_curves(self, emu):
        table = emu.measurement_table(sizes=(2, 5, 10), tasks=("cifar", "sc"))
        labels = {m.label for m in table}
        assert len(table) == 8
        assert "cifar training" in labels
        assert "sc SCAFFOLD SecAgg" in labels

    def test_device_factor_scales_time(self, monkeypatch):
        ticks = iter(range(1_000))
        _stub_clock(monkeypatch, lambda: float(next(ticks)))  # each timing reads 1 s
        slow = RPiEmulator(model_dim=100, device_factor=10.0, repeats=1, seed=0)
        fast = RPiEmulator(model_dim=100, device_factor=1.0, repeats=1, seed=0)
        assert slow.measure_secagg([8]).seconds[0] == 10.0
        assert fast.measure_secagg([8]).seconds[0] == 1.0

    def test_as_rows(self, emu):
        series = emu.measure_backdoor([2, 4])
        rows = series.as_rows()
        assert len(rows) == 2
        assert {"label", "x", "seconds"} <= set(rows[0])


@pytest.mark.slow
class TestMeasuredShapes:
    """Fig. 8's shapes from real timings. Each point is the fastest of five
    sweeps over all sizes: load from elsewhere on the machine must slow the
    same size in every sweep to bend the fit."""

    SWEEPS = 5

    @pytest.fixture(scope="class")
    def timed(self):
        return RPiEmulator(model_dim=200, device_factor=1.0, repeats=1, seed=0)

    def test_training_time_fits_linear(self, timed):
        sizes = np.array([5, 20, 40, 80])
        sweeps = [timed.measure_training(sizes).seconds for _ in range(self.SWEEPS)]
        _, r2 = fit_linear(sizes, np.min(sweeps, axis=0))
        assert r2 > 0.9

    def test_secagg_time_fits_quadratic(self, timed):
        sizes = np.array([2, 6, 12, 24])
        sweeps = [timed.measure_secagg(sizes).seconds for _ in range(self.SWEEPS)]
        _, r2 = fit_quadratic(sizes, np.min(sweeps, axis=0))
        assert r2 > 0.9
