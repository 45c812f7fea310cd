"""Telemetry cost contract: free when off.

**Disabled overhead < 3%** — when no telemetry is activated, every
instrumentation point in the training stack degenerates to a no-op
method on ``NULL_TELEMETRY``. Timing a generous multiple of the no-op
calls an instrumented run would make shows the total is a vanishing
fraction of real training time.
"""

import time

import numpy as np

from _util import run_once
from repro.core import GroupFELTrainer, TrainerConfig
from repro.data import FederatedDataset, SyntheticImage
from repro.grouping import CoVGrouping, group_clients_per_edge
from repro.nn import make_mlp
from repro.telemetry import NULL_TELEMETRY, Telemetry


def _make_fed(num_clients=16, n_train=2_000, rng=7):
    data = SyntheticImage(noise_std=2.0, seed=0)
    train, test = data.train_test(n_train, 200)
    return FederatedDataset.from_dataset(
        train, test, num_clients=num_clients, alpha=0.3,
        size_low=30, size_high=80, rng=rng,
    )


def _make_trainer(fed, telemetry=None, max_rounds=4):
    edges = [np.arange(fed.num_clients)]
    groups = group_clients_per_edge(CoVGrouping(3, 0.5), fed.L, edges, rng=0)
    cfg = TrainerConfig(group_rounds=2, local_rounds=2, num_sampled=3,
                        lr=0.08, max_rounds=max_rounds, seed=0)
    return GroupFELTrainer(
        lambda: make_mlp(192, 10, hidden=(64,), seed=3),
        fed, groups, cfg, telemetry=telemetry,
    )


def test_disabled_overhead_under_3_percent(benchmark):
    fed = _make_fed(n_train=4_000)

    def timed_disabled_run():
        best = np.inf
        for _ in range(3):
            trainer = _make_trainer(fed, telemetry=None)
            t0 = time.perf_counter()
            trainer.run()
            best = min(best, time.perf_counter() - t0)
        return best

    train_s = run_once(benchmark, timed_disabled_run)

    # How many instrumentation touches would that run have made? Count the
    # spans an enabled twin records and overprovision 10x to cover the
    # metric increments, gauge sets, and `tel.enabled` gates around them.
    tel = Telemetry()
    _make_trainer(fed, telemetry=tel).run()
    noop_calls = 10 * len(tel.tracer) + 1_000

    t0 = time.perf_counter()
    for _ in range(noop_calls):
        with NULL_TELEMETRY.span("x", k=1):
            pass
        NULL_TELEMETRY.inc("x", 1.0)
    noop_s = time.perf_counter() - t0

    overhead = noop_s / train_s
    print(f"\ndisabled-telemetry overhead: {noop_calls} no-op touches = "
          f"{noop_s * 1e3:.2f} ms vs {train_s * 1e3:.0f} ms training "
          f"({overhead:.2%})")
    assert overhead < 0.03
