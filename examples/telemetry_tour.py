"""Telemetry tour: trace, measure, and profile a Group-FEL run.

Trains a small federation twice. The first run passes a ``Telemetry``
facade straight to the trainer and inspects the span tree (``round >
group > client_update / secagg``), the run counters (bytes aggregated,
Γ_p, per-round cost), and the exports (JSONL / CSV / Prometheus text).
The second run shows the run-context style —
``with activated(RunContext(telemetry=tel)):`` — that the CLI's
``--telemetry`` flag uses to reach trainers buried inside figure
generators.

    python examples/telemetry_tour.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    CoVGrouping,
    FederatedDataset,
    GroupFELTrainer,
    RunContext,
    SyntheticImage,
    TelemetryCallback,
    Telemetry,
    TrainerConfig,
    group_clients_per_edge,
    make_mlp,
    paper_cost_model,
)
from repro.context import activated
from repro.telemetry import load_jsonl, parse_prometheus

NUM_CLIENTS = 24
NUM_EDGES = 2


def build_trainer(fed, groups, telemetry=None, callbacks=None):
    in_features = int(np.prod(fed.clients[0].x.shape[1:]))
    return GroupFELTrainer(
        model_fn=lambda: make_mlp(in_features, 10, hidden=(32,), seed=7),
        fed=fed,
        groups=groups,
        config=TrainerConfig(
            group_rounds=2, local_rounds=1, num_sampled=3,
            lr=0.08, momentum=0.9, sampling_method="esrcov",
            use_secure_aggregation=True,  # real masked aggregation => secagg spans
            max_rounds=4, seed=0,
        ),
        cost_model=paper_cost_model("cifar", "secagg"),
        telemetry=telemetry,
        callbacks=callbacks,
    )


def main() -> None:
    # Setup: small non-IID federation, CoV groups at two edges.
    data = SyntheticImage(noise_std=4.0, seed=0)
    train, test = data.train_test(n_train=4_000, n_test=500)
    fed = FederatedDataset.from_dataset(
        train, test, num_clients=NUM_CLIENTS, alpha=0.1,
        size_low=20, size_high=60, rng=42,
    )
    per_edge = NUM_CLIENTS // NUM_EDGES
    edges = [np.arange(j * per_edge, (j + 1) * per_edge) for j in range(NUM_EDGES)]
    groups = group_clients_per_edge(CoVGrouping(3, 0.5), fed.L, edges, rng=1)

    # ---- 1. Explicit style: hand the facade to the trainer. ----------------
    tel = Telemetry(label="tour")
    trainer = build_trainer(fed, groups, telemetry=tel)
    trainer.run()

    print("=== span tree (round 0) ===")
    round0 = next(s for s in tel.tracer.spans() if s.name == "round")
    for child in tel.tracer.children(round0.span_id):
        print(f"  {child.name:16s} {child.duration * 1e3:8.2f} ms  {child.attrs}")
        for grandchild in tel.tracer.children(child.span_id)[:3]:
            print(f"      {grandchild.name:14s} {grandchild.duration * 1e3:6.2f} ms")

    print("\n=== where the wall-clock went ===")
    for name, (count, total) in sorted(
        tel.tracer.totals_by_name().items(), key=lambda kv: -kv[1][1]
    ):
        print(f"  {name:16s} x{count:<4d} {total * 1e3:9.2f} ms")

    print("\n=== run counters ===")
    for name, value in sorted(tel.metrics.counters().items()):
        print(f"  {name:28s} {value:14.0f}")
    print(f"  gamma_p (gauge)              {tel.metrics.gauges()['gamma_p']:14.3f}")
    cost = tel.metrics.histograms()["round_cost"]
    print(f"  round_cost (histogram)       mean {cost.mean:.0f}  "
          f"p100 {cost.percentile(100):.0f}")

    # ---- 2. Exports: JSONL (lossless), CSV, Prometheus text. ---------------
    with tempfile.TemporaryDirectory() as tmp:
        jsonl = Path(tmp) / "trace.jsonl"
        n = tel.to_jsonl(str(jsonl))
        records = load_jsonl(str(jsonl))
        print(f"\nJSONL: {n} records "
              f"({len(records['span'])} spans, {len(records['counter'])} counters)")
        prom = tel.to_prometheus()
        sampled = parse_prometheus(prom)["repro_groups_sampled"]
        print(f"Prometheus: repro_groups_sampled = {sampled:.0f}")

    # ---- 3. Run-context style + callback-driven summary. ------------------
    # `activated` installs the context process-wide; any trainer built
    # inside picks its telemetry up — this is what the CLI's --telemetry
    # flag does.
    ambient = Telemetry(label="ambient")
    with activated(RunContext(telemetry=ambient)):
        trainer = build_trainer(
            fed, groups,
            callbacks=[TelemetryCallback(summary_printer=None)],
        )
        trainer.run()
    events = [e.name for e in ambient.events.events()]
    print(f"\nambient run lifecycle events: {events}")
    print("\n" + ambient.summary())


if __name__ == "__main__":
    main()
