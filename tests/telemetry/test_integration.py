"""End-to-end telemetry: span hierarchy, metrics, and zero-impact guarantee."""

import numpy as np
import pytest

from repro.core import GroupFELTrainer, TelemetryCallback, TrainerConfig
from repro.grouping import CoVGrouping, group_clients_per_edge
from repro.nn import make_mlp
from repro.context import RunContext, activated
from repro.telemetry import Telemetry, load_jsonl


def make_trainer(small_fed, small_edges, telemetry=None, max_rounds=2, **cfg_kwargs):
    groups = group_clients_per_edge(
        CoVGrouping(3, 0.5), small_fed.L, small_edges, rng=0
    )
    cfg = TrainerConfig(group_rounds=1, local_rounds=1, num_sampled=2,
                        lr=0.08, max_rounds=max_rounds, seed=0, **cfg_kwargs)
    return GroupFELTrainer(
        lambda: make_mlp(192, 10, hidden=(16,), seed=3),
        small_fed, groups, cfg, telemetry=telemetry,
    )


def span_tree(tel):
    """{span -> [children]} plus name lookups for assertions."""
    spans = tel.tracer.spans()
    by_id = {s.span_id: s for s in spans}
    return spans, by_id


class TestSpanHierarchy:
    def test_round_group_client_nesting(self, small_fed, small_edges):
        tel = Telemetry(label="t")
        make_trainer(small_fed, small_edges, telemetry=tel, max_rounds=2).run()

        rounds = [s for s in tel.tracer.spans() if s.name == "round"]
        assert len(rounds) == 2
        assert [s.attrs["index"] for s in rounds] == [0, 1]
        assert all(s.parent_id is None for s in rounds)

        for round_span in rounds:
            names = [c.name for c in tel.tracer.children(round_span.span_id)]
            assert names[0] == "sample"
            assert names[-1] == "cloud_aggregate"
            groups = [
                c for c in tel.tracer.children(round_span.span_id)
                if c.name == "group"
            ]
            assert len(groups) == 2  # num_sampled
            for g in groups:
                children = tel.tracer.children(g.span_id)
                # plain path: client updates then one aggregate per k
                assert set(c.name for c in children) == {
                    "client_update", "aggregate",
                }
                assert sum(c.name == "aggregate" for c in children) == 1

    def test_children_durations_within_parent(self, small_fed, small_edges):
        tel = Telemetry()
        make_trainer(small_fed, small_edges, telemetry=tel).run()
        spans, by_id = span_tree(tel)
        for span in spans:
            parent = by_id.get(span.parent_id)
            if parent is None:
                continue
            assert span.t_start >= parent.t_start
            assert span.t_end <= parent.t_end
        # Same-thread children never overlap, so they must sum to <= parent.
        for parent in spans:
            kids = [
                s for s in tel.tracer.children(parent.span_id)
                if s.thread == parent.thread
            ]
            if kids:
                total = sum(k.duration for k in kids)
                assert total <= parent.duration + 1e-9

    def test_secagg_span_replaces_aggregate(self, small_fed, small_edges):
        tel = Telemetry()
        make_trainer(small_fed, small_edges, telemetry=tel,
                     use_secure_aggregation=True).run()
        names = {s.name for s in tel.tracer.spans()}
        assert "secagg" in names
        group_children = {
            c.name
            for s in tel.tracer.spans() if s.name == "group"
            for c in tel.tracer.children(s.span_id)
        }
        assert "aggregate" not in group_children
        assert tel.metrics.counters()["secagg_calls"] > 0

    def test_backdoor_span_present(self, small_fed, small_edges):
        tel = Telemetry()
        make_trainer(small_fed, small_edges, telemetry=tel,
                     use_backdoor_defense=True, max_rounds=1).run()
        backdoors = [s for s in tel.tracer.spans() if s.name == "backdoor"]
        assert backdoors
        assert all(s.attrs["clients"] > 1 for s in backdoors)
        assert tel.metrics.counters()["backdoor_detect_calls"] == len(backdoors)


class TestMetrics:
    def test_run_level_counters_and_gauges(self, small_fed, small_edges):
        tel = Telemetry()
        trainer = make_trainer(small_fed, small_edges, telemetry=tel, max_rounds=2)
        trainer.run()
        counters = tel.metrics.counters()
        assert counters["groups_sampled"] == 4.0          # 2 rounds × S=2
        assert counters["cloud_bytes_aggregated"] > 0
        assert counters["cloud_params_averaged"] > 0
        assert counters["client_updates"] > 0
        assert counters["local_steps"] > 0
        assert counters["samples_trained"] > 0
        assert counters["cost_total"] == pytest.approx(trainer.ledger.total)
        gauges = tel.metrics.gauges()
        assert np.isfinite(gauges["gamma_p"])
        hist = tel.metrics.histograms()
        assert hist["round_cost"].count == 2
        assert hist["sampled_group_prob"].count == 4
        probs = hist["sampled_group_prob"].values()
        assert all(0.0 < p <= 1.0 for p in probs)


class TestZeroImpact:
    def test_disabled_run_bit_identical(self, small_fed, small_edges):
        """Instrumentation must not perturb RNG draws or float ordering."""
        plain = make_trainer(small_fed, small_edges, telemetry=None)
        plain.run()
        tel = Telemetry()
        traced = make_trainer(small_fed, small_edges, telemetry=tel)
        traced.run()
        assert np.array_equal(plain.global_params, traced.global_params)
        assert plain.history.test_acc == traced.history.test_acc

    def test_enabled_run_deterministic(self, small_fed, small_edges):
        a = make_trainer(small_fed, small_edges, telemetry=Telemetry())
        b = make_trainer(small_fed, small_edges, telemetry=Telemetry())
        a.run()
        b.run()
        assert np.array_equal(a.global_params, b.global_params)


class TestAmbientPickup:
    def test_trainer_resolves_ambient(self, small_fed, small_edges):
        tel = Telemetry()
        with activated(RunContext(telemetry=tel)):
            trainer = make_trainer(small_fed, small_edges, max_rounds=1)
        assert trainer.telemetry is tel
        trainer.run()
        assert any(s.name == "round" for s in tel.tracer.spans())

    def test_without_activation_trainer_is_silent(self, small_fed, small_edges):
        trainer = make_trainer(small_fed, small_edges, max_rounds=1)
        assert not trainer.telemetry.enabled


class TestTelemetryCallback:
    def test_lifecycle_events_and_exports(self, small_fed, small_edges, tmp_path):
        tel = Telemetry(label="cb")
        jsonl = str(tmp_path / "run.jsonl")
        summaries = []
        cb = TelemetryCallback(jsonl_path=jsonl, summary_printer=summaries.append)
        trainer = make_trainer(small_fed, small_edges, telemetry=tel, max_rounds=2)
        trainer.callbacks.append(cb)
        trainer.run()

        names = [e.name for e in tel.events.events()]
        assert names == ["train_start", "round_end", "round_end", "train_end"]
        start = tel.events.events()[0]
        assert start.fields["num_clients"] == small_fed.num_clients
        round_end = tel.events.events()[1]
        assert "accuracy" in round_end.fields and "cost" in round_end.fields
        assert tel.metrics.gauges()["rounds_completed"] == 2.0

        records = load_jsonl(jsonl)
        assert {"meta", "span", "counter", "event"} <= set(records)
        assert summaries and "Spans — cb" in summaries[0]

    def test_noop_with_disabled_telemetry(self, small_fed, small_edges):
        trainer = make_trainer(small_fed, small_edges, max_rounds=1)
        trainer.callbacks.append(TelemetryCallback())
        trainer.run()  # must not raise (exports skipped, events dropped)
