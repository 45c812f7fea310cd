"""FaultPlan: spec parsing, pure decisions, determinism, composability."""

from __future__ import annotations

import pickle

import pytest

from repro.context import RunContext, activated, current
from repro.faults import (
    ClientDropout,
    FaultPlan,
    GroupFailure,
    MessageLoss,
    RetryPolicy,
    Straggler,
)


class TestSpecParsing:
    def test_every_kind(self):
        plan = FaultPlan.from_spec(
            "dropout:0.2,straggler:0.3:2.5,loss:0.15,groupfail:0.05", seed=7
        )
        assert plan.seed == 7
        kinds = [inj.kind for inj in plan.injectors]
        assert kinds == ["dropout", "straggler", "message_loss", "group_failure"]
        assert plan.injectors[0] == ClientDropout(prob=0.2, phase="after")
        assert plan.injectors[1] == Straggler(prob=0.3, delay_s=2.5)
        assert plan.injectors[2] == MessageLoss(prob=0.15)
        assert plan.injectors[3] == GroupFailure(prob=0.05)

    def test_dropout_phase_suffix(self):
        plan = FaultPlan.from_spec("dropout:0.1@mid")
        assert plan.injectors[0].phase == "mid"

    def test_loss_retry_param_and_aliases(self):
        plan = FaultPlan.from_spec("msgloss:0.1:5,group:0.2")
        assert plan.injectors[0] == MessageLoss(prob=0.1, retry=RetryPolicy(max_retries=5))
        assert plan.injectors[1].kind == "group_failure"

    def test_whitespace_and_empty_terms_tolerated(self):
        plan = FaultPlan.from_spec(" dropout:0.2 , ,straggler:0.1 ")
        assert len(plan.injectors) == 2

    @pytest.mark.parametrize(
        "spec, match",
        [
            ("dropout", "probability"),
            ("dropout:high", "bad probability"),
            ("powercut:0.2", "unknown fault kind"),
            ("", "no injectors"),
            ("dropout:0.2@during", "phase"),
        ],
    )
    def test_bad_specs(self, spec, match):
        with pytest.raises(ValueError, match=match):
            FaultPlan.from_spec(spec)

    def test_rejects_non_injector(self):
        with pytest.raises(TypeError, match="not an Injector"):
            FaultPlan(seed=0, injectors=["dropout"])


class TestInspection:
    def test_of_kind_and_flags(self):
        plan = FaultPlan.from_spec("dropout:0.2,dropout:0.1@before,loss:0.1")
        assert len(plan.of_kind("dropout")) == 2
        assert plan.has_dropout and plan.has_message_loss
        assert not FaultPlan(seed=0).has_dropout

    def test_truthiness(self):
        assert not FaultPlan(seed=3)
        assert FaultPlan.from_spec("dropout:0.2")


class TestPureDecisions:
    """Decisions depend only on (seed, kind, injector, site) — never on
    call order. This is what makes replay backend-independent."""

    def test_same_site_same_answer(self):
        plan = FaultPlan.from_spec("dropout:0.5,straggler:0.5,loss:0.5", seed=1)
        a = [plan.client_dropout(3, 1, 0, c) for c in range(50)]
        # Interleave unrelated queries, then ask again in reverse order.
        [plan.straggler_delay(9, 9, 1, c) for c in range(50)]
        b = [plan.client_dropout(3, 1, 0, c) for c in reversed(range(50))]
        assert a == list(reversed(b))

    def test_identical_plans_agree(self):
        p1 = FaultPlan.from_spec("dropout:0.3,loss:0.2", seed=42)
        p2 = FaultPlan.from_spec("dropout:0.3,loss:0.2", seed=42)
        for c in range(100):
            assert p1.client_dropout(0, 0, 0, c) == p2.client_dropout(0, 0, 0, c)
            u1, u2 = p1.uplink(0, 0, 0, c), p2.uplink(0, 0, 0, c)
            assert (u1.delivered, u1.retries, u1.delay_s) == (
                u2.delivered, u2.retries, u2.delay_s)

    def test_different_seeds_differ(self):
        p1 = FaultPlan.from_spec("dropout:0.5", seed=0)
        p2 = FaultPlan.from_spec("dropout:0.5", seed=1)
        d1 = [p1.client_dropout(0, 0, 0, c) for c in range(200)]
        d2 = [p2.client_dropout(0, 0, 0, c) for c in range(200)]
        assert d1 != d2

    def test_composability(self):
        """Adding an injector must not reshuffle other kinds' schedules."""
        alone = FaultPlan(seed=5, injectors=[ClientDropout(prob=0.4)])
        stacked = FaultPlan(
            seed=5,
            injectors=[ClientDropout(prob=0.4), Straggler(prob=0.9),
                       MessageLoss(prob=0.5), GroupFailure(prob=0.3)],
        )
        for c in range(100):
            assert alone.client_dropout(2, 1, 0, c) == stacked.client_dropout(2, 1, 0, c)

    def test_earliest_phase_wins(self):
        plan = FaultPlan(
            seed=0,
            injectors=[ClientDropout(prob=1.0, phase="after"),
                       ClientDropout(prob=1.0, phase="before")],
        )
        assert plan.client_dropout(0, 0, 0, 0) == "before"

    def test_round_window_gates_decisions(self):
        plan = FaultPlan(
            seed=0, injectors=[ClientDropout(prob=1.0, start_round=5, end_round=7)]
        )
        assert plan.client_dropout(4, 0, 0, 0) is None
        assert plan.client_dropout(5, 0, 0, 0) == "after"
        assert plan.client_dropout(7, 0, 0, 0) is None

    def test_dropout_rate_is_statistical(self):
        plan = FaultPlan(seed=9, injectors=[ClientDropout(prob=0.25)])
        hits = sum(
            plan.client_dropout(r, 0, 0, c) is not None
            for r in range(40) for c in range(50)
        )
        assert 0.20 < hits / 2000 < 0.30


class TestUplink:
    def test_lossless_uplink(self):
        plan = FaultPlan(seed=0, injectors=[MessageLoss(prob=0.0)])
        out = plan.uplink(0, 0, 0, 0)
        assert out.delivered and out.retries == 0 and out.delay_s == 0.0

    def test_total_loss_exhausts_retries(self):
        rp = RetryPolicy(max_retries=3, timeout_s=0.5, backoff=2.0)
        plan = FaultPlan(seed=0, injectors=[MessageLoss(prob=1.0, retry=rp)])
        out = plan.uplink(0, 0, 0, 0)
        assert not out.delivered
        assert out.retries == 3
        # All four attempts timed out: 0.5 + 1 + 2 + 4.
        assert out.delay_s == pytest.approx(7.5)

    def test_partial_loss_retries_then_delivers(self):
        plan = FaultPlan(seed=3, injectors=[MessageLoss(prob=0.5)])
        outs = [plan.uplink(0, 0, 0, c) for c in range(300)]
        delivered = [o for o in outs if o.delivered]
        retried = [o for o in delivered if o.retries > 0]
        assert retried, "some deliveries should have needed a retry"
        assert all(o.delay_s > 0 for o in retried)


class TestGroupFailure:
    def test_certain_failure_and_certain_survival(self):
        fail = FaultPlan(seed=0, injectors=[GroupFailure(prob=1.0)])
        live = FaultPlan(seed=0, injectors=[GroupFailure(prob=0.0)])
        for g in range(20):
            assert fail.group_failed(0, g)
            assert not live.group_failed(0, g)

    def test_draw_is_margin(self):
        plan = FaultPlan(seed=1, injectors=[GroupFailure(prob=0.3)])
        for g in range(50):
            assert plan.group_failed(0, g) == (plan.group_failure_draw(0, g) < 0)


class TestAmbientActivation:
    def test_context_manager_restores(self):
        assert current().faults is None
        plan = FaultPlan.from_spec("dropout:0.2")
        with activated(RunContext(faults=plan)) as active:
            assert active.faults is plan
            assert current().faults is plan
        assert current().faults is None

    def test_nesting(self):
        outer, inner = FaultPlan.from_spec("dropout:0.1"), FaultPlan.from_spec("loss:0.1")
        with activated(RunContext(faults=outer)):
            with activated(RunContext(faults=inner)):
                assert current().faults is inner
            assert current().faults is outer


def test_plan_pickles():
    plan = FaultPlan.from_spec("dropout:0.2,straggler:0.3:2.0,loss:0.1,groupfail:0.05", seed=11)
    clone = pickle.loads(pickle.dumps(plan))
    assert clone.seed == plan.seed
    assert clone.injectors == plan.injectors
    for c in range(20):
        assert clone.client_dropout(0, 0, 0, c) == plan.client_dropout(0, 0, 0, c)
