"""PopulationModel: spec parsing, decision purity, trace signatures."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.context import RunContext, activated, current
from repro.population import (
    Arrivals,
    Departures,
    FeatureCorruption,
    InitialActive,
    LabelDrift,
    PopulationEvent,
    PopulationModel,
    PopulationTrace,
)


class TestSpecParsing:
    def test_full_spec_round_trips(self):
        model = PopulationModel.from_spec(
            "start:0.7,join:1.5,leave:0.02,drift:0.1:0.3:0.9@corr", seed=3
        )
        assert model.seed == 3
        assert model.dynamics == [
            InitialActive(frac=0.7),
            Arrivals(rate=1.5),
            Departures(prob=0.02),
            LabelDrift(prob=0.1, fraction=0.3, rho=0.9, mode="corr"),
        ]
        assert model.has_churn and model.has_drift and bool(model)

    def test_drift_defaults(self):
        model = PopulationModel.from_spec("drift:0.2")
        (dyn,) = model.dynamics
        assert dyn == LabelDrift(prob=0.2, fraction=0.5, rho=0.8, mode="step")

    def test_corrupt_spec_round_trips(self):
        model = PopulationModel.from_spec("corrupt:0.5:4:2@ramp", seed=3)
        assert model.dynamics == [
            FeatureCorruption(prob=0.5, severities=4, period=2, mode="ramp")
        ]
        assert model.has_corruption and not model.has_drift

    def test_corrupt_defaults(self):
        (dyn,) = PopulationModel.from_spec("corrupt:1.0").dynamics
        assert dyn == FeatureCorruption(prob=1.0, severities=5, period=5,
                                        mode="cycle")

    def test_mode_suffix_selects_drift_mode(self):
        for mode in ("step", "linear", "corr"):
            model = PopulationModel.from_spec(f"drift:0.1@{mode}")
            assert model.dynamics[0].mode == mode

    @pytest.mark.parametrize(
        "spec",
        [
            "start:0",  # out of (0, 1]
            "start:1.5",
            "leave:1.0",  # [0, 1)
            "join:-1",
            "drift:0.1@weird",  # unknown mode
            "leave:0.1@step",  # only drift takes a mode
            "walk:0.1",  # unknown kind
            "leave",  # missing value
            "leave:abc",  # non-numeric value
            "",  # no dynamics at all
            "drift:0.1:0",  # fraction out of (0, 1]
            "corrupt:1.5",  # prob out of [0, 1]
            "corrupt:0.5:0",  # severities must be >= 1
            "corrupt:0.5:3:0",  # period must be >= 1
            "corrupt:0.5@weird",  # unknown corruption mode
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            PopulationModel.from_spec(spec)

    def test_repr_is_stable_for_fingerprinting(self):
        a = PopulationModel.from_spec("join:1.0,leave:0.1", seed=5)
        b = PopulationModel.from_spec("join:1.0,leave:0.1", seed=5)
        c = PopulationModel.from_spec("join:1.0,leave:0.2", seed=5)
        assert repr(a) == repr(b)
        assert repr(a) != repr(c)


class TestDecisionPurity:
    """Decisions depend on the site, never on query order or history."""

    def test_departures_independent_of_query_order(self):
        model = PopulationModel.from_spec("leave:0.3", seed=9)
        forward = {(t, c): model.departs(t, c) for t in range(6) for c in range(10)}
        fresh = PopulationModel.from_spec("leave:0.3", seed=9)
        backward = {
            (t, c): fresh.departs(t, c)
            for t in reversed(range(6))
            for c in reversed(range(10))
        }
        assert forward == backward
        assert any(forward.values()) and not all(forward.values())

    def test_arrivals_reproducible(self):
        model = PopulationModel.from_spec("join:2.0", seed=9)
        again = PopulationModel.from_spec("join:2.0", seed=9)
        assert [model.arrivals(t) for t in range(20)] == [
            again.arrivals(t) for t in range(20)
        ]

    def test_initial_active_seeded_and_never_empty(self):
        model = PopulationModel.from_spec("start:0.01", seed=0)
        mask = model.initial_active(50)
        assert mask.dtype == bool and mask.shape == (50,)
        assert mask.sum() >= 1  # argmin flip: at least one active
        assert np.array_equal(mask, model.initial_active(50))
        # No start term ⇒ everyone active.
        assert PopulationModel.from_spec("leave:0.1").initial_active(5).all()

    def test_drift_sample_pure_in_site(self):
        model = PopulationModel.from_spec("drift:1.0:0.4", seed=4)
        (idx, dyn) = model.drift_decisions(3, 7)[0]
        a = model.drift_sample(idx, dyn, 3, 7, 40, 10)
        b = model.drift_sample(idx, dyn, 3, 7, 40, 10)
        assert a[0] == b[0] and a[1] == b[1]
        assert np.array_equal(a[2], b[2])
        assert 0 < a[0] <= 40 and 1 <= a[1] < 10
        assert len(set(a[2].tolist())) == a[0]  # no replacement

    def test_corr_chain_identical_after_pickle(self):
        model = PopulationModel.from_spec("drift:0.3:0.5:0.9@corr", seed=2)
        states = [bool(model.drift_decisions(t, 1)) for t in range(30)]
        clone = pickle.loads(pickle.dumps(model))
        assert clone._corr_cache == {}  # memo dropped on pickle
        assert [bool(clone.drift_decisions(t, 1)) for t in range(30)] == states
        # Episodes persist: once inside, stretches of consecutive rounds.
        assert any(states)

    def test_linear_drift_fires_every_round(self):
        model = PopulationModel.from_spec("drift:0.05@linear", seed=0)
        assert all(model.drift_decisions(t, 0) for t in range(5))

    def test_corruption_severity_cycles(self):
        model = PopulationModel.from_spec("corrupt:1.0:3:2", seed=1)
        (idx, dyn) = model.corruption_decisions(0, 4)[0]
        stream = [model.corruption_severity(idx, dyn, t, 4) for t in range(12)]
        assert all(1 <= s <= 3 for s in stream)
        assert set(stream) == {1, 2, 3}  # wraps through every level
        # period=2 ⇒ each severity holds for runs of length <= 2.
        assert stream[:6] == [model.corruption_severity(idx, dyn, t, 4)
                              for t in range(6)]  # pure in the site

    def test_corruption_severity_ramp_saturates(self):
        model = PopulationModel.from_spec("corrupt:1.0:3:2@ramp", seed=1)
        (idx, dyn) = model.corruption_decisions(0, 0)[0]
        stream = [model.corruption_severity(idx, dyn, t, 0) for t in range(20)]
        assert stream == sorted(stream)  # monotone degradation
        assert stream[-1] == 3  # saturates at `severities`

    def test_corruption_phase_staggers_clients(self):
        model = PopulationModel.from_spec("corrupt:1.0:4:3", seed=7)
        (idx, dyn) = model.corruption_decisions(0, 0)[0]
        at_round0 = {model.corruption_severity(idx, dyn, 0, c)
                     for c in range(30)}
        assert len(at_round0) > 1  # clients sit at different severities

    def test_corruption_noise_pure_in_site(self):
        model = PopulationModel.from_spec("corrupt:1.0", seed=2)
        (idx, dyn) = model.corruption_decisions(3, 5)[0]
        a = model.corruption_noise(idx, dyn, 3, 5, severity=2, shape=(4, 6))
        b = model.corruption_noise(idx, dyn, 3, 5, severity=2, shape=(4, 6))
        assert np.array_equal(a, b)
        assert a.shape == (4, 6)
        # Severity scales the noise level.
        hard = model.corruption_noise(idx, dyn, 3, 5, severity=4, shape=(4, 6))
        assert hard.std() > a.std()


class TestTrace:
    def test_signature_independent_of_recording_order(self):
        events = [
            PopulationEvent("join", 1, client_id=3, group_id=0),
            PopulationEvent("leave", 1, client_id=5, group_id=1),
            PopulationEvent("drift", 2, client_id=3, index=0, mode="step",
                            samples=4, offset=2),
        ]
        a, b = PopulationTrace(), PopulationTrace()
        a.extend(events)
        b.extend(list(reversed(events)))
        assert a.signature() == b.signature()
        assert a.counts() == {"join": 1, "leave": 1, "drift": 1}
        assert len(a) == 3

    def test_signature_sensitive_to_content(self):
        a, b = PopulationTrace(), PopulationTrace()
        a.record(PopulationEvent("join", 1, client_id=3))
        b.record(PopulationEvent("join", 1, client_id=4))
        assert a.signature() != b.signature()

    def test_trace_pickles_without_lock(self):
        t = PopulationTrace()
        t.record(PopulationEvent("leave", 0, client_id=1))
        clone = pickle.loads(pickle.dumps(t))
        assert clone.events == t.events
        clone.record(PopulationEvent("join", 1, client_id=2))  # lock rebuilt


class TestAmbientActivation:
    def test_population_activated_scopes_the_model(self):
        assert current().population is None
        model = PopulationModel.from_spec("leave:0.1")
        with activated(RunContext(population=model)) as active:
            assert active.population is model
            assert current().population is model
        assert current().population is None
