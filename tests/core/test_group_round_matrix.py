"""Golden matrix for one group session (``run_group_round``).

Each cell runs a 3-round session of a 6-client group and pins two digests:
the sha256 of the returned params and the sha256 of the fault events it
appended, as ``(kind, client_id, k, phase, retries)`` tuples in append
order. The five axes are

* engine: ``batched`` / ``reference``;
* group operations: ``plain`` / ``secagg`` / ``secagg+backdoor`` (split
  criterion, client 3 runs a ``ScalingAttack``); with SecAgg on, the
  session also gets ``DropoutTolerantAggregator(2)``;
* fault plan: none or one of :data:`FAULTS`;
* ``dropout_prob``: 0 / 0.3;
* compressor: none / ``ErrorFeedback(TopKCompressor)``.

:data:`CELLS` covers every pair of axis values (``test_cells_cover_pairs``).
To re-record after an intended behaviour change, run this file as a script
and paste its output over :data:`CELLS`.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from repro.attacks import ScalingAttack
from repro.compression import ErrorFeedback, TopKCompressor
from repro.core import run_group_round
from repro.data import FederatedDataset, SyntheticImage
from repro.faults import FaultPlan
from repro.faults.plan import UplinkOutcome
from repro.grouping import Group
from repro.nn import SGD, make_mlp
from repro.secure import BackdoorDetector, DropoutTolerantAggregator, SecureAggregator
from repro.secure.backdoor import DefenseReport

ENGINES = ("batched", "reference")
OPS = ("plain", "secagg", "secagg+backdoor")
FAULTS = (
    None,
    "dropout:0.4@before",
    "dropout:0.4@mid",
    "dropout:0.4@after",
    "straggler:0.3,loss:0.5:1",
)
DROPOUT_PROBS = (0.0, 0.3)
COMPRESSORS = (None, "ef-topk")
AXES = (ENGINES, OPS, FAULTS, DROPOUT_PROBS, COMPRESSORS)

ATTACKER = 3
MEMBERS = np.arange(6)

#: (engine, ops, faults, dropout_prob, compressor) -> (params, events)
#: digests, first 16 hex digits of each sha256.
CELLS = {
    ("reference", "plain", None, 0.3, None): ("212bbaffb76e6114", "4f53cda18c2baa0c"),
    ("reference", "secagg", None, 0.0, "ef-topk"): ("96c82ae969e4a6cf", "4f53cda18c2baa0c"),
    ("batched", "secagg+backdoor", None, 0.0, "ef-topk"): ("9e9a5cca87fc8918", "4f53cda18c2baa0c"),
    ("batched", "plain", "dropout:0.4@before", 0.0, None): ("ac1cadb2786af7a7", "40e24edc2ee64801"),
    ("batched", "secagg", "dropout:0.4@before", 0.3, "ef-topk"): ("8fdcd14b211bc1ee", "852fbdf1624ea793"),
    ("reference", "secagg+backdoor", "dropout:0.4@before", 0.0, "ef-topk"): ("a9e36a3355e1c35d", "40e24edc2ee64801"),
    ("reference", "plain", "dropout:0.4@mid", 0.3, "ef-topk"): ("2c28c33a9c7c7dc6", "3de97f39e837e5f7"),
    ("batched", "secagg", "dropout:0.4@mid", 0.0, "ef-topk"): ("bd004ad272e9231e", "3de97f39e837e5f7"),
    ("reference", "secagg+backdoor", "dropout:0.4@mid", 0.0, None): ("7771105bbed094ef", "3de97f39e837e5f7"),
    ("batched", "plain", "dropout:0.4@after", 0.3, "ef-topk"): ("92493880e7c40074", "1813e693a834c262"),
    ("reference", "secagg", "dropout:0.4@after", 0.3, None): ("f9db1d9c1f6693c7", "25f1da302dc9e799"),
    ("reference", "secagg+backdoor", "dropout:0.4@after", 0.0, None): ("7771105bbed094ef", "25f1da302dc9e799"),
    ("reference", "plain", "straggler:0.3,loss:0.5:1", 0.0, None): ("5b8843d56ddc5ad9", "a2fe965a7355d49e"),
    ("reference", "secagg", "straggler:0.3,loss:0.5:1", 0.3, "ef-topk"): ("ea9c3f1f399cfbf0", "797bd41689ce9a73"),
    ("batched", "secagg+backdoor", "straggler:0.3,loss:0.5:1", 0.3, None): ("a46fe39f5c76a1ff", "797bd41689ce9a73"),
}


def _digest(obj) -> str:
    data = obj.tobytes() if isinstance(obj, np.ndarray) else repr(obj).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _federation() -> FederatedDataset:
    train, test = SyntheticImage(noise_std=2.0, seed=0).train_test(600, 50)
    return FederatedDataset.from_dataset(
        train, test, num_clients=len(MEMBERS), alpha=0.3, size_low=20,
        size_high=40, rng=1,
    )


def run_cell(fed: FederatedDataset, engine, ops, faults, dropout_prob, compressor):
    """One 3-round session of the cell; returns (params, events) digests."""
    model = make_mlp(192, 10, hidden=(8,), seed=2)
    kwargs = {}
    if ops != "plain":
        kwargs["secure_aggregator"] = SecureAggregator()
        kwargs["dropout_aggregator"] = DropoutTolerantAggregator(2)
    if ops == "secagg+backdoor":
        kwargs["backdoor_detector"] = BackdoorDetector(criterion="split")
        kwargs["update_transforms"] = {ATTACKER: ScalingAttack(10.0)}
    if faults is not None:
        kwargs["fault_plan"] = FaultPlan.from_spec(faults, seed=5)
    if compressor is not None:
        kwargs["compressor"] = ErrorFeedback(TopKCompressor(0.2), model.num_params)
    events: list = []
    params = run_group_round(
        model, SGD(model, lr=0.05), Group(0, 0, MEMBERS, fed.L[MEMBERS].sum(axis=0)),
        fed.clients, model.get_params(), group_rounds=3, local_rounds=1,
        batch_size=16, rng=11, round_id=2, dropout_prob=dropout_prob,
        fault_events=events, engine=engine, **kwargs,
    )
    trace = [(e.kind, e.client_id, e.k, e.phase, e.retries) for e in events]
    return _digest(params), _digest(trace)


@pytest.fixture(scope="module")
def fed():
    return _federation()


@pytest.mark.parametrize("cell", list(CELLS), ids=lambda c: "-".join(map(str, c)))
def test_cell_matches_golden(fed, cell):
    assert run_cell(fed, *cell) == CELLS[cell]


def test_cells_cover_pairs():
    missing = []
    for a, b in itertools.combinations(range(len(AXES)), 2):
        seen = {(cell[a], cell[b]) for cell in CELLS}
        missing += [p for p in itertools.product(AXES[a], AXES[b]) if p not in seen]
    assert not missing


class _FlagOnCall:
    """Detector stub: on its ``n``-th call flags the rows ``flags[n]``;
    never clips, so the aggregate is the plain weighted sum."""

    def __init__(self, flags: dict[int, list[int]]):
        self.flags = flags
        self.calls = 0

    def detect(self, updates, rng=None):
        flagged = self.flags.get(self.calls, [])
        self.calls += 1
        admitted = np.array([i for i in range(updates.shape[0]) if i not in flagged])
        return DefenseReport(
            admitted=admitted, flagged=np.array(flagged, dtype=np.int64),
            clip_norm=0.0, filtered=updates[admitted],
        )


class _DropAfterAt:
    """Fault-plan stub: client ``client_id`` drops ``after`` in group round
    ``k``; nothing else fails."""

    def __init__(self, client_id: int, k: int):
        self.client_id, self.k = client_id, k

    def client_dropout(self, round_idx, group_id, k, client_id):
        return "after" if (k, client_id) == (self.k, self.client_id) else None

    def straggler_delay(self, round_idx, group_id, k, client_id):
        return 0.0

    def uplink(self, round_idx, group_id, k, client_id):
        return UplinkOutcome(True, 0, 0.0)


class _Poison:
    """Attack stub: the upload is a constant far outside any honest update."""

    def transform_update(self, update, rng=None):
        return np.full_like(update, 100.0)


class TestSecAggRecovery:
    def _session(self, fed, members, **kwargs):
        model = make_mlp(192, 10, hidden=(8,), seed=2)
        events: list = []
        start = model.get_params()
        out = run_group_round(
            model, SGD(model, lr=0.05),
            Group(0, 0, members, fed.L[members].sum(axis=0)), fed.clients, start,
            local_rounds=1, batch_size=16, rng=11,
            secure_aggregator=SecureAggregator(),
            dropout_aggregator=DropoutTolerantAggregator(2),
            fault_events=events, **kwargs,
        )
        return start, out, events

    def test_recovery_round_keeps_ban_and_detector(self, fed):
        """An attacker flagged at k=0 stays out of a k=1 recovery round."""
        detector = _FlagOnCall({0: [ATTACKER]})
        start, out, events = self._session(
            fed, MEMBERS, group_rounds=2, backdoor_detector=detector,
            update_transforms={ATTACKER: _Poison()},
            fault_plan=_DropAfterAt(client_id=0, k=1),
        )
        # Honest updates move a parameter by well under 1; one poisoned
        # update at weight ~1/5 would move every parameter by ~20.
        assert np.abs(out - start).max() < 1.0
        assert [e.kind for e in events] == ["dropout", "secagg_recovery"]
        assert detector.calls == 2

    def test_flagged_uploader_still_holds_shares(self, fed):
        """Client 0 drops after masking and the detector flags client 2:
        one admitted client is below the Shamir threshold of 2, but the
        flagged uploader stays in the session as a zero-input shareholder."""
        start, out, events = self._session(
            fed, MEMBERS[:3], group_rounds=1,
            backdoor_detector=_FlagOnCall({0: [1]}),
            fault_plan=_DropAfterAt(client_id=0, k=0),
        )
        assert np.isfinite(out).all() and not np.array_equal(out, start)
        assert events[-1].kind == "secagg_recovery"
        assert events[-1].retries == 2  # client 0's pairs with clients 1 and 2

    def test_spared_uploads_are_not_recorded_lost(self, fed):
        """loss:1.0:0 loses all three uploads; min_alive=2 spares clients 0
        and 1, so only client 2 is recorded lost and reconstructed."""
        _, _, events = self._session(
            fed, MEMBERS[:3], group_rounds=1,
            fault_plan=FaultPlan.from_spec("loss:1.0:0"),
        )
        trace = [(e.kind, e.client_id, e.phase, e.retries) for e in events]
        assert trace == [
            ("message_loss", 0, "retried", 0),
            ("message_loss", 1, "retried", 0),
            ("message_loss", 2, "lost", 0),
            ("secagg_recovery", None, None, 2),
        ]
        assert all(e.delay_s == 0.5 for e in events[:3])


if __name__ == "__main__":
    _fed = _federation()
    for _cell in CELLS:
        print(f"    {_cell!r}: {run_cell(_fed, *_cell)!r},")
