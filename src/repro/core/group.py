"""Edge-side group round (Algorithm 1, Lines 8–14).

One call = the K group rounds for one sampled group: every client starts
from the current group model, runs E local rounds, and the edge server
aggregates the client models weighted by n_i/n_g. Optionally, the group
aggregation actually runs through secure aggregation + backdoor detection
(the group operations the cost model charges for), and a
:class:`repro.faults.FaultPlan` injects client dropouts, stragglers, and
lossy uplinks into the round.
"""

from __future__ import annotations

import numpy as np

from repro.compression.error_feedback import ErrorFeedback
from repro.core.aggregation import weighted_average
from repro.core.client import run_local_rounds
from repro.core.strategies import (
    FedProxStrategy,
    LocalStrategy,
    PlainSGDStrategy,
    ScaffoldStrategy,
)
from repro.data.client_data import ClientDataset
from repro.faults.trace import FaultEvent
from repro.grouping.base import Group
from repro.nn.batched import batched_local_rounds, supports_batched_training
from repro.nn.model import Model
from repro.nn.optim import SGD
from repro.rng import make_rng
from repro.secure.backdoor import BackdoorDetector
from repro.secure.secagg import SecureAggregator
from repro.telemetry import Telemetry, resolve as resolve_telemetry

__all__ = ["run_group_round", "resolve_engine"]

#: strategies whose batched hooks are verified bit-identical to the scalar
#: path — ``engine="auto"`` only batches these; custom strategies must opt
#: in explicitly with ``engine="batched"`` (their default
#: ``batched_grad_offset`` delegates row-by-row, but ``after_local``
#: ordering moves to after the lockstep loop, which a cross-client-coupled
#: strategy could observe).
_AUTO_BATCHED_STRATEGIES = (PlainSGDStrategy, FedProxStrategy, ScaffoldStrategy)


def resolve_engine(
    engine: str, model: Model, strategy: LocalStrategy | None
) -> bool:
    """Decide whether the batched engine replaces the per-client loop.

    ``"reference"`` → never; ``"batched"`` → always (raises if the model
    has layers the engine cannot stack); ``"auto"`` → only when the model
    is stackable *and* the strategy is one of the in-tree trio.
    """
    if engine == "reference":
        return False
    if engine == "batched":
        if not supports_batched_training(model):
            raise ValueError(
                "engine='batched' requires a Dense/ReLU/LeakyReLU model; "
                "use engine='auto' or 'reference' for other architectures"
            )
        return True
    if engine != "auto":
        raise ValueError(
            f"engine must be 'auto', 'batched' or 'reference', got {engine!r}"
        )
    return supports_batched_training(model) and (
        strategy is None or type(strategy) in _AUTO_BATCHED_STRATEGIES
    )


def _narrow(alive: np.ndarray, weights: np.ndarray, dead) -> np.ndarray:
    """Clear member indices ``dead`` from the survivor mask ``alive`` (in
    place); return the remaining survivors' ``weights`` renormalised.

    ``weights`` holds one entry per survivor, in member order. Each call
    renormalises once, so callers call only when a stage removed someone
    (the detector excepted) — successive renormalisations are not
    bit-equal to one at the end.
    """
    keep = ~np.isin(np.flatnonzero(alive), dead)
    alive[dead] = False
    return weights[keep] / weights[keep].sum()


def run_group_round(
    model: Model,
    optimizer: SGD,
    group: Group,
    clients: list[ClientDataset],
    global_params: np.ndarray,
    group_rounds: int,
    local_rounds: int,
    batch_size: int,
    rng: np.random.Generator | int | None = None,
    strategy: LocalStrategy | None = None,
    step_mode: str = "epoch",
    secure_aggregator: SecureAggregator | None = None,
    backdoor_detector: BackdoorDetector | None = None,
    round_id: int = 0,
    compressor=None,
    dropout_prob: float = 0.0,
    dropout_aggregator=None,
    update_transforms: dict | None = None,
    telemetry: Telemetry | None = None,
    parent_span_id: int | None = None,
    fault_plan=None,
    fault_events: list | None = None,
    engine: str = "auto",
) -> np.ndarray:
    """Run the K×(clients×E) loop for one group; returns the group model.

    Every group round k runs the same stages, for either engine:

    1. fault decisions — who drops ``before`` / ``mid`` / ``after``;
    2. local training of every member not dropped ``before``;
    3. ``before`` / ``mid`` dropout events, in member order;
    4. attacks (``update_transforms``), then compression;
    5. the survivor mask narrows: pre-upload deaths, lost uploads,
       ``dropout_prob`` draws, the ban list, the backdoor detector — each
       stage that removes someone renormalises the survivors' weights;
    6. aggregation: the ``dropout_aggregator`` recovery protocol when a
       post-masking drop happened, else SecAgg when it is on, else the
       plain weighted average.

    Parameters
    ----------
    clients:
        The full client list, indexed by the group's member ids.
    secure_aggregator:
        When set, each group aggregation is performed through pairwise-
        masked secure aggregation (clients pre-scale by n_i/n_g) instead of
        a plain weighted average — functionally identical up to fixed-point
        rounding, but exercising the real group operation.
    backdoor_detector:
        When set, client *updates* (delta from the group model) pass the
        clustering defense before aggregation; flagged clients are dropped
        from this group round and banned for the rest of the session.
    compressor:
        Optional update compressor (``repro.compression``): each client's
        update is compressed (lossy) before leaving the device, and the
        decoded reconstruction is what the edge aggregates. An
        ``ErrorFeedback`` wrapper is also accepted (keyed by client id).
    dropout_prob:
        Per-client, per-group-round probability of dropping after local
        training (device failure / connectivity loss). At least one client
        always survives. Dropped clients' updates are excluded and the
        surviving weights renormalized. Not drawn in a round whose
        recovery protocol already runs for a fault-plan drop.
    dropout_aggregator:
        Optional :class:`repro.secure.DropoutTolerantAggregator`: when set
        (and dropouts occur), the aggregation runs the full seed-share
        reconstruction protocol instead of silently skipping the dropped
        clients — exercising the real recovery path. Recovery rounds pass
        the ban list and the detector like any other round. The protocol's
        session is every member that uploaded: post-masking drops go in as
        ``dropped``, banned or flagged uploaders as zero-input shareholders.
    telemetry / parent_span_id:
        Optional :class:`repro.telemetry.Telemetry`: the whole call is
        timed as a ``group`` span with ``client_update`` / ``secagg`` /
        ``backdoor`` / ``aggregate`` children. ``parent_span_id`` stitches
        the span under the trainer's ``round`` span when this call runs on
        a pool worker thread (thread-local nesting covers the serial path).
    fault_plan / fault_events:
        Optional :class:`repro.faults.FaultPlan`: every group round asks
        the plan (pure, keyed decisions) which clients drop — ``before``
        (no compute), ``mid`` (compute burned, no upload) or ``after``
        (upload masked then lost, forcing Shamir mask reconstruction when
        ``dropout_aggregator`` is set) — which uploads straggle, and which
        are lost on the uplink after retries. Injected faults are appended
        to ``fault_events`` (a plain list; the trainer merges and meters).
        Uplink events are recorded after sparing: when too few uploads
        arrive for ``min_alive`` (the Shamir threshold), the lowest-index
        drops are spared and reach the aggregate. A spared ``after`` drop
        records nothing; a spared lost upload records a ``retried``
        message-loss event that keeps the retries and delay the plan drew
        (the edge waited out those attempts).
    engine:
        ``"auto"`` (default) trains the whole group through the stacked
        :func:`repro.nn.batched.batched_local_rounds` engine whenever the
        model and strategy support it — bit-identical to the per-client
        loop; ``"batched"`` forces it (raising on unsupported models);
        ``"reference"`` keeps the per-client loop (the retained slow path
        differential tests compare against).
    """
    if not 0.0 <= dropout_prob < 1.0:
        raise ValueError(f"dropout_prob must be in [0, 1), got {dropout_prob}")
    use_batched = resolve_engine(engine, model, strategy)
    tel = resolve_telemetry(telemetry)
    rng = make_rng(rng)
    members = [clients[int(cid)] for cid in group.members]
    s = len(members)
    n_i = np.array([c.n for c in members], dtype=np.float64)
    n_g = n_i.sum()
    if n_g <= 0:
        raise ValueError(f"group {group.group_id} has no data")
    data_weights = n_i / n_g
    gid = group.group_id

    # A caller-supplied optimizer may have been used before; clear any
    # momentum/step state up front so nothing leaks into this group's first
    # client update (run_local_rounds also resets per client — this guards
    # direct call sites and custom strategies that bypass it).
    optimizer.reset_state()

    group_params = global_params.copy()  # Line 8: x^g_{t,0} = x_t
    client_params = np.empty((s, group_params.shape[0]))
    client_rngs = rng.spawn(s)
    #: clients the defense flagged earlier in this group session
    banned: set[int] = set()
    #: minimum clients that must deliver an update for aggregation (and for
    #: the recovery protocol's Shamir threshold, when in use)
    min_alive = 1
    if dropout_aggregator is not None:
        min_alive = min(dropout_aggregator.threshold, s)

    def record(kind: str, k: int, idx: int | None, phase=None, **extra) -> None:
        if fault_events is not None:
            cid = None if idx is None else members[idx].client_id
            fault_events.append(FaultEvent(kind, round_id, gid, cid, k, phase, **extra))

    with tel.span("group", parent_id=parent_span_id, group_id=gid,
                  edge_id=group.edge_id, size=s):
        for k in range(group_rounds):
            # ---- 1. fault-plan decisions (pure, keyed by ids) -------------
            # Decided before training so a 'before' dropout skips compute.
            drop_phase: dict[int, str] = {}
            if fault_plan is not None:
                for idx, client in enumerate(members):
                    phase = fault_plan.client_dropout(round_id, gid, k, client.client_id)
                    if phase is not None:
                        drop_phase[idx] = phase
                # Never let dropouts kill the whole aggregation: spare
                # clients (lowest member index first — deterministic on any
                # backend) until min_alive can deliver.
                while s - len(drop_phase) < min_alive and drop_phase:
                    del drop_phase[min(drop_phase)]

            # ---- 2. local training: the only engine-specific stage --------
            # 'before'-drops never train (and never touch their RNG);
            # 'mid'-drops train, then their update is discarded below.
            train_idx = [i for i in range(s) if drop_phase.get(i) != "before"]
            local = dict(
                start_params=group_params, local_rounds=local_rounds,
                batch_size=batch_size, strategy=strategy, anchor=group_params,
                step_mode=step_mode, telemetry=tel,
            )
            if use_batched and train_idx:
                with tel.span("client_update", k=k, clients=len(train_idx),
                              batched=True):
                    client_params[train_idx] = batched_local_rounds(
                        model, optimizer, [members[i] for i in train_idx],
                        rngs=[client_rngs[i] for i in train_idx], **local,
                    )
            elif not use_batched:
                for i in train_idx:
                    with tel.span("client_update", client_id=members[i].client_id,
                                  k=k):
                        client_params[i], _ = run_local_rounds(
                            model, optimizer, members[i], rng=client_rngs[i], **local
                        )

            # ---- 3. pre-upload deaths: no upload, zero update -------------
            # (a 'mid' death still burned its compute — the ledger charges
            # the group; that wasted work is the point of the fault).
            pre_dead = sorted(i for i, p in drop_phase.items() if p != "after")
            for i in pre_dead:
                client_params[i] = group_params
                record("dropout", k, i, drop_phase[i])

            # ---- 4. attacks (repro.attacks), then compression -------------
            # The persistent client_params buffer is never rebound: the next
            # k iteration refills it for all members.
            params_k = client_params
            updates = client_params - group_params
            uploaders = [i for i in range(s) if i not in pre_dead]
            if update_transforms:
                for i in uploaders:
                    attack = update_transforms.get(members[i].client_id)
                    if attack is not None:
                        updates[i] = attack.transform_update(updates[i], rng=rng)
                params_k = group_params + updates
            if compressor is not None:
                for i in uploaders:
                    if isinstance(compressor, ErrorFeedback):
                        out = compressor.compress(
                            members[i].client_id, updates[i], rng=rng
                        )
                    else:
                        out = compressor.compress(updates[i], rng=rng)
                    updates[i] = out.decoded
                params_k = group_params + updates

            # ---- 5. the survivor mask, in member-index space --------------
            alive = np.ones(s, dtype=bool)
            weights = data_weights
            if pre_dead:
                weights = _narrow(alive, weights, pre_dead)
            #: post-masking drops: their masks are in flight, their updates
            #: are not — what the recovery protocol reconstructs
            lost: list[int] = []
            if fault_plan is not None:
                after_dead = {i for i, p in drop_phase.items() if p == "after"}
                uplinks = []
                for i in uploaders:
                    if i in after_dead:
                        continue
                    cid = members[i].client_id
                    delay = fault_plan.straggler_delay(round_id, gid, k, cid)
                    up = fault_plan.uplink(round_id, gid, k, cid)
                    uplinks.append((i, delay, up))
                    if not up.delivered:
                        # All retries exhausted: equivalent to dropping
                        # after masking.
                        after_dead.add(i)
                # Keep the aggregation (and Shamir reconstruction) viable,
                # then record: a spared upload reached the aggregate.
                while len(uploaders) - len(after_dead) < min_alive and after_dead:
                    after_dead.discard(min(after_dead))
                lost = sorted(after_dead)
                for i, delay, up in uplinks:
                    if delay > 0.0:
                        record("straggler", k, i, delay_s=delay)
                    if up.retries or not up.delivered:
                        record("message_loss", k, i,
                               "lost" if i in after_dead else "retried",
                               delay_s=up.delay_s, retries=up.retries)
                for i in lost:
                    if drop_phase.get(i) == "after":
                        record("dropout", k, i, "after")
                if lost:
                    weights = _narrow(alive, weights, lost)
            recovering = bool(lost) and dropout_aggregator is not None

            # Simulated client dropout: failed clients never submit this
            # round (the recovery protocol already covers this round when a
            # fault-plan drop started it).
            n_alive = int(alive.sum())
            if dropout_prob > 0.0 and n_alive > 1 and not recovering:
                stays = rng.random(n_alive) >= dropout_prob
                # Keep enough survivors for aggregation (and for the
                # recovery protocol's Shamir threshold, when in use).
                while stays.sum() < min(min_alive, n_alive):
                    dead = np.flatnonzero(~stays)
                    stays[dead[int(rng.integers(dead.size))]] = True
                if not stays.all():
                    if tel.enabled:
                        tel.inc("clients_dropped", float((~stays).sum()))
                    lost = np.flatnonzero(alive)[~stays].tolist()
                    weights = _narrow(alive, weights, lost)
                    recovering = dropout_aggregator is not None

            # Clients flagged in an earlier group round of this session stay
            # banned — re-admitting a detected attacker at k+1 would
            # re-implant whatever the defense just removed.
            rows = np.flatnonzero(alive)
            if banned:
                barred = [i for i in rows.tolist() if members[i].client_id in banned]
                if barred and len(barred) < rows.size:
                    weights = _narrow(alive, weights, barred)
                    rows = np.flatnonzero(alive)

            everyone = rows.size == s
            vectors = updates if everyone else updates[alive]
            report = None
            if backdoor_detector is not None and rows.size > 1:
                with tel.span("backdoor", k=k, clients=int(rows.size)):
                    report = backdoor_detector.detect(vectors, rng=rng)
                banned.update(members[i].client_id for i in rows[report.flagged])
                if tel.enabled and len(report.flagged):
                    tel.inc("clients_banned", float(len(report.flagged)))
                # Aggregate the defended (clipped) updates of admitted
                # clients.
                weights = _narrow(alive, weights, np.delete(rows, report.admitted))
                vectors = report.filtered

            # ---- 6. aggregation --------------------------------------------
            # Pair masks are keyed by (group round, group id): groups of one
            # round never share masks.
            sid = round_id * group_rounds + k
            if recovering:
                # Real recovery: reconstruct the dropped clients' masks from
                # survivor seed shares and cancel them. The session is every
                # uploader; a banned or flagged one stays a shareholder with
                # a zero input, so excluding it never breaks the threshold.
                scaled = np.zeros((len(uploaders), vectors.shape[1]))
                scaled[alive[uploaders]] = vectors * weights[:, None]
                with tel.span("secagg", k=k, recovery=True):
                    res = dropout_aggregator.aggregate(
                        scaled,
                        dropped=np.flatnonzero(np.isin(uploaders, lost)),
                        round_id=sid,
                        session=gid,
                        rng=rng,
                    )
                record("secagg_recovery", k, None, retries=res.reconstructed_pairs)
                group_params = group_params + res.total
            elif secure_aggregator is not None:
                with tel.span("secagg", k=k, clients=len(weights)):
                    group_params = group_params + secure_aggregator.aggregate_weighted(
                        vectors, weights, round_id=sid, session=gid
                    )
            else:
                with tel.span("aggregate", k=k):
                    if report is None:
                        # Line 14: x^g_{t,k+1} = Σ_i (n_i/n_g) x^i.
                        group_params = weighted_average(
                            params_k if everyone else params_k[alive], weights
                        )
                    else:
                        group_params = group_params + weighted_average(vectors, weights)
    return group_params
