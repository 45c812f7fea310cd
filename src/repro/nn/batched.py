"""Batched multi-client local training: one (B, n, d) pass per group step.

The per-client loop in ``run_group_round`` pays the full Python toll per
client per step: layer dispatch, ``get_params``/``set_params`` round trips,
optimizer scratch copies, and a loss value that is computed only to be
discarded. For a group of B same-architecture clients all of that collapses
into array programs over one flat ``(B, P)`` parameter matrix:

* forward/backward become stacked GEMMs — ``np.matmul`` over ``(B, n, in) @
  (B, in, out)`` runs the same per-slice dgemm the per-client loop runs,
  so results are **bit-identical**, not merely close;
* the SGD update (momentum, weight decay, LR schedule) is one fused set
  of elementwise ops over ``(B, P)`` instead of B separate scratch-buffer
  round trips;
* minibatches are drawn through the *same* :meth:`ClientDataset.batches` /
  :meth:`ClientDataset.sample_batch` calls on the *same* per-client RNGs as
  the reference loop, so index draws — and therefore every float — match.

Clients step in lockstep per local round; because clients are independent
(each row of the parameter matrix belongs to one client), interleaving
order cannot change results. Within a step, clients are grouped by
minibatch size (all full batches share one stacked pass; ragged last
batches form their own sub-passes), so no padding is ever introduced —
padding would perturb GEMM reduction shapes and break bit-identity.

Supported substrate: :class:`~repro.nn.model.Sequential` models composed of
``Dense`` / ``ReLU`` layers (the MLP family) under cross-entropy, the one
loss :meth:`Model.loss_and_grad` computes. Anything else — convolutions,
BatchNorm (cross-sample statistics), pooling — must keep the per-client
reference path; :func:`supports_batched_training` is the gate
``run_group_round`` consults in ``engine="auto"`` mode.

Stacking would not pay for the conv models anyway. On ResNetLite
(base width 16, 3×8×8 inputs, one Xeon core, OpenBLAS on one thread) five
``loss_and_grad`` calls on 32 samples take 122–135 ms and one call on 160
samples 126–139 ms: per-call Python dispatch is not the cost. The time is
data movement inside the conv layers (im2col, col2im, normalisation),
which grows with the samples however they are batched — so that is what
:mod:`repro.nn.functional` and :mod:`repro.nn.layers` make cheap.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Dense, ReLU
from repro.nn.model import Model
from repro.nn.optim import ConstantLR, SGD
from repro.telemetry import Telemetry, resolve as resolve_telemetry

__all__ = ["supports_batched_training", "batched_local_rounds"]

#: exact layer types the batched engine can stack (strict: subclasses may
#: override forward/backward and silently diverge from the batched math)
_BATCHABLE_LAYERS = (Dense, ReLU)


def supports_batched_training(model: Model) -> bool:
    """True when every layer of ``model`` has a batched equivalent.

    Strict type checks (not ``isinstance``) keep custom subclasses on the
    reference path — a ``Dense`` subclass with an overridden ``forward``
    would not match the stacked math.
    """
    try:
        layers = model.layers
    except NotImplementedError:
        return False
    return all(type(layer) in _BATCHABLE_LAYERS for layer in layers)


class _BatchedNet:
    """Layout of one model template, prepared for (B, P) batched passes.

    Holds per-Dense-layer offsets into the flat parameter vector; built
    once per group round, reused every step. ``Dense`` and ``ReLU`` register
    only trainable parameters, so no update is ever masked.
    """

    def __init__(self, model: Model):
        self.plan: list[tuple[str, int, int, int]] = []  # (kind, off, in, out)
        offset = 0
        for layer in model.layers:
            kind = type(layer)
            if kind is Dense:
                size_w = layer.in_features * layer.out_features
                self.plan.append(
                    ("dense", offset, layer.in_features, layer.out_features)
                )
                offset += size_w + layer.out_features
            elif kind is ReLU:
                self.plan.append(("relu", 0, 0, 0))
            else:  # pragma: no cover - guarded by supports_batched_training
                raise ValueError(
                    f"layer {layer!r} has no batched equivalent; gate with "
                    "supports_batched_training() or use engine='reference'"
                )
        self.num_params = offset
        if model.num_params != offset:
            raise ValueError(
                f"model flat size {model.num_params} != batched plan {offset}"
            )
        #: index of the earliest Dense layer: its input gradient (and the
        #: backward of anything before it) is never consumed, so the
        #: backward pass stops there — one whole GEMM the per-client
        #: reference path pays and we don't
        self.first_dense = next(
            i for i, (kind, *_rest) in enumerate(self.plan) if kind == "dense"
        )
        #: scratch (B, P) gradient buffer, grown on demand and reused
        #: across steps
        self._gflat = np.empty((0, self.num_params))

    def forward_backward(
        self, params: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """Stacked forward + cross-entropy backward for one lockstep batch.

        ``params`` is (B, P); ``x`` is (B, nb, features...), ``y`` (B, nb).
        Returns the flat gradient matrix (B, P). Matches the reference
        ``model.loss_and_grad`` float for float (the discarded loss scalar
        is simply never computed).
        """
        bsz = params.shape[0]
        if x.ndim > 3:  # MLP.forward flattens non-batch axes
            x = x.reshape(bsz, x.shape[1], -1)
        acts: list[np.ndarray | None] = []
        out = x
        for kind, off, n_in, n_out in self.plan:
            if kind == "dense":
                w = params[:, off : off + n_in * n_out].reshape(bsz, n_in, n_out)
                b = params[:, off + n_in * n_out : off + n_in * n_out + n_out]
                acts.append(out)
                out = np.matmul(out, w) + b[:, None, :]
            else:  # relu
                mask = out > 0
                acts.append(mask)
                out = np.where(mask, out, 0.0)

        # Fused softmax cross-entropy gradient: (softmax(z) - onehot) / nb,
        # replicating repro.nn.losses.CrossEntropyLoss minus the loss value.
        nb = out.shape[1]
        grad = out - out.max(axis=2, keepdims=True)
        np.exp(grad, out=grad)
        grad /= grad.sum(axis=2, keepdims=True)
        grad[np.arange(bsz)[:, None], np.arange(nb)[None, :], y] -= 1.0
        grad /= nb

        if self._gflat.shape[0] < bsz:
            self._gflat = np.empty((bsz, self.num_params))
        gflat = self._gflat[:bsz]
        for i in range(len(self.plan) - 1, self.first_dense - 1, -1):
            kind, off, n_in, n_out = self.plan[i]
            act = acts[i]
            if kind == "dense":
                gw = np.matmul(act.transpose(0, 2, 1), grad)
                gb = grad.sum(axis=1)
                # The reference accumulates into zeroed buffers (0.0 + v);
                # adding 0.0 canonicalizes any -0.0 the GEMM produced so the
                # flat gradients match the reference bit for bit.
                gw += 0.0
                gb += 0.0
                gflat[:, off : off + n_in * n_out] = gw.reshape(bsz, -1)
                gflat[:, off + n_in * n_out : off + n_in * n_out + n_out] = gb
                if i > self.first_dense:
                    w = params[:, off : off + n_in * n_out].reshape(
                        bsz, n_in, n_out
                    )
                    grad = np.matmul(grad, w.transpose(0, 2, 1))
            else:  # relu
                grad = np.where(act, grad, 0.0)
        return gflat


def _lockstep_schedule(
    epoch_batches: list[list[tuple[np.ndarray, np.ndarray]]], t: int
):
    """Group the clients active at substep ``t`` by minibatch size.

    ``epoch_batches[j]`` is client j's minibatch list for the current
    epoch; clients with fewer batches simply sit out the later substeps.
    Yields ``(sel, x, y)`` with ``sel`` the client rows stacked into
    ``x``/``y`` — one yield per distinct batch size, so stacked shapes
    stay rectangular without padding (padding would change GEMM reduction
    shapes and break bit-identity).
    """
    by_size: dict[int, list[int]] = {}
    for j, batches in enumerate(epoch_batches):
        if t < len(batches):
            by_size.setdefault(batches[t][0].shape[0], []).append(j)
    for size in sorted(by_size):
        sel = by_size[size]
        xs = [epoch_batches[j][t][0] for j in sel]
        ys = [epoch_batches[j][t][1] for j in sel]
        yield np.array(sel, dtype=np.intp), np.stack(xs), np.stack(ys)


def batched_local_rounds(
    model: Model,
    optimizer: SGD,
    clients: list,
    start_params: np.ndarray,
    local_rounds: int,
    batch_size: int,
    rngs: list[np.random.Generator],
    strategy=None,
    anchor: np.ndarray | None = None,
    step_mode: str = "epoch",
    telemetry: Telemetry | None = None,
) -> np.ndarray:
    """Run E local rounds for B clients at once; returns (B, P) end params.

    Drop-in replacement for B calls of
    :func:`repro.core.client.run_local_rounds` — same client RNG streams
    (minibatches are drawn through the very same ``ClientDataset`` methods),
    same update arithmetic, bit-identical end parameters. ``model`` and
    ``optimizer`` are treated as read-only templates: the model supplies
    the layer plan, the optimizer its schedule / momentum / weight decay.

    The strategy's :meth:`~repro.core.strategies.LocalStrategy.after_local`
    hooks run once per client in client order *after* the lockstep loop —
    equivalent to the reference interleaving because a client's local
    training never observes another client's ``after_local`` mutation
    (verified for the in-tree strategies; custom cross-client strategies
    should stay on the reference path).
    """
    from repro.core.strategies import PlainSGDStrategy

    if local_rounds < 1:
        raise ValueError(f"local_rounds must be >= 1, got {local_rounds}")
    if step_mode not in ("epoch", "batch"):
        raise ValueError(f"step_mode must be 'epoch' or 'batch', got {step_mode!r}")
    if len(clients) != len(rngs):
        raise ValueError(f"{len(clients)} clients but {len(rngs)} rngs")

    strategy = strategy or PlainSGDStrategy()
    anchor = start_params if anchor is None else anchor
    net = _BatchedNet(model)
    bsz = len(clients)
    n_params = net.num_params

    params = np.tile(np.asarray(start_params, dtype=np.float64), (bsz, 1))
    momentum = optimizer.momentum
    weight_decay = optimizer.weight_decay
    schedule = optimizer.schedule
    const_lr = schedule.lr_at(0) if isinstance(schedule, ConstantLR) else None
    velocity = np.zeros((bsz, n_params)) if momentum > 0.0 else None
    steps = np.zeros(bsz, dtype=np.int64)
    samples = 0
    uses_offset = not isinstance(strategy, PlainSGDStrategy)
    client_ids = [c.client_id for c in clients]

    for _ in range(local_rounds):
        # Same draws, same order, per client RNG, as the reference loop —
        # the dataset's own methods produce the minibatches.
        if step_mode == "epoch":
            epoch_batches = [
                list(c.batches(batch_size, rng)) for c, rng in zip(clients, rngs)
            ]
        else:
            epoch_batches = [
                [c.sample_batch(batch_size, rng)] for c, rng in zip(clients, rngs)
            ]
        for t in range(max(len(b) for b in epoch_batches)):
            # One offset call per substep over ALL clients, in client order,
            # then row-sliced per size group: values match the per-client
            # path (a client's row reads its pre-step params either way) and
            # first-touch order on strategy state (SCAFFOLD's lazily-created
            # variates) matches the reference loop's member order.
            offset_full = (
                strategy.batched_grad_offset(client_ids, params, anchor)
                if uses_offset
                else None
            )
            for sel, x, y in _lockstep_schedule(epoch_batches, t):
                samples += x.shape[0] * x.shape[1]
                whole = sel.size == bsz
                p = params if whole else params[sel]
                grads = net.forward_backward(p, x, y)
                if offset_full is not None:
                    grads += offset_full if whole else offset_full[sel]
                if weight_decay:
                    grads += weight_decay * p
                if const_lr is not None:
                    lr = const_lr
                else:
                    lr = np.array(
                        [schedule.lr_at(int(s)) for s in steps[sel]]
                    )[:, None]
                if velocity is None:
                    if whole:
                        params -= lr * grads
                    else:
                        params[sel] = p - lr * grads
                elif whole:
                    velocity *= momentum
                    velocity += grads
                    params -= lr * velocity
                else:
                    v = velocity[sel]
                    v *= momentum
                    v += grads
                    velocity[sel] = v
                    params[sel] = p - lr * v
                steps[sel] += 1

    eff_lr = optimizer.effective_lr
    for j, cid in enumerate(client_ids):
        strategy.after_local(cid, start_params, params[j], int(steps[j]), eff_lr)

    tel = resolve_telemetry(telemetry)
    if tel.enabled:
        tel.inc("local_steps", float(steps.sum()))
        tel.inc("client_updates", float(bsz))
        tel.inc("samples_trained", float(samples))
    return params
