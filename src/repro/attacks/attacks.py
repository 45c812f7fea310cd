"""Attack implementations and federation-poisoning helpers."""

from __future__ import annotations

import numpy as np

from repro.data.client_data import ClientDataset
from repro.data.store import ColumnarPopulation
from repro.nn.model import Model
from repro.rng import make_rng

__all__ = [
    "Attack",
    "LabelFlipAttack",
    "SignFlipAttack",
    "ScalingAttack",
    "TriggerBackdoorAttack",
    "apply_trigger",
    "poison_federation",
    "attack_success_rate",
]


class Attack:
    """An adversarial client behaviour.

    ``poison_data`` corrupts the local shard before training (data
    poisoning); ``transform_update`` manipulates the update before upload
    (model poisoning). Either may be an identity.
    """

    name = "attack"

    def poison_data(
        self, client: ClientDataset, num_classes: int,
        rng: np.random.Generator | int | None = None,
    ) -> ClientDataset:
        return client

    def transform_update(
        self, update: np.ndarray, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        return update


class LabelFlipAttack(Attack):
    """Data poisoning: labels are cyclically shifted (y → y+1 mod m)."""

    name = "label_flip"

    def poison_data(self, client, num_classes, rng=None):
        flipped = (client.y + 1) % num_classes
        return ClientDataset(
            client_id=client.client_id,
            x=client.x,
            y=flipped,
            label_counts=np.bincount(flipped, minlength=num_classes),
        )


class SignFlipAttack(Attack):
    """Model poisoning: upload −λ × the honest update (gradient ascent)."""

    name = "sign_flip"

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.scale = float(scale)

    def transform_update(self, update, rng=None):
        return -self.scale * update


class ScalingAttack(Attack):
    """Model replacement: amplify the update to dominate the average.

    With aggregation weight w, a γ ≈ 1/w amplification substitutes the
    attacker's model for the aggregate (Bagdasaryan et al., 2020).
    """

    name = "scaling"

    def __init__(self, gamma: float = 10.0):
        if gamma <= 1:
            raise ValueError(f"gamma must be > 1, got {gamma}")
        self.gamma = float(gamma)

    def transform_update(self, update, rng=None):
        return self.gamma * update


def apply_trigger(x: np.ndarray, value: float = 3.0, size: int = 2) -> np.ndarray:
    """Stamp a bright square trigger into the corner of image tensors.

    Works on (N, C, H, W) images; for other layouts the trailing axes'
    corner entries are set. Returns a copy.
    """
    x = np.array(x, copy=True)
    if x.ndim == 4:
        x[:, :, :size, :size] = value
    elif x.ndim == 3:
        x[:, :, :size] = value
    else:
        x[:, :size] = value
    return x


class TriggerBackdoorAttack(Attack):
    """Classic backdoor: triggered samples are relabeled to a target class.

    A ``poison_fraction`` of the attacker's shard gets the trigger patch
    and the target label; the attacker optionally scales its update so the
    backdoor survives averaging.
    """

    name = "trigger_backdoor"

    def __init__(
        self,
        target_class: int = 0,
        poison_fraction: float = 0.5,
        trigger_value: float = 3.0,
        boost: float = 1.0,
    ):
        if not 0.0 < poison_fraction <= 1.0:
            raise ValueError(f"poison_fraction must be in (0, 1], got {poison_fraction}")
        if boost <= 0:
            raise ValueError(f"boost must be positive, got {boost}")
        self.target_class = int(target_class)
        self.poison_fraction = float(poison_fraction)
        self.trigger_value = float(trigger_value)
        self.boost = float(boost)

    def poison_data(self, client, num_classes, rng=None):
        rng = make_rng(rng)
        n_poison = max(1, int(round(self.poison_fraction * client.n)))
        idx = rng.choice(client.n, size=n_poison, replace=False)
        x = np.array(client.x, copy=True)
        y = np.array(client.y, copy=True)
        x[idx] = apply_trigger(x[idx], value=self.trigger_value)
        y[idx] = self.target_class
        return ClientDataset(
            client_id=client.client_id,
            x=x,
            y=y,
            label_counts=np.bincount(y, minlength=num_classes),
        )

    def transform_update(self, update, rng=None):
        if self.boost == 1.0:
            return update
        return self.boost * update


def poison_federation(
    fed: ColumnarPopulation,
    attacker_ids: list[int],
    attack: Attack,
    rng: np.random.Generator | int | None = None,
) -> dict[int, Attack]:
    """Apply an attack's data poisoning to the chosen clients, in place.

    The poisoned samples are written through the store's views, so every
    later ``materialize`` — what the trainer trains on — sees them. ``fed.L``
    is left alone: it stays the histogram the client *reported* before
    poisoning (groups formed afterwards are unchanged), so a poisoned store
    deliberately fails ``check_invariants()``.

    Returns ``{client_id: attack}`` — the update-transform map the trainer
    consumes (model-poisoning attacks act there even with clean data).
    """
    rng = make_rng(rng)
    for cid in attacker_ids:
        if not 0 <= cid < fed.num_clients:
            raise ValueError(f"attacker id {cid} out of range")
        poisoned = attack.poison_data(
            fed.materialize([cid])[int(cid)], fed.num_classes, rng=rng.spawn(1)[0]
        )
        np.copyto(fed.client_features(cid), poisoned.x)
        np.copyto(fed.client_labels(cid), poisoned.y)
    return {int(cid): attack for cid in attacker_ids}


def attack_success_rate(
    model: Model,
    test_x: np.ndarray,
    test_y: np.ndarray,
    target_class: int,
    trigger_value: float = 3.0,
) -> float:
    """Fraction of triggered non-target test samples classified as target."""
    mask = test_y != target_class
    if not mask.any():
        return 0.0
    triggered = apply_trigger(test_x[mask], value=trigger_value)
    preds = model.predict(triggered)
    return float((preds == target_class).mean())
