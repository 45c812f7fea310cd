"""Adversarial clients for evaluating the backdoor-detection group op.

The paper charges every group for backdoor detection (FLAME-style) but
never shows an attack; this module supplies the attacks so the defense can
be evaluated end to end: poisoned clients join the federation, train like
everyone else, and manipulate their updates (or their data) before upload.

* :class:`LabelFlipAttack` — data poisoning: train on permuted labels.
* :class:`SignFlipAttack` — model poisoning: upload −λ·(honest update).
* :class:`ScalingAttack` — model replacement: amplify the update to
  dominate the (weighted) average.
* :class:`TriggerBackdoorAttack` — classic backdoor: stamp a trigger
  patch on local samples and relabel them to the target class, so the
  global model misclassifies *triggered* inputs while clean accuracy
  stays high.

``poison_federation`` poisons selected clients of a population store in place;
``attack_success_rate`` measures the backdoor's effect.
"""

from repro.attacks.attacks import (
    Attack,
    LabelFlipAttack,
    ScalingAttack,
    SignFlipAttack,
    TriggerBackdoorAttack,
    apply_trigger,
    attack_success_rate,
    poison_federation,
)

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
