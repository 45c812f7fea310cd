"""Tests for the attack suite and the backdoor defense against it."""

import numpy as np
import pytest

from repro.attacks import (
    LabelFlipAttack,
    ScalingAttack,
    SignFlipAttack,
    TriggerBackdoorAttack,
    apply_trigger,
    attack_success_rate,
    poison_federation,
)
from repro.core import GroupFELTrainer, TrainerConfig
from repro.data import ColumnarPopulation, FederatedDataset, SyntheticImage
from repro.grouping import RandomGrouping, group_clients_per_edge
from repro.nn import make_mlp
from repro.secure import BackdoorDetector


def make_fed(seed=0, clients=12):
    data = SyntheticImage(noise_std=2.0, seed=0)
    train, test = data.train_test(3000, 400)
    return FederatedDataset.from_dataset(
        train, test, num_clients=clients, alpha=0.5,
        size_low=30, size_high=60, rng=seed,
    )


class TestAttackPrimitives:
    def test_label_flip_changes_labels(self):
        fed = make_fed()
        orig = fed.clients[0].y.copy()
        poisoned = LabelFlipAttack().poison_data(fed.clients[0], 10, rng=0)
        assert np.array_equal(poisoned.y, (orig + 1) % 10)
        assert np.array_equal(
            poisoned.label_counts, np.bincount(poisoned.y, minlength=10)
        )

    def test_sign_flip(self):
        u = np.array([1.0, -2.0])
        assert np.allclose(SignFlipAttack(2.0).transform_update(u), [-2.0, 4.0])

    def test_scaling(self):
        u = np.ones(3)
        assert np.allclose(ScalingAttack(5.0).transform_update(u), 5.0)

    def test_apply_trigger_images(self):
        x = np.zeros((2, 3, 8, 8))
        t = apply_trigger(x, value=7.0, size=2)
        assert np.all(t[:, :, :2, :2] == 7.0)
        assert np.all(t[:, :, 2:, 2:] == 0.0)
        assert np.all(x == 0.0)  # original untouched

    def test_trigger_backdoor_poisons_fraction(self):
        fed = make_fed()
        client = fed.clients[0]
        attack = TriggerBackdoorAttack(target_class=3, poison_fraction=0.5)
        poisoned = attack.poison_data(client, 10, rng=0)
        n_target = int((poisoned.y == 3).sum())
        assert n_target >= int(0.5 * client.n)

    def test_validation(self):
        with pytest.raises(ValueError):
            SignFlipAttack(0.0)
        with pytest.raises(ValueError):
            ScalingAttack(1.0)
        with pytest.raises(ValueError):
            TriggerBackdoorAttack(poison_fraction=0.0)


class TestPoisonFederation:
    def test_replaces_clients_in_place(self):
        fed = make_fed()
        before = fed.clients[2].y.copy()
        transforms = poison_federation(fed, [2, 5], LabelFlipAttack(), rng=0)
        assert set(transforms) == {2, 5}
        assert not np.array_equal(fed.clients[2].y, before)

    def test_invalid_id(self):
        fed = make_fed()
        with pytest.raises(ValueError):
            poison_federation(fed, [99], LabelFlipAttack())

    def test_trainer_sees_the_poison(self):
        """The poison lands in the store: the client list and the next
        ``materialize`` (what a group round trains on) both show it."""
        fed = make_fed()
        before, reported = fed.client_labels(2).copy(), fed.L[2].copy()
        poison_federation(fed, [2], LabelFlipAttack(), rng=0)
        flipped = (before + 1) % 10
        np.testing.assert_array_equal(fed.clients[2].y, flipped)
        np.testing.assert_array_equal(fed.materialize([2])[2].y, flipped)
        # L keeps the histogram the client reported before poisoning.
        np.testing.assert_array_equal(fed.L[2], reported)
        with pytest.raises(AssertionError, match="L diverged"):
            fed.check_invariants()

    def test_works_on_a_bare_store(self):
        fed = make_fed()
        store = ColumnarPopulation(
            fed.L, train_x=fed._train_x.copy(), train_y=fed._train_y.copy(),
            sample_offsets=fed._offsets, test=fed.test,
        )
        attack = TriggerBackdoorAttack(target_class=3, poison_fraction=0.5)
        poison_federation(store, [4], attack, rng=1)
        poison_federation(fed, [4], attack, rng=1)
        np.testing.assert_array_equal(store.client_labels(4), fed.client_labels(4))
        np.testing.assert_array_equal(store.client_features(4), fed.client_features(4))
        assert (store.client_labels(4) == 3).sum() >= store.client_size(4) // 2


class TestDefenseCatchesModelPoisoning:
    def test_sign_flip_flagged_by_detector(self):
        """Sign-flipped updates point opposite the honest cluster —
        exactly what cosine clustering separates."""
        rng = np.random.default_rng(0)
        direction = rng.normal(size=200)
        honest = direction + 0.15 * rng.normal(size=(8, 200))
        attacked = SignFlipAttack(1.0).transform_update(
            direction + 0.15 * rng.normal(size=(2, 200))
        )
        report = BackdoorDetector(0.5).detect(np.vstack([honest, attacked]), rng=0)
        assert set(report.flagged.tolist()) == {8, 9}

    def test_scaling_attack_neutralized_by_clipping(self):
        """A 20× scaled update survives clustering (same direction!) but
        median-norm clipping cuts it back to honest magnitude."""
        rng = np.random.default_rng(1)
        direction = rng.normal(size=100)
        honest = direction + 0.1 * rng.normal(size=(8, 100))
        attacked = ScalingAttack(20.0).transform_update(direction)[None, :]
        report = BackdoorDetector(0.8).detect(np.vstack([honest, attacked]), rng=0)
        norms = np.linalg.norm(report.filtered, axis=1)
        assert norms.max() <= report.clip_norm * (1 + 1e-9)


class TestEndToEndBackdoor:
    @pytest.fixture(scope="class")
    def trained(self):
        """Train twice on a backdoored federation: defended vs undefended."""
        results = {}
        for defended in (False, True):
            fed = make_fed(seed=3, clients=12)
            attack = TriggerBackdoorAttack(
                target_class=0, poison_fraction=0.9, boost=6.0
            )
            attackers = poison_federation(fed, [0, 1, 2], attack, rng=0)
            groups = group_clients_per_edge(
                RandomGrouping(4), fed.L, [np.arange(12)], rng=1
            )
            cfg = TrainerConfig(group_rounds=2, local_rounds=2, num_sampled=3,
                                lr=0.1, momentum=0.9, max_rounds=8,
                                use_backdoor_defense=defended, seed=0)
            trainer = GroupFELTrainer(
                lambda: make_mlp(192, 10, hidden=(32,), seed=3),
                fed, groups, cfg, attackers=attackers,
            )
            history = trainer.run()
            trainer.model.set_params(trainer.global_params)
            asr = attack_success_rate(
                trainer.model, fed.test.x, fed.test.y, target_class=0
            )
            results[defended] = (history.final_accuracy, asr)
        return results

    def test_attack_works_undefended(self, trained):
        acc, asr = trained[False]
        assert acc > 0.4, "model should still learn the clean task"
        assert asr > 0.25, f"backdoor should fire without defense (ASR={asr:.2f})"

    def test_defense_reduces_attack_success(self, trained):
        _, asr_undefended = trained[False]
        acc_def, asr_defended = trained[True]
        assert asr_defended < asr_undefended, (
            f"defense should lower ASR: {asr_defended:.2f} vs {asr_undefended:.2f}"
        )
        assert acc_def > 0.4, "defense must not destroy clean accuracy"
