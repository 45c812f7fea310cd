"""Tests for model containers, flat parameters, and the model zoo."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    MLP,
    AudioCNN,
    CrossEntropyLoss,
    ResNetLite,
    SGD,
    make_audio_cnn,
    make_mlp,
    make_resnet_lite,
)


class TestFlatParams:
    def test_roundtrip(self):
        m = make_mlp(8, 3, hidden=(6,), seed=0)
        v = m.get_params()
        assert v.shape == (m.num_params,)
        m.set_params(np.arange(v.size, dtype=float))
        assert np.allclose(m.get_params(), np.arange(v.size))

    def test_set_params_changes_forward(self):
        m = make_mlp(4, 2, hidden=(), seed=0)
        x = np.ones((1, 4))
        before = m.forward(x, training=False).copy()
        m.set_params(m.get_params() * 2.0)
        after = m.forward(x, training=False)
        assert not np.allclose(before, after)

    def test_wrong_shape_raises(self):
        m = make_mlp(4, 2, seed=0)
        with pytest.raises(ValueError):
            m.set_params(np.zeros(3))

    def test_get_params_out_buffer(self):
        m = make_mlp(4, 2, seed=0)
        buf = np.empty(m.num_params)
        out = m.get_params(out=buf)
        assert out is buf

    def test_trainable_mask_all_true_for_mlp(self):
        m = make_mlp(4, 2, seed=0)
        assert m.trainable_mask().all()

    def test_trainable_mask_excludes_bn_stats(self):
        m = make_resnet_lite(base_width=4, seed=0)
        mask = m.trainable_mask()
        assert not mask.all()  # running stats present
        assert mask.any()

    def test_identical_seeds_identical_params(self):
        a = make_mlp(6, 3, seed=5)
        b = make_mlp(6, 3, seed=5)
        assert np.allclose(a.get_params(), b.get_params())

    @given(st.integers(1, 5), st.integers(2, 6))
    @settings(max_examples=10, deadline=None)
    def test_num_params_matches_vector(self, in_f, classes):
        m = make_mlp(in_f, classes, hidden=(4,), seed=0)
        assert m.get_params().size == m.num_params


class TestEvaluate:
    def test_perfect_predictions(self):
        m = make_mlp(2, 2, hidden=(), seed=0)
        # Hand-craft weights: class = argmax of features.
        W = np.array([[10.0, -10.0], [-10.0, 10.0]])
        b = np.zeros(2)
        m.set_params(np.concatenate([W.ravel(), b]))
        x = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.5]])
        y = np.array([0, 1, 0])
        loss, acc = m.evaluate(x, y)
        assert acc == 1.0
        assert loss < 1e-4

    def test_empty_dataset(self):
        m = make_mlp(3, 2, seed=0)
        loss, acc = m.evaluate(np.zeros((0, 3)), np.zeros(0, dtype=int))
        assert (loss, acc) == (0.0, 0.0)

    def test_predict_shape(self):
        m = make_mlp(3, 4, seed=0)
        preds = m.predict(np.random.default_rng(0).normal(size=(10, 3)))
        assert preds.shape == (10,)
        assert set(preds.tolist()) <= set(range(4))


class TestModelZoo:
    def test_mlp_accepts_tensor_input(self):
        m = make_mlp(3 * 8 * 8, 10, seed=0)
        out = m.forward(np.zeros((2, 3, 8, 8)), training=False)
        assert out.shape == (2, 10)

    def test_resnet_forward_shape(self):
        m = make_resnet_lite(in_channels=3, num_classes=10, base_width=4, seed=0)
        out = m.forward(np.zeros((2, 3, 8, 8)), training=False)
        assert out.shape == (2, 10)

    def test_resnet_trains_on_tiny_batch(self):
        rng = np.random.default_rng(0)
        m = make_resnet_lite(base_width=4, seed=1)
        x = rng.normal(size=(8, 3, 8, 8))
        y = rng.integers(0, 10, size=8)
        opt = SGD(m, lr=0.05, momentum=0.9)
        first = m.loss_and_grad(x, y)
        opt.step()
        for _ in range(25):
            last = m.loss_and_grad(x, y)
            opt.step()
        assert last < first * 0.5

    def test_audio_cnn_forward_shape(self):
        m = make_audio_cnn(in_channels=8, num_classes=35, seq_len=16, base_width=4, seed=0)
        out = m.forward(np.zeros((3, 8, 16)), training=False)
        assert out.shape == (3, 35)

    def test_audio_cnn_seq_len_validation(self):
        with pytest.raises(ValueError, match="divisible by 4"):
            AudioCNN(seq_len=10)

    def test_resnet_residual_param_layers(self):
        m = make_resnet_lite(base_width=4, seed=0)
        # Flat vector must cover every leaf parameter exactly once.
        total = sum(
            leaf.params[name].size
            for layer in m.layers
            for leaf in layer.param_layers()
            for name in leaf.params
        )
        assert total == m.num_params

    def test_resnet_gradient_flow_through_skip(self):
        """Zeroing the main branch must still propagate via the shortcut."""
        rng = np.random.default_rng(0)
        m = make_resnet_lite(base_width=4, seed=0)
        x = rng.normal(size=(2, 3, 8, 8))
        y = rng.integers(0, 10, size=2)
        m.loss_and_grad(x, y)
        grads = m.get_grads()
        assert np.isfinite(grads).all()
        assert (np.abs(grads) > 0).mean() > 0.5  # most params receive signal


class TestLosses:
    def test_cross_entropy_matches_manual(self):
        logits = np.array([[2.0, 1.0, 0.1]])
        y = np.array([0])
        loss, grad = CrossEntropyLoss()(logits, y)
        p = np.exp(logits) / np.exp(logits).sum()
        assert loss == pytest.approx(-np.log(p[0, 0]))
        assert grad.shape == logits.shape

    def test_cross_entropy_gradient_sums_to_zero(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 4))
        y = rng.integers(0, 4, size=5)
        _, grad = CrossEntropyLoss()(logits, y)
        # Softmax-CE gradient rows sum to zero.
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_batch_mismatch_raises(self):
        with pytest.raises(ValueError, match="batch mismatch"):
            CrossEntropyLoss()(np.zeros((3, 2)), np.zeros(2, dtype=int))
