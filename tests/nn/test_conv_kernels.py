"""The conv kernels are bit-equal to their textbook forms.

``repro.nn.functional`` gathers ``im2col`` rows through a cached index and
folds ``col2im`` channels-last; ``tests/oracles/conv_reference.py`` keeps
the strided-view originals. Each pair must agree byte for byte — signed
zeros and infinities included, contiguous or transposed input — over a
grid of batch, channel, size, kernel, stride and padding, and a model
trained through either must end with the same parameter bytes.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import repro.nn.layers as layers
import repro.nn.model as model_mod
from repro.core import run_local_rounds
from repro.data import SyntheticAudio, SyntheticImage
from repro.data.client_data import ClientDataset
from repro.nn import SGD, make_audio_cnn
from repro.nn import functional as F
from repro.nn.resnet import ResNetLite
from tests.oracles import conv_reference as ref

BATCHES = (1, 5, 32)
CHANNELS = (1, 3, 16)
SIZES = (1, 4, 7, 8)
GEOMETRY = list(itertools.product((1, 2, 3, 5), (1, 2, 3), (0, 1, 2)))


def _input(shape: tuple[int, ...], transposed: bool, rng) -> np.ndarray:
    """Normal draws with -0.0 and +inf planted; ``transposed`` returns a
    non-contiguous view of that shape."""
    base = rng.normal(size=shape[::-1] if transposed else shape)
    flat = base.reshape(-1)
    flat[rng.integers(0, flat.size, size=2)] = -0.0
    flat[rng.integers(0, flat.size)] = np.inf
    return base.T if transposed else base


def _assert_same(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()
    assert np.array_equal(np.signbit(a), np.signbit(b))


def _valid(size: int, k: int, stride: int, pad: int) -> bool:
    return (size + 2 * pad - k) // stride + 1 > 0


@pytest.mark.parametrize("k,stride,pad", GEOMETRY)
def test_2d_kernels_match_oracle(k, stride, pad):
    rng = np.random.default_rng(k * 100 + stride * 10 + pad)
    for case, (n, c, h) in enumerate(itertools.product(BATCHES, CHANNELS, SIZES)):
        if not _valid(h, k, stride, pad):
            with pytest.raises(ValueError, match="output size"):
                F.im2col(np.zeros((n, c, h, h)), k, stride, pad)
            continue
        x = _input((n, c, h, h), transposed=case % 2 == 1, rng=rng)
        cols, out = F.im2col(x, k, stride, pad)
        cols_ref, out_ref = ref.im2col(x, k, stride, pad)
        assert out == out_ref
        _assert_same(cols, cols_ref)
        assert cols.flags.c_contiguous

        g = _input(cols.shape, transposed=case % 2 == 0, rng=rng)
        back = F.col2im(g, x.shape, k, stride, pad)
        _assert_same(back, ref.col2im(g, x.shape, k, stride, pad))
        assert back.flags.c_contiguous


@pytest.mark.parametrize("k,stride,pad", GEOMETRY)
def test_1d_kernels_match_oracle(k, stride, pad):
    rng = np.random.default_rng(k * 100 + stride * 10 + pad + 1)
    for case, (n, c, length) in enumerate(itertools.product(BATCHES, CHANNELS, SIZES)):
        if not _valid(length, k, stride, pad):
            with pytest.raises(ValueError, match="output size"):
                F.im2col_1d(np.zeros((n, c, length)), k, stride, pad)
            continue
        x = _input((n, c, length), transposed=case % 2 == 1, rng=rng)
        cols, ol = F.im2col_1d(x, k, stride, pad)
        cols_ref, ol_ref = ref.im2col_1d(x, k, stride, pad)
        assert ol == ol_ref
        _assert_same(cols, cols_ref)

        g = _input(cols.shape, transposed=case % 2 == 0, rng=rng)
        back = F.col2im_1d(g, x.shape, k, stride, pad)
        _assert_same(back, ref.col2im_1d(g, x.shape, k, stride, pad))


def test_col2im_sums_of_negative_zero_are_positive_zero():
    """Every fold starts from +0.0, so all -0.0 contributions give +0.0."""
    g = np.full((2 * 4 * 4, 2 * 9), -0.0)
    back = F.col2im(g, (2, 2, 4, 4), 3, 1, 1)
    _assert_same(back, ref.col2im(g, (2, 2, 4, 4), 3, 1, 1))
    assert not np.signbit(back).any()


class TestPatchIndexCache:
    def test_cached_index_is_read_only(self):
        index = F._patch_index(3, (8, 8), (3, 3), 1, 1)
        with pytest.raises(ValueError, match="read-only"):
            index[0, 0] = 1
        cols, _ = F.im2col(np.ones((2, 3, 8, 8)), 3, 1, 1)
        cols[:] = 7.0  # the returned columns are the caller's own
        assert F._patch_index(3, (8, 8), (3, 3), 1, 1)[0, 0] == index[0, 0]

    def test_one_index_per_geometry_and_bounded(self):
        a = F._patch_index(16, (8, 8), (3, 3), 2, 1)
        assert F._patch_index(16, (8, 8), (3, 3), 2, 1) is a
        assert F._patch_index.cache_info().maxsize is not None


# --------------------------------------------------------------- training
def _oracle_patch(monkeypatch) -> None:
    """Put the conv kernels, BatchNorm's forward and ``loss_and_grad`` back
    in their textbook forms."""
    for name in ("im2col", "col2im", "im2col_1d", "col2im_1d"):
        monkeypatch.setattr(layers, name, getattr(ref, name))
    monkeypatch.setattr(layers.BatchNorm2d, "forward", ref.batchnorm_forward)
    monkeypatch.setattr(model_mod.Model, "loss_and_grad", ref.loss_and_grad)


def _train(model_fn, train, test) -> tuple[bytes, tuple[float, float], bytes]:
    model = model_fn()
    opt = SGD(model, lr=0.05, momentum=0.9, weight_decay=1e-3)
    client = ClientDataset(0, train.x, train.y, np.bincount(train.y))
    end, steps = run_local_rounds(
        model, opt, client, model.get_params(), local_rounds=2, batch_size=16, rng=3
    )
    assert steps == 2 * int(np.ceil(train.x.shape[0] / 16))
    logits = model.forward(test.x, training=False)
    return end.tobytes(), model.evaluate(test.x, test.y), logits.tobytes()


MODELS = {
    "resnet": (
        lambda: ResNetLite(base_width=8, seed=1),
        lambda: SyntheticImage(noise_std=1.0, seed=2).train_test(50, 40),
    ),
    "audio": (
        lambda: make_audio_cnn(base_width=8, seed=1),
        lambda: SyntheticAudio(noise_std=1.0, seed=2).train_test(50, 40),
    ),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_training_matches_oracle_kernels(name):
    model_fn, data = MODELS[name]
    train, test = data()
    fast = _train(model_fn, train, test)
    with pytest.MonkeyPatch.context() as m:
        _oracle_patch(m)
        slow = _train(model_fn, train, test)
    assert fast[0] == slow[0], "end params differ"
    assert fast[1] == slow[1], "eval loss/accuracy differ"
    assert fast[2] == slow[2], "eval logits differ"

