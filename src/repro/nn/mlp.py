"""Small dense models: fast substrates for tests and ablations."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Dense, ReLU
from repro.nn.model import Sequential
from repro.rng import make_rng

__all__ = ["MLP", "make_mlp"]


class MLP(Sequential):
    """Multi-layer perceptron with ReLU activations.

    Parameters
    ----------
    in_features / num_classes:
        Input and output widths.
    hidden:
        Hidden layer widths, e.g. ``(64, 32)``. Empty = linear model.
    """

    def __init__(
        self,
        in_features: int,
        num_classes: int,
        hidden: tuple[int, ...] = (64,),
        seed: int | np.random.Generator | None = 0,
    ):
        rng = make_rng(seed)
        layers = []
        width = in_features
        for h in hidden:
            layers.append(Dense(width, h, rng))
            layers.append(ReLU())
            width = h
        layers.append(Dense(width, num_classes, rng))
        super().__init__(layers)
        self.in_features = in_features
        self.num_classes = num_classes
        self.hidden = tuple(hidden)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim > 2:  # accept image/sequence tensors directly
            x = x.reshape(x.shape[0], -1)
        return super().forward(x, training=training)


def make_mlp(
    in_features: int,
    num_classes: int,
    hidden: tuple[int, ...] = (64,),
    seed: int | np.random.Generator | None = 0,
) -> MLP:
    """Factory matching the signature style of the other model builders."""
    return MLP(in_features, num_classes, hidden=hidden, seed=seed)
