"""ResNetLite: the paper's "3-block ResNet" for the image task.

A compact residual CNN sized for the synthetic CIFAR-10 stand-in: stem conv
-> three residual blocks (with one stride-2 downsample each after the first)
-> global average pool -> linear classifier. Channel widths are configurable
so unit tests can run a very small instance.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Dense,
    Flatten,
    GlobalAvgPool2d,
    Layer,
    ReLU,
)
from repro.nn.model import Sequential
from repro.rng import make_rng

__all__ = ["ResidualBlock", "ResNetLite", "make_resnet_lite"]


class ResidualBlock(Layer):
    """conv-bn-relu-conv-bn + identity/projection shortcut, then ReLU.

    A composite layer: it owns sub-layers and routes forward/backward through
    them manually (the skip connection prevents a plain Sequential).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        rng: np.random.Generator,
        stride: int = 1,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self.conv1 = Conv2d(in_channels, out_channels, 3, rng, stride=stride, padding=1)
        self.bn1 = BatchNorm2d(out_channels)
        self.relu1 = ReLU()
        self.conv2 = Conv2d(out_channels, out_channels, 3, rng, stride=1, padding=1)
        self.bn2 = BatchNorm2d(out_channels)
        self.relu_out = ReLU()
        if stride != 1 or in_channels != out_channels:
            self.shortcut: Conv2d | None = Conv2d(
                in_channels, out_channels, 1, rng, stride=stride, padding=0
            )
        else:
            self.shortcut = None

    def _sublayers(self) -> list[Layer]:
        subs: list[Layer] = [self.conv1, self.bn1, self.conv2, self.bn2]
        if self.shortcut is not None:
            subs.append(self.shortcut)
        return subs

    def param_layers(self) -> list[Layer]:
        return [leaf for sub in self._sublayers() for leaf in sub.param_layers()]

    def zero_grads(self) -> None:
        for sub in self._sublayers():
            sub.zero_grads()

    @property
    def num_params(self) -> int:  # type: ignore[override]
        return sum(sub.num_params for sub in self._sublayers())

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        out = self.conv1.forward(x, training)
        out = self.bn1.forward(out, training)
        out = self.relu1.forward(out, training)
        out = self.conv2.forward(out, training)
        out = self.bn2.forward(out, training)
        identity = self.shortcut.forward(x, training) if self.shortcut is not None else x
        return self.relu_out.forward(out + identity, training)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = self.relu_out.backward(grad_out)
        # Branch gradients: the residual sum fans the gradient to both paths.
        grad_main = self.bn2.backward(grad)
        grad_main = self.conv2.backward(grad_main)
        grad_main = self.relu1.backward(grad_main)
        grad_main = self.bn1.backward(grad_main)
        grad_main = self.conv1.backward(grad_main)
        grad_skip = self.shortcut.backward(grad) if self.shortcut is not None else grad
        return grad_main + grad_skip

    def __repr__(self) -> str:
        return (
            f"ResidualBlock({self.in_channels}->{self.out_channels}, stride={self.stride})"
        )


class ResNetLite(Sequential):
    """Stem conv + 3 residual blocks + classifier (the paper's CIFAR model)."""

    def __init__(
        self,
        in_channels: int = 3,
        num_classes: int = 10,
        base_width: int = 16,
        seed: int | np.random.Generator | None = 0,
    ):
        rng = make_rng(seed)
        w = base_width
        layers: list[Layer] = [
            Conv2d(in_channels, w, 3, rng, stride=1, padding=1),
            ReLU(),
            ResidualBlock(w, w, rng, stride=1),
            ResidualBlock(w, 2 * w, rng, stride=2),
            ResidualBlock(2 * w, 2 * w, rng, stride=1),
            GlobalAvgPool2d(),
            Dense(2 * w, num_classes, rng),
        ]
        super().__init__(layers)
        self.in_channels = in_channels
        self.num_classes = num_classes
        self.base_width = base_width


def make_resnet_lite(
    in_channels: int = 3,
    num_classes: int = 10,
    base_width: int = 16,
    seed: int | np.random.Generator | None = 0,
) -> ResNetLite:
    """Factory for the paper's image-classification model."""
    return ResNetLite(
        in_channels=in_channels,
        num_classes=num_classes,
        base_width=base_width,
        seed=seed,
    )
