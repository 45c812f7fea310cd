"""From-scratch NumPy neural-network library (the paper's PyTorch substitute).

Design notes
------------
* Every layer implements explicit ``forward``/``backward`` passes with cached
  activations; no autodiff. All heavy math is vectorized NumPy (im2col-based
  convolutions, batched GEMMs) per the HPC optimization guide.
* Models expose **flat parameter vectors** (``get_params``/``set_params``):
  federated aggregation then becomes a single weighted ``np.add`` reduction
  over contiguous ``float64`` buffers — no per-layer Python loops.
* Non-trainable state (BatchNorm running statistics) lives in the same flat
  vector (FedAvg-style averaging applies to it) but is masked out of
  optimizer updates via ``trainable_mask``.
* Training minimizes softmax cross-entropy, the one loss: the per-client
  ``Model.loss_and_grad`` and the batched engine (``repro.nn.batched``)
  both compute it, so they cannot disagree on the objective.
"""

from repro.nn.functional import (
    col2im,
    im2col,
    log_softmax,
    one_hot,
    softmax,
)
from repro.nn.layers import (
    BatchNorm2d,
    Conv1d,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool1d,
    GlobalAvgPool2d,
    Layer,
    MaxPool1d,
    MaxPool2d,
    ReLU,
)
from repro.nn.extra_layers import AvgPool1d, AvgPool2d, LayerNorm
from repro.nn.losses import CrossEntropyLoss
from repro.nn.model import Model, Sequential
from repro.nn.resnet import ResidualBlock, ResNetLite, make_resnet_lite
from repro.nn.audio_cnn import AudioCNN, make_audio_cnn
from repro.nn.mlp import MLP, make_mlp
from repro.nn.optim import SGD, ConstantLR, CosineLR, LRSchedule, StepLR
from repro.nn.adam import Adam, clip_gradients
from repro.nn.serialization import load_model, model_signature, save_model

__all__ = [
    "im2col",
    "col2im",
    "softmax",
    "log_softmax",
    "one_hot",
    "Layer",
    "Dense",
    "Conv1d",
    "Conv2d",
    "ReLU",
    "Dropout",
    "Flatten",
    "MaxPool1d",
    "MaxPool2d",
    "GlobalAvgPool1d",
    "GlobalAvgPool2d",
    "BatchNorm2d",
    "LayerNorm",
    "AvgPool2d",
    "AvgPool1d",
    "CrossEntropyLoss",
    "Model",
    "Sequential",
    "ResidualBlock",
    "ResNetLite",
    "make_resnet_lite",
    "AudioCNN",
    "make_audio_cnn",
    "MLP",
    "make_mlp",
    "SGD",
    "Adam",
    "clip_gradients",
    "LRSchedule",
    "ConstantLR",
    "StepLR",
    "CosineLR",
    "save_model",
    "load_model",
    "model_signature",
]
