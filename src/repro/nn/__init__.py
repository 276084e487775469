"""A lightweight deep-learning package for the edge (the OpenEI *package manager* substrate).

This is the repository's stand-in for TensorFlow Lite / CoreML: a small,
pure-NumPy engine that supports both **inference** and **local training**
(the two workloads the paper's package manager must handle).  Models are
built from :class:`~repro.nn.layers.base.Layer` objects combined in a
:class:`~repro.nn.model.Sequential` container, trained with the optimizers
in :mod:`repro.nn.optimizers`, and serialized with
:mod:`repro.nn.serialization`.

The engine also exposes analytical cost counters
(:mod:`repro.nn.flops`) used by the hardware profiler to derive the ALEM
tuple without measuring wall-clock time on real boards.
"""

from repro.nn import datasets, flops, initializers, losses, metrics, optimizers, serialization
from repro.nn.engine import InferencePlan, WorkspaceArena
from repro.nn.layers import (
    AvgPool2D,
    BatchNorm,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    GRUCellLayer,
    LSTMClassifier,
    LSTMLayer,
    LeakyReLU,
    MaxPool2D,
    ReLU,
    SeparableConv2D,
    Sigmoid,
    SimpleRNN,
    Softmax,
    Tanh,
)
from repro.nn.losses import CrossEntropyLoss
from repro.nn.model import Sequential
from repro.nn.optimizers import SGD, Adam

__all__ = [
    "AvgPool2D",
    "BatchNorm",
    "Conv2D",
    "CrossEntropyLoss",
    "Dense",
    "DepthwiseConv2D",
    "Dropout",
    "Flatten",
    "GRUCellLayer",
    "GlobalAvgPool2D",
    "InferencePlan",
    "LSTMClassifier",
    "LSTMLayer",
    "LeakyReLU",
    "MaxPool2D",
    "ReLU",
    "SGD",
    "Adam",
    "SeparableConv2D",
    "Sequential",
    "Sigmoid",
    "SimpleRNN",
    "Softmax",
    "Tanh",
    "WorkspaceArena",
    "datasets",
    "flops",
    "initializers",
    "losses",
    "metrics",
    "optimizers",
    "serialization",
]
