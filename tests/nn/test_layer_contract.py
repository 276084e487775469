"""One declaration, three consumers: ``Layer.output_shape`` is the input contract.

``forward``, the compiled plan's native steps and the publish gate
(``analysis.shapes.check_model``) all call the layer's own
``output_shape``; these tests enumerate the layer registry and fail when
the three disagree, when a registered kind has no sample here, or when a
kind compiles to a fallback step.
"""

from __future__ import annotations

import importlib
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np
import pytest

from repro.analysis.shapes import check_model
from repro.exceptions import ConfigurationError, ReproError, ShapeError
from repro.hardware import ALEMProfiler, get_device
from repro.nn import serialization
from repro.nn.flops import model_cost
from repro.nn.layers import Conv2D, Dense, Dropout, Flatten, MaxPool2D
from repro.nn.layers.base import Layer
from repro.nn.model import Sequential

for _module in serialization._EXTENSION_MODULES:  # noqa: SLF001 - the registry under test
    importlib.import_module(_module)
REGISTRY = dict(serialization._LAYER_REGISTRY)  # noqa: SLF001

Shape = Tuple[int, ...]


class Sample(NamedTuple):
    """A tiny config of one kind: a per-sample shape it takes, and ones it must refuse."""

    build: Callable[[], Layer]
    accepts: Shape
    wrong_rank: Optional[Tuple[Shape, type]] = None
    wrong_width: Optional[Tuple[Shape, type]] = None


def _kind(name: str, **config) -> Callable[[], Layer]:
    return lambda: REGISTRY[name](**config)


_IMAGE = dict(accepts=(8, 8, 2), wrong_rank=((8, 2), ShapeError))
_SEQUENCE = dict(
    accepts=(5, 3), wrong_rank=((3,), ShapeError), wrong_width=((5, 4), ConfigurationError)
)
_ANY = dict(accepts=(4, 3))  # kinds with no input contract: every shape passes through

SAMPLES = {
    "Dense": Sample(
        _kind("Dense", in_features=6, out_features=4, seed=0),
        accepts=(6,), wrong_rank=((6, 1), ShapeError), wrong_width=((7,), ConfigurationError),
    ),
    "Conv2D": Sample(
        _kind("Conv2D", in_channels=2, out_channels=3, seed=0),
        wrong_width=((8, 8, 3), ConfigurationError), **_IMAGE,
    ),
    "DepthwiseConv2D": Sample(
        _kind("DepthwiseConv2D", in_channels=2, seed=0),
        wrong_width=((8, 8, 3), ConfigurationError), **_IMAGE,
    ),
    "SeparableConv2D": Sample(
        _kind("SeparableConv2D", in_channels=2, out_channels=3, seed=0),
        wrong_width=((8, 8, 3), ConfigurationError), **_IMAGE,
    ),
    # for the pools "width" is the divisibility rule
    "MaxPool2D": Sample(_kind("MaxPool2D", pool_size=2), wrong_width=((8, 7, 2), ShapeError), **_IMAGE),
    "AvgPool2D": Sample(_kind("AvgPool2D", pool_size=4), wrong_width=((6, 8, 2), ShapeError), **_IMAGE),
    "GlobalAvgPool2D": Sample(_kind("GlobalAvgPool2D"), **_IMAGE),
    "BatchNorm": Sample(
        _kind("BatchNorm", num_features=3), accepts=(4, 3), wrong_width=((4, 5), ConfigurationError)
    ),
    "SimpleRNN": Sample(_kind("SimpleRNN", input_size=3, hidden_size=4, seed=0), **_SEQUENCE),
    "GRUCellLayer": Sample(_kind("GRUCellLayer", input_size=3, hidden_size=4, seed=0), **_SEQUENCE),
    "LSTMLayer": Sample(_kind("LSTMLayer", input_size=3, hidden_size=4, seed=0), **_SEQUENCE),
    "FastGRNNLayer": Sample(_kind("FastGRNNLayer", input_size=3, hidden_size=4, seed=0), **_SEQUENCE),
    "Flatten": Sample(_kind("Flatten"), **_ANY),
    "Dropout": Sample(_kind("Dropout", rate=0.2), **_ANY),
    "ReLU": Sample(_kind("ReLU"), **_ANY),
    "LeakyReLU": Sample(_kind("LeakyReLU", alpha=0.1), **_ANY),
    "Sigmoid": Sample(_kind("Sigmoid"), **_ANY),
    "Tanh": Sample(_kind("Tanh"), **_ANY),
    "Softmax": Sample(_kind("Softmax"), **_ANY),
}


def _batch(shape: Shape) -> np.ndarray:
    return np.random.default_rng(0).standard_normal((2, *shape))


def _raised(call: Callable[[], object], expected: type) -> str:
    with pytest.raises(expected) as excinfo:
        call()
    assert type(excinfo.value) is expected
    return str(excinfo.value)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_forward_plan_and_publish_gate_share_the_layers_own_contract(name):
    assert name in SAMPLES, f"registered layer kind {name!r} has no row in SAMPLES"
    sample = SAMPLES[name]
    layer = sample.build()
    assert type(layer) is REGISTRY[name]
    # an inference no-op in front puts the kind under test at index 1
    model = Sequential([Dropout(0.1), layer], name=f"one-{name}")

    x = _batch(sample.accepts)
    declared = layer.output_shape(sample.accepts)
    assert layer.forward(x).shape[1:] == declared
    assert model.predict(x).shape[1:] == declared
    report = check_model(model, sample.accepts)
    assert report.ok, [f.render() for f in report.findings]
    assert report.output.shape == declared
    assert report.fallback_layers == []  # every registered kind has a native step

    for refused in (sample.wrong_rank, sample.wrong_width):
        if refused is None:
            continue
        shape, error = refused
        bad = _batch(shape)
        message = _raised(lambda: layer.output_shape(shape), error)
        assert layer.name in message  # SeparableConv2D speaks through its '<name>/depthwise'
        assert _raised(lambda: model.forward(bad), error) == message
        assert _raised(lambda: model.predict(bad), error) == message
        findings = check_model(model, shape).findings
        assert [(f.index, f.message) for f in findings] == [(1, message)]


# -- violations that used to escape as bare numpy errors ----------------------

_ESCAPED = {
    "simplernn": (_kind("SimpleRNN", input_size=6, hidden_size=4, seed=0), (5, 9)),
    "gru": (_kind("GRUCellLayer", input_size=6, hidden_size=4, seed=0), (5, 9)),
    "lstm": (_kind("LSTMLayer", input_size=6, hidden_size=4, seed=0), (5, 9)),
    "fastgrnn": (_kind("FastGRNNLayer", input_size=6, hidden_size=4, seed=0), (5, 9)),
    "conv-collapse": (
        _kind("Conv2D", in_channels=1, out_channels=2, kernel_size=5, padding="valid", seed=0),
        (3, 3, 1),
    ),
}


@pytest.mark.parametrize("path", ["forward", "predict"])
@pytest.mark.parametrize("case", sorted(_ESCAPED))
def test_contract_violations_raise_the_layers_named_error_on_both_paths(case, path):
    build, shape = _ESCAPED[case]
    model = Sequential([build()])
    with pytest.raises(ReproError) as excinfo:
        getattr(model, path)(_batch(shape))
    assert model.layers[0].label in str(excinfo.value)


# -- a cost is only quoted for a shape the model can take ---------------------

@pytest.mark.parametrize("shape", [(17, 17, 1), (16, 16, 3)], ids=["indivisible", "channels"])
def test_cost_of_a_shape_no_replica_could_serve_is_an_error_not_a_number(shape):
    model = Sequential(
        [Conv2D(1, 2, 3, seed=0), MaxPool2D(2), Flatten(), Dense(128, 4, seed=1)], name="tiny-cnn"
    )
    device = get_device("raspberry-pi-4")
    assert model.flops((16, 16, 1)) > 0
    assert ALEMProfiler().profile(model, (16, 16, 1), device).latency_s > 0
    for quote in (
        lambda: model.output_shape(shape),
        lambda: model.flops(shape),
        lambda: model_cost(model, shape),
        lambda: ALEMProfiler().profile(model, shape, device),
    ):
        with pytest.raises(ReproError):
            quote()
