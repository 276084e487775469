"""Full-model serialization round-trips: every layer kind, plus compressed models.

The contract under test: ``deserialize_model(serialize_model(m))`` must
return a model whose ``predict`` matches the original to 1e-6 on every
layer type in ``nn/layers/`` (and FastGRNN), including non-parameter
state (BatchNorm running statistics) and compression metadata
(``bytes_per_param``), with a stable content fingerprint — and unknown
layer kinds must fail loudly instead of reconstructing a wrong
architecture.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.pruning import magnitude_prune_model
from repro.compression.quantization import kmeans_quantize_model, quantize_int8_model
from repro.eialgorithms.fastgrnn import FastGRNNLayer
from repro.exceptions import SerializationError
from repro.nn import serialization
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
    Layer,
    LeakyReLU,
    LSTMLayer,
    MaxPool2D,
    ReLU,
    SeparableConv2D,
    Sigmoid,
    SimpleRNN,
    Softmax,
    Tanh,
)
from repro.nn.model import Sequential


def _dense_tail(features: int) -> list:
    return [Dense(features, 3, seed=9), Softmax()]


#: name -> (layer builder, input shape without batch). Each case wraps the
#: layer under test with enough glue to reach a predict()-able output.
LAYER_CASES = {
    "dense": (lambda: [Dense(6, 4, seed=1), *_dense_tail(4)], (6,)),
    "dense-no-bias": (lambda: [Dense(6, 4, use_bias=False, seed=1), *_dense_tail(4)], (6,)),
    "relu": (lambda: [Dense(6, 4, seed=1), ReLU(), *_dense_tail(4)], (6,)),
    "leaky-relu": (lambda: [Dense(6, 4, seed=1), LeakyReLU(alpha=0.2), *_dense_tail(4)], (6,)),
    "sigmoid": (lambda: [Dense(6, 4, seed=1), Sigmoid(), *_dense_tail(4)], (6,)),
    "tanh": (lambda: [Dense(6, 4, seed=1), Tanh(), *_dense_tail(4)], (6,)),
    "softmax-full-grad": (lambda: [Dense(6, 4, seed=1), Softmax(pass_through_grad=False)], (6,)),
    "batchnorm": (lambda: [Dense(6, 4, seed=1), BatchNorm(4), *_dense_tail(4)], (6,)),
    "dropout": (lambda: [Dense(6, 4, seed=1), Dropout(rate=0.3), *_dense_tail(4)], (6,)),
    "conv": (
        lambda: [Conv2D(1, 3, kernel_size=3, stride=2, padding="valid", seed=1),
                 Flatten(), *_dense_tail(27)],
        (8, 8, 1),
    ),
    "depthwise-conv": (
        lambda: [DepthwiseConv2D(2, kernel_size=3, seed=1), Flatten(), *_dense_tail(32)],
        (4, 4, 2),
    ),
    "separable-conv": (
        lambda: [SeparableConv2D(2, 3, kernel_size=3, seed=1), Flatten(), *_dense_tail(48)],
        (4, 4, 2),
    ),
    "max-pool": (lambda: [MaxPool2D(pool_size=2), Flatten(), *_dense_tail(8)], (4, 4, 2)),
    "avg-pool": (lambda: [AvgPool2D(pool_size=2), Flatten(), *_dense_tail(8)], (4, 4, 2)),
    "global-avg-pool": (lambda: [GlobalAvgPool2D(), *_dense_tail(2)], (4, 4, 2)),
    "simple-rnn": (lambda: [SimpleRNN(5, 7, seed=1), *_dense_tail(7)], (6, 5)),
    "gru": (lambda: [GRUCellLayer(5, 7, seed=1), *_dense_tail(7)], (6, 5)),
    "lstm": (lambda: [LSTMLayer(5, 7, forget_bias=1.5, seed=1), *_dense_tail(7)], (6, 5)),
    "fastgrnn": (
        lambda: [FastGRNNLayer(5, 7, zeta_init=0.9, nu_init=0.1, seed=1), *_dense_tail(7)],
        (6, 5),
    ),
}


def _inputs(shape, batch=4, seed=0):
    return np.random.default_rng(seed).normal(size=(batch, *shape))


@pytest.mark.parametrize("case", sorted(LAYER_CASES))
def test_full_model_roundtrip_every_layer_kind(case):
    build, shape = LAYER_CASES[case]
    model = Sequential(build(), name=f"case-{case}")
    model.metadata["note"] = case
    x = _inputs(shape)
    restored = serialization.deserialize_model(serialization.serialize_model(model))
    assert restored.name == model.name
    assert restored.metadata["note"] == case
    assert [l.__class__ for l in restored.layers] == [l.__class__ for l in model.layers]
    np.testing.assert_allclose(restored.predict(x), model.predict(x), atol=1e-6)
    assert serialization.model_fingerprint(restored) == serialization.model_fingerprint(model)


@pytest.mark.parametrize("case", sorted(LAYER_CASES))
def test_save_load_model_file_roundtrip(case, tmp_path):
    build, shape = LAYER_CASES[case]
    model = Sequential(build(), name=f"case-{case}")
    x = _inputs(shape)
    path = serialization.save_model(model, tmp_path / f"{case}.npz")
    restored = serialization.load_model(path)
    np.testing.assert_allclose(restored.predict(x), model.predict(x), atol=1e-6)


@pytest.mark.parametrize(
    "compress",
    [quantize_int8_model, lambda m: kmeans_quantize_model(m, clusters=8),
     lambda m: magnitude_prune_model(m, target_sparsity=0.5)],
    ids=["int8", "kmeans", "prune"],
)
def test_compressed_model_roundtrip(compress):
    model = Sequential(
        [Dense(6, 8, seed=1), ReLU(), Dense(8, 3, seed=2), Softmax()], name="base"
    )
    compressed = compress(model)
    x = _inputs((6,))
    restored = serialization.deserialize_model(serialization.serialize_model(compressed))
    np.testing.assert_allclose(restored.predict(x), compressed.predict(x), atol=1e-6)
    # compression metadata (effective storage, technique markers) must travel
    assert restored.metadata.get("bytes_per_param") == compressed.metadata.get("bytes_per_param")
    assert restored.metadata.get("compression") == compressed.metadata.get("compression")


def test_trained_batchnorm_running_stats_roundtrip():
    """The PR-5 bugfix: non-weight layer state must survive the round trip."""
    model = Sequential(
        [Dense(6, 4, seed=1), BatchNorm(4), *_dense_tail(4)], name="bn"
    )
    x = _inputs((6,), batch=16)
    model.fit(x, np.zeros(16, dtype=np.int64), epochs=2, batch_size=8)
    bn = model.layers[1]
    assert not np.allclose(bn.running_mean, 0.0)  # training moved the stats

    restored = serialization.deserialize_model(serialization.serialize_model(model))
    np.testing.assert_allclose(restored.layers[1].running_mean, bn.running_mean)
    np.testing.assert_allclose(restored.layers[1].running_var, bn.running_var)
    np.testing.assert_allclose(restored.predict(x), model.predict(x), atol=1e-6)


def test_recurrent_initializer_config_roundtrip():
    """LSTM forget_bias / FastGRNN zeta+nu init survive as architecture config."""
    model = Sequential(
        [LSTMLayer(5, 7, forget_bias=2.5, seed=1), *_dense_tail(7)], name="r"
    )
    restored = serialization.deserialize_model(serialization.serialize_model(model))
    assert restored.layers[0].forget_bias == 2.5

    fg = Sequential([FastGRNNLayer(5, 7, zeta_init=0.7, nu_init=0.2, seed=1)], name="f")
    restored = serialization.deserialize_model(serialization.serialize_model(fg))
    assert restored.layers[0].zeta_init == 0.7
    assert restored.layers[0].nu_init == 0.2


class _UnregisteredLayer(Layer):
    kind = "mystery"

    def forward(self, inputs, training=False):  # pragma: no cover - never run
        return inputs


def test_serialize_unknown_layer_kind_raises():
    model = Sequential([Dense(4, 2, seed=0), _UnregisteredLayer()], name="odd")
    with pytest.raises(SerializationError, match="unknown layer kind"):
        serialization.serialize_model(model)


def test_deserialize_unknown_layer_kind_raises():
    """An artifact naming a class this process cannot rebuild must fail loudly."""
    import io
    import json

    import numpy as _np

    header = json.dumps({
        "format": "repro-model/v1", "name": "odd", "metadata": {},
        "layers": [{"class": "NoSuchLayer", "config": {"name": "x"}}],
    })
    buffer = io.BytesIO()
    _np.savez(buffer, __model_json__=_np.frombuffer(header.encode(), dtype=_np.uint8))
    with pytest.raises(SerializationError, match="unknown layer kind"):
        serialization.deserialize_model(buffer.getvalue())


def test_deserialize_rejects_incomplete_artifacts():
    """Missing arrays must not silently leave random-initialized weights."""
    import io

    import numpy as _np

    model = Sequential([Dense(4, 2, seed=0), *_dense_tail(2)], name="w")
    with _np.load(io.BytesIO(serialization.serialize_model(model))) as archive:
        arrays = {key: archive[key] for key in archive.files}
    arrays.pop("param:0:W")  # strip one parameter array
    buffer = io.BytesIO()
    _np.savez(buffer, **arrays)
    with pytest.raises(SerializationError, match="missing"):
        serialization.deserialize_model(buffer.getvalue())


def test_deserialize_corrupt_header_raises_serialization_error():
    import io

    import numpy as _np

    buffer = io.BytesIO()
    _np.savez(buffer, __model_json__=_np.frombuffer(b"not json {", dtype=_np.uint8))
    with pytest.raises(SerializationError, match="corrupt"):
        serialization.deserialize_model(buffer.getvalue())
    with pytest.raises(SerializationError):
        serialization.deserialize_model(b"not an npz at all")


def test_deserialize_rejects_weights_only_archives():
    import io

    buffer = io.BytesIO()
    np.savez(buffer, **Sequential([Dense(4, 2, seed=0)], name="w").get_weights())
    with pytest.raises(SerializationError, match="no architecture header"):
        serialization.deserialize_model(buffer.getvalue())


def test_fingerprint_tracks_content_not_serialization_time():
    model = Sequential([Dense(4, 2, seed=0), *_dense_tail(2)], name="fp")
    before = serialization.model_fingerprint(model)
    assert before == serialization.model_fingerprint(model)
    clone = serialization.deserialize_model(serialization.serialize_model(model))
    assert serialization.model_fingerprint(clone) == before
    clone.layers[0].params["W"][0, 0] += 1.0
    assert serialization.model_fingerprint(clone) != before
