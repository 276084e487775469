"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alem import ALEM, ALEMRequirement
from repro.compression.pruning import magnitude_prune_model, sparsity
from repro.compression.quantization import quantize_int8_model
from repro.eialgorithms import build_mlp
from repro.hardware import ALEMProfiler, get_device
from repro.nn import metrics
from repro.nn.layers import Dense, ReLU, Softmax
from repro.nn.model import Sequential
from repro.serving.api import parse_path


finite_metric = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
probability = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def alem_tuples(draw):
    return ALEM(
        accuracy=draw(probability),
        latency_s=draw(finite_metric),
        energy_j=draw(finite_metric),
        memory_mb=draw(finite_metric),
    )


@given(alem_tuples())
@settings(max_examples=60, deadline=None)
def test_alem_dict_roundtrip(point):
    rebuilt = ALEM(**{
        "accuracy": point.as_dict()["accuracy"],
        "latency_s": point.as_dict()["latency_s"],
        "energy_j": point.as_dict()["energy_j"],
        "memory_mb": point.as_dict()["memory_mb"],
    })
    assert rebuilt == point


@given(alem_tuples(), probability, finite_metric, finite_metric, finite_metric)
@settings(max_examples=60, deadline=None)
def test_requirement_violations_consistent_with_satisfaction(
    point, min_accuracy, max_latency, max_energy, max_memory
):
    requirement = ALEMRequirement(
        min_accuracy=min_accuracy,
        max_latency_s=max_latency,
        max_energy_j=max_energy,
        max_memory_mb=max_memory,
    )
    assert requirement.satisfied_by(point) == (not requirement.violations(point))


@given(st.floats(min_value=0.0, max_value=0.98), st.integers(min_value=1, max_value=5))
@settings(max_examples=20, deadline=None)
def test_pruning_sparsity_monotone_and_bounded(target, seed):
    model = build_mlp(8, 3, hidden=(16,), seed=seed)
    pruned = magnitude_prune_model(model, target_sparsity=target)
    achieved = sparsity(pruned)
    assert 0.0 <= achieved <= 1.0
    assert achieved >= max(0.0, target - 0.35)  # biases are never pruned


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_int8_quantization_error_bounded_for_any_seed(seed):
    model = build_mlp(6, 2, hidden=(8,), seed=seed)
    quantized = quantize_int8_model(model)
    for layer, qlayer in zip(model.layers, quantized.layers):
        for key in layer.params:
            if key == "b":
                continue
            scale = np.abs(layer.params[key]).max() / 127.0
            assert np.max(np.abs(layer.params[key] - qlayer.params[key])) <= scale + 1e-12


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=100),
)
@settings(max_examples=30, deadline=None)
def test_accuracy_metric_bounds(samples, classes, seed):
    rng = np.random.default_rng(seed)
    predictions = rng.random((samples, classes))
    labels = rng.integers(0, classes, size=samples)
    value = metrics.accuracy(predictions, labels)
    assert 0.0 <= value <= 1.0
    assert metrics.top_k_accuracy(predictions, labels, k=classes) == 1.0


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=64))
@settings(max_examples=25, deadline=None)
def test_profiler_latency_positive_and_monotone_in_width(hidden_small, extra):
    device = get_device("raspberry-pi-3")
    profiler = ALEMProfiler()
    small = Sequential([Dense(8, hidden_small, seed=0), ReLU(), Dense(hidden_small, 2, seed=1), Softmax()])
    large = Sequential(
        [Dense(8, hidden_small + extra, seed=0), ReLU(), Dense(hidden_small + extra, 2, seed=1), Softmax()]
    )
    small_profile = profiler.profile(small, (8,), device)
    large_profile = profiler.profile(large, (8,), device)
    assert small_profile.latency_s > 0
    assert large_profile.latency_s >= small_profile.latency_s
    assert large_profile.memory_mb >= small_profile.memory_mb


@given(
    st.sampled_from(["safety", "vehicles", "home", "health"]),
    st.text(alphabet="abcdefghij_", min_size=1, max_size=12),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_url_grammar_roundtrip_for_algorithm_calls(scenario, algorithm, value):
    request = parse_path(f"/ei_algorithms/{scenario}/{algorithm}/{{count={value}}}")
    assert request.scenario == scenario
    assert request.algorithm == algorithm
    assert request.args == {"count": value}


@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_url_grammar_roundtrip_for_data_calls(start, end):
    request = parse_path(f"/ei_data/historical/sensor7/?start={start}&end={end}")
    assert request.sensor_id == "sensor7"
    assert request.args["start"] == float(start)
    assert request.args["end"] == float(end)


# -- durable control plane (PR 10) -------------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=40),
)
json_payloads = st.dictionaries(
    st.text(max_size=20),
    st.one_of(json_scalars, st.lists(json_scalars, max_size=5),
              st.dictionaries(st.text(max_size=10), json_scalars, max_size=4)),
    max_size=8,
)


@given(json_payloads)
@settings(max_examples=80, deadline=None)
def test_wal_record_encode_decode_roundtrip(payload):
    from repro.core.wal import decode_record, encode_record

    blob = encode_record(payload)
    decoded, end = decode_record(blob)
    assert decoded == payload
    assert end == len(blob)


@given(st.lists(json_payloads, min_size=1, max_size=6), st.data())
@settings(max_examples=60, deadline=None)
def test_wal_scan_of_any_prefix_yields_a_record_prefix(payloads, data):
    """Cutting a WAL at ANY byte (the kill -9 model) loses at most the
    torn record at the cut — never an earlier record, never an error."""
    from repro.core.wal import encode_record, scan_records

    buf = b"".join(encode_record(p) for p in payloads)
    cut = data.draw(st.integers(min_value=0, max_value=len(buf)))
    records, clean_end, error = scan_records(buf[:cut])
    assert error is None
    assert records == payloads[: len(records)]
    assert clean_end <= cut


@given(st.lists(st.binary(max_size=512), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_blob_store_put_get_byte_identity(blobs):
    import tempfile

    from repro.core.store import BlobStore, content_key

    with tempfile.TemporaryDirectory() as root:
        store = BlobStore(root)
        keys = [store.put(blob) for blob in blobs]
        for blob, key in zip(blobs, keys):
            assert key == content_key(blob)
            assert store.get(key) == blob
        # distinct contents get distinct addresses; duplicates collapse
        assert len(store) == len({bytes(b) for b in blobs})
        assert store.verify_all() == len(store)
