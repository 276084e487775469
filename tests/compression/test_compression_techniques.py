"""Tests for pruning, quantization, weight sharing and low-rank compression."""

import numpy as np
import pytest

from repro.compression import (
    binarize_model,
    hash_share_model,
    kmeans_quantize_model,
    low_rank_compress_model,
    magnitude_prune_model,
    quantize_int8_model,
    sparsity,
)
from repro.compression.low_rank import truncated_svd
from repro.compression.pruning import reapply_masks
from repro.eialgorithms import build_mlp
from repro.exceptions import ConfigurationError


@pytest.fixture()
def model(trained_mlp):
    """A fresh copy of the session-trained MLP (compression mutates weights)."""
    return trained_mlp.clone_architecture()


def test_prune_reaches_target_sparsity(model):
    pruned = magnitude_prune_model(model, target_sparsity=0.8)
    assert sparsity(pruned) >= 0.6
    assert pruned.metadata["bytes_per_param"] < 4.0
    assert "prune" in pruned.metadata["compression"]


def test_prune_zero_sparsity_is_identity(model):
    pruned = magnitude_prune_model(model, target_sparsity=0.0)
    assert sparsity(pruned) == sparsity(model)


def test_prune_keeps_original_untouched(model):
    original_weights = model.layers[0].params["W"].copy()
    magnitude_prune_model(model, target_sparsity=0.9)
    np.testing.assert_array_equal(model.layers[0].params["W"], original_weights)


def test_prune_in_place_modifies_model(model):
    magnitude_prune_model(model, target_sparsity=0.9, in_place=True)
    assert sparsity(model) > 0.5


def test_prune_global_threshold_variant(model):
    pruned = magnitude_prune_model(model, target_sparsity=0.7, per_layer=False)
    assert sparsity(pruned) > 0.4


def test_prune_rejects_invalid_sparsity(model):
    with pytest.raises(ConfigurationError):
        magnitude_prune_model(model, target_sparsity=1.0)


def test_prune_preserves_most_accuracy(model, blobs_dataset):
    baseline = model.evaluate(blobs_dataset.x_test, blobs_dataset.y_test)[1]
    pruned = magnitude_prune_model(model, target_sparsity=0.5)
    pruned_accuracy = pruned.evaluate(blobs_dataset.x_test, blobs_dataset.y_test)[1]
    assert pruned_accuracy >= baseline - 0.25


def test_reapply_masks_keeps_zeros(model):
    pruned = magnitude_prune_model(model, target_sparsity=0.9)
    pruned.layers[0].params["W"][...] += 0.001  # simulate fine-tuning drift
    reapply_masks(pruned, reference=pruned)
    assert sparsity(pruned) > 0.0


def test_binarize_produces_two_values_per_layer(model):
    binary = binarize_model(model)
    weights = binary.layers[0].params["W"]
    assert len(np.unique(weights)) <= 2
    assert binary.metadata["bytes_per_param"] == pytest.approx(1 / 8)


def test_kmeans_limits_distinct_values(model):
    quantized = kmeans_quantize_model(model, clusters=8)
    weights = quantized.layers[0].params["W"]
    assert len(np.unique(weights)) <= 8
    assert quantized.metadata["bytes_per_param"] == pytest.approx(3 / 8)


def test_kmeans_rejects_bad_arguments(model):
    with pytest.raises(ConfigurationError):
        kmeans_quantize_model(model, clusters=1)
    with pytest.raises(ConfigurationError):
        kmeans_quantize_model(model, iterations=0)


def test_kmeans_searchsorted_assignment_matches_distance_matrix():
    """The O(N log K) sorted-midpoint assignment equals the O(N*K) argmin."""
    from repro.compression.quantization import _nearest_centroid

    rng = np.random.default_rng(11)
    for _ in range(5):
        flat = rng.standard_normal(1500)
        centroids = rng.standard_normal(16)
        sorted_centroids, assignment = _nearest_centroid(flat, centroids)
        brute = np.argmin(np.abs(flat[:, None] - sorted_centroids[None, :]), axis=1)
        # compare assigned *values*: equidistant ties may pick either
        # neighbour, but the quantized weight is identical either way
        np.testing.assert_allclose(
            sorted_centroids[assignment], sorted_centroids[brute], atol=0.0
        )


def test_kmeans_quantization_unchanged_by_vectorized_lloyd(model):
    """End-to-end result parity with a naive Lloyd reference implementation."""
    quantized = kmeans_quantize_model(model, clusters=8, iterations=6, seed=3)
    reference = model.clone_architecture()
    rng = np.random.default_rng(3)
    for layer in reference.layers:
        for key in layer.params:
            base = key.rsplit("/", 1)[-1]
            if base in ("b", "beta", "gamma") or base.startswith("b_"):
                continue
            weights = layer.params[key]
            flat = weights.ravel()
            if flat.size <= 8:
                continue
            centroids = np.quantile(flat, np.linspace(0.0, 1.0, 8))
            centroids = centroids + rng.normal(0, 1e-9, size=8)
            for _ in range(6):
                assignment = np.argmin(np.abs(flat[:, None] - centroids[None, :]), axis=1)
                for cluster in range(8):
                    members = flat[assignment == cluster]
                    if members.size:
                        centroids[cluster] = members.mean()
            assignment = np.argmin(np.abs(flat[:, None] - centroids[None, :]), axis=1)
            weights[...] = centroids[assignment].reshape(weights.shape)
    for quantized_layer, reference_layer in zip(quantized.layers, reference.layers):
        for key in quantized_layer.params:
            np.testing.assert_allclose(
                quantized_layer.params[key], reference_layer.params[key], atol=1e-12
            )


def test_int8_quantization_bounded_error(model):
    quantized = quantize_int8_model(model)
    original = model.layers[0].params["W"]
    new = quantized.layers[0].params["W"]
    max_abs = np.abs(original).max()
    assert np.max(np.abs(original - new)) <= max_abs / 127.0 + 1e-9
    assert quantized.metadata["bytes_per_param"] == 1.0


def test_quantization_preserves_accuracy_reasonably(model, blobs_dataset):
    baseline = model.evaluate(blobs_dataset.x_test, blobs_dataset.y_test)[1]
    for compressed in (quantize_int8_model(model), kmeans_quantize_model(model, clusters=16)):
        accuracy = compressed.evaluate(blobs_dataset.x_test, blobs_dataset.y_test)[1]
        assert accuracy >= baseline - 0.15


def test_hash_sharing_reduces_distinct_values_and_size(model):
    shared = hash_share_model(model, compression_factor=8.0)
    weights = shared.layers[0].params["W"]
    assert len(np.unique(weights)) <= weights.size / 4
    assert shared.metadata["bytes_per_param"] == pytest.approx(0.5)


def test_hash_sharing_rejects_factor_below_one(model):
    with pytest.raises(ConfigurationError):
        hash_share_model(model, compression_factor=1.0)


def test_truncated_svd_reconstruction_improves_with_rank():
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(20, 12))
    low, high = (np.linalg.norm(matrix - a @ b)
                 for a, b in (truncated_svd(matrix, 2), truncated_svd(matrix, 10)))
    assert high < low
    a, b = truncated_svd(matrix, 12)
    np.testing.assert_allclose(a @ b, matrix, atol=1e-8)


def test_low_rank_compress_records_reduced_storage(model):
    compressed = low_rank_compress_model(model, rank_fraction=0.25)
    assert compressed.metadata["bytes_per_param"] < 4.0
    assert "low_rank" in compressed.metadata["compression"]


def test_low_rank_full_rank_is_lossless(model, blobs_dataset):
    compressed = low_rank_compress_model(model, rank_fraction=1.0)
    np.testing.assert_allclose(
        compressed.predict(blobs_dataset.x_test[:5]), model.predict(blobs_dataset.x_test[:5]), atol=1e-8
    )


def test_low_rank_rejects_invalid_fraction(model):
    with pytest.raises(ConfigurationError):
        low_rank_compress_model(model, rank_fraction=0.0)


def test_compression_composes_prune_then_quantize(model):
    composed = quantize_int8_model(magnitude_prune_model(model, 0.8))
    assert sparsity(composed) > 0.5
    assert composed.metadata["compression"][-2:] == ["prune", "int8"]
