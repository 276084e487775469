"""Tests for the Sequential container, metrics, datasets and flops."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn import metrics
from repro.nn.datasets import make_blobs, make_images, make_personalized_shift, make_sequences, one_hot
from repro.nn.flops import activation_bytes, model_cost
from repro.nn.layers import Dense, ReLU, Softmax
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam


def _small_classifier(seed=0):
    return Sequential([Dense(10, 16, seed=seed), ReLU(), Dense(16, 3, seed=seed + 1), Softmax()],
                      name="clf")


def test_fit_improves_accuracy(blobs_dataset):
    model = _small_classifier()
    history = model.fit(blobs_dataset.x_train, blobs_dataset.y_train, epochs=10,
                        batch_size=32, optimizer=Adam(0.01))
    assert history.epochs == 10
    assert history.accuracy[-1] > history.accuracy[0]
    assert model.evaluate(blobs_dataset.x_test, blobs_dataset.y_test)[1] > 0.8


def test_fit_with_validation_records_val_metrics(blobs_dataset):
    model = _small_classifier(seed=3)
    history = model.fit(
        blobs_dataset.x_train, blobs_dataset.y_train, epochs=3, batch_size=32,
        validation_data=(blobs_dataset.x_test, blobs_dataset.y_test), optimizer=Adam(0.01),
    )
    assert len(history.val_loss) == 3 and len(history.val_accuracy) == 3


def test_fit_rejects_bad_arguments(blobs_dataset):
    model = _small_classifier()
    with pytest.raises(ConfigurationError):
        model.fit(blobs_dataset.x_train, blobs_dataset.y_train, epochs=0)
    with pytest.raises(ConfigurationError):
        model.fit(blobs_dataset.x_train, blobs_dataset.y_train[:10])


def test_predict_classes_and_output_shape():
    model = _small_classifier()
    x = np.random.default_rng(0).normal(size=(5, 10))
    assert model.predict(x).shape == (5, 3)
    assert model.predict_classes(x).shape == (5,)
    assert model.output_shape((10,)) == (3,)


def test_param_count_and_size_bytes_metadata():
    model = _small_classifier()
    expected = 10 * 16 + 16 + 16 * 3 + 3
    assert model.param_count() == expected
    assert model.size_bytes() == expected * 4.0
    model.metadata["bytes_per_param"] = 1.0
    assert model.size_bytes() == expected * 1.0


def test_get_set_weights_roundtrip():
    source = _small_classifier(seed=1)
    target = _small_classifier(seed=9)
    target.set_weights(source.get_weights())
    x = np.random.default_rng(1).normal(size=(4, 10))
    np.testing.assert_allclose(source.predict(x), target.predict(x))


def test_clone_architecture_is_independent():
    model = _small_classifier(seed=2)
    clone = model.clone_architecture()
    clone.layers[0].params["W"][...] = 0.0
    assert not np.allclose(model.layers[0].params["W"], 0.0)


def test_summary_mentions_all_layers():
    text = _small_classifier().summary()
    assert "Dense" in text and "Softmax" in text


def test_add_returns_self_for_chaining():
    model = Sequential(name="chained")
    assert model.add(Dense(2, 2, seed=0)) is model
    assert len(model) == 1


# -- metrics ---------------------------------------------------------------

def test_accuracy_with_probabilities_and_indices():
    probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
    labels = np.array([0, 1, 1])
    assert metrics.accuracy(probs, labels) == pytest.approx(2 / 3)
    assert metrics.accuracy(np.array([0, 1, 1]), labels) == 1.0


def test_top_k_accuracy_orders_correctly():
    probs = np.array([[0.1, 0.2, 0.7], [0.3, 0.4, 0.3]])
    labels = np.array([1, 0])
    assert metrics.top_k_accuracy(probs, labels, k=1) == pytest.approx(0.0)
    assert metrics.top_k_accuracy(probs, labels, k=2) == pytest.approx(1.0)


def test_confusion_matrix_and_prf():
    predictions = np.array([0, 0, 1, 1, 2, 2])
    targets = np.array([0, 1, 1, 1, 2, 0])
    matrix = metrics.confusion_matrix(predictions, targets, 3)
    assert matrix.sum() == 6
    assert matrix[1, 1] == 2
    precision, recall, f1 = metrics.precision_recall_f1(predictions, targets, 3)
    assert precision.shape == recall.shape == f1.shape == (3,)
    assert np.all((0 <= f1) & (f1 <= 1))


def test_iou_identical_and_disjoint_boxes():
    box = (0, 0, 10, 10)
    assert metrics.iou(box, box) == pytest.approx(1.0)
    assert metrics.iou(box, (20, 20, 30, 30)) == 0.0
    assert 0 < metrics.iou(box, (5, 5, 15, 15)) < 1


def test_mean_average_precision_perfect_and_empty():
    truths = [[(0, 0, 10, 10)], [(5, 5, 15, 15)]]
    perfect = [[((0, 0, 10, 10), 0.9)], [((5, 5, 15, 15), 0.8)]]
    assert metrics.mean_average_precision(perfect, truths) == pytest.approx(1.0)
    assert metrics.mean_average_precision([[], []], truths) == 0.0


def test_bleu_score_identity_and_mismatch():
    sentence = "the edge runs the model locally".split()
    assert metrics.bleu_score(sentence, sentence) == pytest.approx(1.0)
    assert metrics.bleu_score(sentence, "completely different words here now ok".split()) == 0.0


# -- datasets ----------------------------------------------------------------

def test_make_blobs_shapes_and_classes():
    ds = make_blobs(samples=100, features=5, classes=4, seed=1)
    assert ds.x_train.shape[1] == 5
    assert ds.num_classes == 4
    assert set(np.unique(ds.y_train)).issubset(set(range(4)))
    assert ds.input_shape == (5,)


def test_make_images_has_spatial_structure():
    ds = make_images(samples=40, image_size=8, classes=2, seed=1)
    assert ds.x_train.shape[1:] == (8, 8, 1)


def test_make_sequences_shapes():
    ds = make_sequences(samples=60, steps=12, features=3, classes=3, seed=1)
    assert ds.x_train.shape[1:] == (12, 3)


def test_dataset_subset_and_one_hot():
    ds = make_blobs(samples=100, features=4, classes=2, seed=0)
    small = ds.subset(20)
    assert len(small.x_train) == 20
    onehot = one_hot(np.array([0, 1, 1]), 2)
    np.testing.assert_array_equal(onehot, [[1, 0], [0, 1], [0, 1]])


def test_personalized_shift_changes_distribution():
    base = make_blobs(samples=100, features=6, classes=3, seed=0)
    shifted = make_personalized_shift(base, shift=3.0, samples=50, seed=1)
    assert shifted.x_train.shape[1] == 6
    assert abs(shifted.x_train.mean() - base.x_train.mean()) > 1.0


def test_dataset_generators_reject_bad_sizes():
    with pytest.raises(ConfigurationError):
        make_blobs(samples=0)
    with pytest.raises(ConfigurationError):
        make_images(image_size=2)


# -- flops ---------------------------------------------------------------------

def test_model_cost_fields_consistent():
    model = _small_classifier()
    cost = model_cost(model, (10,))
    assert cost.params == model.param_count()
    assert cost.flops == model.flops((10,))
    assert cost.size_bytes == model.size_bytes()
    assert cost.size_mb == pytest.approx(cost.size_bytes / 1024**2)
    assert cost.activation_bytes >= 10 * 4


def test_activation_bytes_tracks_widest_layer():
    wide = Sequential([Dense(4, 100, seed=0), ReLU(), Dense(100, 2, seed=1)])
    narrow = Sequential([Dense(4, 8, seed=0), ReLU(), Dense(8, 2, seed=1)])
    assert activation_bytes(wide, (4,)) > activation_bytes(narrow, (4,))
