"""Tests for the cloud simulator, the Fig. 3 dataflows, edge-edge collaboration and DDNN."""

import numpy as np
import pytest

from repro.collaboration import (
    CloudSimulator,
    DDNNInference,
    DataflowRunner,
    EdgeCluster,
    TransferLearner,
)
from repro.eialgorithms import build_mlp, build_mobilenet
from repro.exceptions import CollaborationError
from repro.hardware import get_device
from repro.hardware.device import LAN_LINK, WAN_LINK
from repro.nn.datasets import make_blobs, make_personalized_shift
from repro.runtime import EdgeRuntime


@pytest.fixture(scope="module")
def cloud_and_data():
    """A cloud with one trained global model plus a personalized edge distribution."""
    dataset = make_blobs(samples=360, features=10, classes=3, spread=1.5, seed=5)
    cloud = CloudSimulator()
    cloud.train_model(
        lambda: build_mlp(10, 3, hidden=(32,), seed=0, name="global-mlp"),
        dataset.x_train, dataset.y_train, dataset.x_test, dataset.y_test,
        input_shape=(10,), epochs=10, name="global-mlp",
    )
    personalized = make_personalized_shift(dataset, shift=4.0, samples=160, seed=6)
    return cloud, dataset, personalized


# -- cloud simulator -----------------------------------------------------------

def test_cloud_trains_and_serves_models(cloud_and_data):
    cloud, dataset, _ = cloud_and_data
    record = cloud.download("global-mlp")
    assert record.accuracy > 0.8
    assert record.size_bytes > 0
    predictions = cloud.remote_inference("global-mlp", dataset.x_test[:5])
    assert predictions.shape == (5, 3)


def test_cloud_download_is_a_copy(cloud_and_data):
    cloud, _, _ = cloud_and_data
    record = cloud.download("global-mlp")
    record.model.layers[0].params["W"][...] = 0.0
    fresh = cloud.download("global-mlp")
    assert not np.allclose(fresh.model.layers[0].params["W"], 0.0)


def test_cloud_unknown_model_raises(cloud_and_data):
    cloud, _, _ = cloud_and_data
    with pytest.raises(CollaborationError):
        cloud.download("missing")
    with pytest.raises(CollaborationError):
        cloud.remote_inference("missing", np.zeros((1, 10)))
    with pytest.raises(CollaborationError):
        cloud.upload_retrained("missing", build_mlp(10, 3, seed=0))
    with pytest.raises(CollaborationError):
        cloud.aggregate("global-mlp")


def test_cloud_aggregation_averages_uploads(cloud_and_data):
    cloud, dataset, personalized = cloud_and_data
    learner = TransferLearner(epochs=2)
    edge_model = cloud.download("global-mlp").model
    learner.retrain(edge_model, personalized.x_train[:60], personalized.y_train[:60])
    cloud.upload_retrained("global-mlp", edge_model)
    record = cloud.aggregate("global-mlp")
    assert record.metadata["aggregated_from"] == 2
    assert record.model.evaluate(dataset.x_test, dataset.y_test)[1] > 0.5


# -- transfer learning ------------------------------------------------------------

def test_transfer_learner_freezes_feature_layers(cloud_and_data):
    cloud, _, personalized = cloud_and_data
    model = cloud.download("global-mlp").model
    original_first_layer = model.layers[0].params["W"].copy()
    TransferLearner(epochs=3).retrain(model, personalized.x_train, personalized.y_train)
    np.testing.assert_array_equal(model.layers[0].params["W"], original_first_layer)
    assert model.metadata["personalized"] is True
    assert all(layer.trainable for layer in model.layers)


def test_transfer_learning_improves_personalized_accuracy(cloud_and_data):
    cloud, _, personalized = cloud_and_data
    model = cloud.download("global-mlp").model
    before = model.evaluate(personalized.x_test, personalized.y_test)[1]
    TransferLearner(epochs=6, learning_rate=0.05).retrain(
        model, personalized.x_train, personalized.y_train
    )
    after = model.evaluate(personalized.x_test, personalized.y_test)[1]
    assert after >= before


# -- dataflows (Fig. 3) --------------------------------------------------------------

def test_dataflow_edge_beats_cloud_on_latency_and_bandwidth(cloud_and_data):
    cloud, dataset, _ = cloud_and_data
    runner = DataflowRunner(cloud, get_device("raspberry-pi-3"), WAN_LINK)
    cloud_metrics = runner.cloud_inference("global-mlp", dataset.x_test, dataset.y_test)
    edge_metrics, _ = runner.edge_inference("global-mlp", dataset.x_test, dataset.y_test)
    assert edge_metrics.per_sample_latency_s < cloud_metrics.per_sample_latency_s
    assert edge_metrics.bytes_uploaded == 0.0
    assert cloud_metrics.bytes_uploaded > 0.0


def test_dataflow_retraining_wins_on_personalized_accuracy(cloud_and_data):
    cloud, _, personalized = cloud_and_data
    runner = DataflowRunner(cloud, get_device("raspberry-pi-4"), WAN_LINK)
    edge_metrics, _ = runner.edge_inference("global-mlp", personalized.x_test, personalized.y_test)
    retrain_metrics, personalized_model = runner.edge_retraining(
        "global-mlp",
        personalized.x_train,
        personalized.y_train,
        personalized.x_test,
        personalized.y_test,
        learner=TransferLearner(epochs=6, learning_rate=0.05),
        upload_to_cloud=False,
    )
    assert retrain_metrics.accuracy >= edge_metrics.accuracy
    assert personalized_model.metadata.get("personalized") is True
    assert retrain_metrics.dataflow == "edge-retraining"
    assert set(retrain_metrics.as_dict()) >= {"dataflow", "accuracy", "total_latency_s"}


# -- edge-edge -------------------------------------------------------------------------

def _homogeneous_cluster(count=3):
    runtimes = [EdgeRuntime(get_device("raspberry-pi-4"), name=f"pi{i}") for i in range(count)]
    return EdgeCluster(runtimes, LAN_LINK)


def test_edge_cluster_allocation_proportional_and_faster():
    cluster = _homogeneous_cluster(3)
    plan = cluster.allocate_training(total_compute_gflop=30_000.0)
    assert sum(plan.shares.values()) == pytest.approx(1.0)
    assert plan.speedup > 2.0  # three equal edges give ~3x
    assert plan.makespan_s < plan.single_edge_seconds


def test_edge_cluster_heterogeneous_shares_follow_power():
    cluster = EdgeCluster(
        [EdgeRuntime(get_device("raspberry-pi-3"), name="pi"),
         EdgeRuntime(get_device("jetson-tx2"), name="tx2")],
        LAN_LINK,
    )
    plan = cluster.allocate_training(10_000.0)
    assert plan.shares["tx2"] > plan.shares["pi"]


def test_edge_cluster_pipeline_and_errors():
    cluster = _homogeneous_cluster(2)
    from repro.runtime import Task

    stages = [("pi0", Task("predict-arrival", compute_seconds=0.2)),
              ("pi1", Task("preheat", compute_seconds=0.5))]
    total, executed = cluster.run_pipeline(stages, payload_bytes=2048.0)
    assert total > 0.7
    assert len(executed) == 2
    with pytest.raises(CollaborationError):
        cluster.run_pipeline([("ghost", Task("x", compute_seconds=0.1))])
    with pytest.raises(CollaborationError):
        cluster.run_pipeline([])
    with pytest.raises(CollaborationError):
        cluster.allocate_training(0.0)
    with pytest.raises(CollaborationError):
        EdgeCluster([])


# -- DDNN --------------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ddnn_models(images_dataset):
    from repro.nn.optimizers import Adam

    edge = build_mobilenet((16, 16, 1), 3, 0.25, use_batchnorm=False, seed=0, name="edge-branch")
    edge.fit(images_dataset.x_train, images_dataset.y_train, epochs=4, batch_size=16, optimizer=Adam(0.01))
    cloud = build_mobilenet((16, 16, 1), 3, 1.0, use_batchnorm=False, seed=1, name="cloud-branch")
    cloud.fit(images_dataset.x_train, images_dataset.y_train, epochs=6, batch_size=16, optimizer=Adam(0.01))
    return edge, cloud


def test_ddnn_saves_bandwidth_versus_cloud_only(images_dataset, ddnn_models):
    edge, cloud = ddnn_models
    ddnn = DDNNInference(
        edge, cloud, get_device("raspberry-pi-3"), get_device("cloud-datacenter"),
        WAN_LINK, (16, 16, 1), confidence_threshold=0.55,
    )
    result = ddnn.run(images_dataset.x_test, images_dataset.y_test)
    cloud_only_bytes = images_dataset.x_test.nbytes
    assert result.bytes_uploaded < cloud_only_bytes
    assert 0.0 <= result.local_exit_fraction <= 1.0
    assert result.accuracy >= result.edge_only_accuracy - 0.05
    assert result.total_latency_s < result.cloud_only_latency_s


def test_ddnn_threshold_one_escalates_everything(images_dataset, ddnn_models):
    edge, cloud = ddnn_models
    ddnn = DDNNInference(
        edge, cloud, get_device("raspberry-pi-3"), get_device("cloud-datacenter"),
        WAN_LINK, (16, 16, 1), confidence_threshold=1.0,
    )
    result = ddnn.run(images_dataset.x_test[:20], images_dataset.y_test[:20])
    assert result.local_exit_fraction <= 0.5


def test_ddnn_rejects_invalid_inputs(images_dataset, ddnn_models):
    edge, cloud = ddnn_models
    with pytest.raises(CollaborationError):
        DDNNInference(edge, cloud, get_device("raspberry-pi-3"), get_device("cloud-datacenter"),
                      WAN_LINK, (16, 16, 1), confidence_threshold=0.0)
    ddnn = DDNNInference(edge, cloud, get_device("raspberry-pi-3"), get_device("cloud-datacenter"),
                         WAN_LINK, (16, 16, 1))
    with pytest.raises(CollaborationError):
        ddnn.run(np.zeros((0, 16, 16, 1)), np.zeros(0))


# -- dataflow regressions (PR 2) -----------------------------------------------------

def test_edge_retraining_does_not_mutate_the_downloaded_record(cloud_and_data):
    """Regression: retraining must fine-tune a private copy, so even a cloud
    that serves its registry record directly keeps its global model pristine."""
    cloud, dataset, personalized = cloud_and_data

    class SharingCloud:
        """Serves the *same* record object to every caller (no defensive copy)."""

        def __init__(self, inner):
            self.inner = inner
            self.device = inner.device
            self.profiler = inner.profiler
            self.record = inner.download("global-mlp")

        def download(self, name):
            return self.record

        def upload_retrained(self, name, model):
            self.inner.upload_retrained(name, model)

    sharing = SharingCloud(cloud)
    runner = DataflowRunner(sharing, get_device("raspberry-pi-4"), WAN_LINK)
    before = {k: v.copy() for k, v in sharing.record.model.get_weights().items()}
    metrics, personalized_model = runner.edge_retraining(
        "global-mlp",
        personalized.x_train[:60],
        personalized.y_train[:60],
        personalized.x_test,
        personalized.y_test,
        learner=TransferLearner(epochs=2),
        upload_to_cloud=False,
    )
    after = sharing.record.model.get_weights()
    for key in before:
        np.testing.assert_array_equal(before[key], after[key])
    assert personalized_model is not sharing.record.model
    assert personalized_model.metadata.get("personalized") is True
    assert "personalized" not in sharing.record.model.metadata


def test_cloud_inference_honors_explicit_zero_bytes_per_sample(cloud_and_data):
    """Regression: bytes_per_sample=0.0 (pre-staged data) fell back to nbytes."""
    cloud, dataset, _ = cloud_and_data
    runner = DataflowRunner(cloud, get_device("raspberry-pi-4"), WAN_LINK)
    staged = runner.cloud_inference(
        "global-mlp", dataset.x_test, dataset.y_test, bytes_per_sample=0.0
    )
    assert staged.bytes_uploaded == 0.0
    default = runner.cloud_inference("global-mlp", dataset.x_test, dataset.y_test)
    assert default.bytes_uploaded == pytest.approx(
        float(dataset.x_test[0].nbytes) * len(dataset.x_test)
    )
