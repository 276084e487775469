"""End-to-end integration tests exercising the Section III.E walk-through.

The paper's canonical story: deploy OpenEI on a Raspberry Pi, read
real-time camera data through libei, call the safety detection algorithm,
have the model selector choose an optimized model, run it through the
package manager, and collaborate with the cloud for personalization.
"""

import numpy as np
import pytest

from repro.apps import register_all
from repro.collaboration import CloudSimulator, DataflowRunner, TransferLearner
from repro.compression import magnitude_prune_model, quantize_int8_model
from repro.core import ALEMRequirement, ModelZoo, OpenEI, OptimizationTarget
from repro.eialgorithms import build_mlp, build_mobilenet, build_vgg_lite
from repro.hardware import get_device
from repro.hardware.device import WAN_LINK
from repro.nn.datasets import make_blobs, make_images, make_personalized_shift
from repro.nn.optimizers import Adam
from repro.serving import LibEIClient, LibEIServer


@pytest.fixture(scope="module")
def full_stack(images_dataset):
    """OpenEI on a Pi with a populated, partly-compressed zoo and all four scenarios."""
    zoo = ModelZoo()
    heavy = build_vgg_lite((16, 16, 1), 3, 0.5, seed=0, name="vgg-0.5x")
    heavy.fit(images_dataset.x_train, images_dataset.y_train, epochs=3, batch_size=16, optimizer=Adam(0.005))
    light = build_mobilenet((16, 16, 1), 3, 0.5, seed=0, name="mobilenet-0.5x")
    light.fit(images_dataset.x_train, images_dataset.y_train, epochs=3, batch_size=16, optimizer=Adam(0.005))
    compressed = quantize_int8_model(magnitude_prune_model(light, 0.5))
    compressed.name = "mobilenet-0.5x-compressed"
    zoo.register("vgg-0.5x", heavy, task="image-classification", input_shape=(16, 16, 1))
    zoo.register("mobilenet-0.5x", light, task="image-classification", input_shape=(16, 16, 1))
    zoo.register("mobilenet-0.5x-compressed", compressed, task="image-classification",
                 input_shape=(16, 16, 1), optimizations=("prune", "int8"))
    openei = OpenEI(device_name="raspberry-pi-4", zoo=zoo)
    register_all(openei, seed=0)
    return openei


def test_walkthrough_detection_over_rest(full_stack):
    """Deploy-and-play: the Fig. 6 URLs answer over a live HTTP endpoint."""
    server = LibEIServer(full_stack)
    with server:
        client = LibEIClient(server.address)
        frame = client.get("/ei_data/realtime/camera1/%7Btimestamp=now%7D")
        assert frame["status"] == "ok"
        detection = client.get("/ei_algorithms/safety/detection/%7Bvideo=camera1%7D")
        assert detection["status"] == "ok"
        assert isinstance(detection["result"]["detections"], list)


def test_walkthrough_selection_then_inference(full_stack, images_dataset):
    """Model selector picks a feasible optimized model, package manager runs it."""
    requirement = ALEMRequirement(min_accuracy=0.6, max_memory_mb=full_stack.device.memory_mb)
    selection, outcome = full_stack.infer_with_selection(
        "image-classification",
        images_dataset.x_test[:8],
        requirement=requirement,
        target=OptimizationTarget.LATENCY,
        x_test=images_dataset.x_test,
        y_test=images_dataset.y_test,
    )
    assert selection.selected.alem.accuracy >= 0.6
    assert outcome.predictions.shape == (8, 3)
    # the latency-optimal pick must not be the heavyweight VGG
    assert selection.selected_name != "vgg-0.5x"


def test_walkthrough_urgent_inference_meets_deadline(full_stack, images_dataset):
    from repro.runtime import Task, TaskPriority

    for index in range(4):
        full_stack.runtime.submit(Task(f"video-archive-{index}", compute_seconds=3.0,
                                       priority=TaskPriority.BACKGROUND))
    outcome = full_stack.infer("mobilenet-0.5x", images_dataset.x_test[:1], realtime=True,
                               deadline_s=1.0)
    assert outcome.met_deadline is True


def test_walkthrough_cloud_edge_personalization():
    """Dataflow 3 end to end: train on cloud, download, retrain on the edge, upload, aggregate."""
    dataset = make_blobs(samples=320, features=10, classes=3, seed=11)
    personalized = make_personalized_shift(dataset, shift=4.0, samples=120, seed=12)
    cloud = CloudSimulator()
    cloud.train_model(
        lambda: build_mlp(10, 3, hidden=(24,), seed=0, name="global"),
        dataset.x_train, dataset.y_train, dataset.x_test, dataset.y_test,
        input_shape=(10,), epochs=8, name="global",
    )
    runner = DataflowRunner(cloud, get_device("raspberry-pi-4"), WAN_LINK)
    metrics, _ = runner.edge_retraining(
        "global", personalized.x_train, personalized.y_train,
        personalized.x_test, personalized.y_test,
        learner=TransferLearner(epochs=5, learning_rate=0.05),
    )
    aggregated = cloud.aggregate("global")
    assert metrics.accuracy > 0.5
    assert aggregated.metadata["aggregated_from"] == 2
    global_accuracy = aggregated.model.evaluate(dataset.x_test, dataset.y_test)[1]
    assert global_accuracy > 0.5


def test_compressed_model_improves_edge_alem(full_stack, images_dataset):
    """The compressed zoo entry should dominate the raw one on memory at similar accuracy."""
    candidates = full_stack.evaluate_capability(
        task="image-classification", x_test=images_dataset.x_test, y_test=images_dataset.y_test
    )
    by_name = {c.model_name: c for c in candidates}
    raw = by_name["mobilenet-0.5x"]
    compressed = by_name["mobilenet-0.5x-compressed"]
    assert compressed.alem.memory_mb < raw.alem.memory_mb
    assert compressed.alem.accuracy >= raw.alem.accuracy - 0.2


def test_status_endpoint_reflects_registered_scenarios(full_stack):
    description = full_stack.describe()
    assert set(description["scenarios"]) == {"safety", "vehicles", "home", "health"}
    assert all(description["scenarios"][scenario] for scenario in description["scenarios"])
