"""Tests for the package manager and the OpenEI facade."""

import numpy as np
import pytest

from repro.core import ALEMRequirement, ModelZoo, OpenEI, OptimizationTarget, PackageManager
from repro.eialgorithms import build_mlp, build_vgg_lite
from repro.exceptions import (
    BatchContractError,
    ConfigurationError,
    DeploymentError,
    ModelSelectionError,
    ResourceNotFoundError,
)
from repro.hardware import get_device
from repro.runtime import EdgeRuntime, Task, TaskPriority


@pytest.fixture()
def package_manager(image_zoo):
    runtime = EdgeRuntime(get_device("raspberry-pi-4"))
    return PackageManager(runtime, image_zoo)


# -- package manager -----------------------------------------------------------

def test_load_and_unload_model(package_manager):
    entry = package_manager.load_model("lenet")
    assert entry.name == "lenet"
    assert "lenet" in package_manager.loaded_models
    assert "lenet" in package_manager.runtime.installed_models
    package_manager.unload_model("lenet")
    assert "lenet" not in package_manager.loaded_models


def test_infer_runs_and_reports_alem_components(package_manager, images_dataset):
    outcome = package_manager.infer("mobilenet-0.5x", images_dataset.x_test[:4])
    assert outcome.predictions.shape == (4, 3)
    assert outcome.latency_s > 0 and outcome.energy_j > 0 and outcome.memory_mb > 0
    assert outcome.realtime is False


def test_infer_realtime_jumps_background_queue(package_manager, images_dataset):
    for index in range(3):
        package_manager.runtime.submit(
            Task(f"bg{index}", compute_seconds=5.0, priority=TaskPriority.BACKGROUND)
        )
    outcome = package_manager.infer(
        "mobilenet-0.5x", images_dataset.x_test[:1], realtime=True, deadline_s=1.0
    )
    assert outcome.realtime is True
    assert outcome.met_deadline is True


def test_infer_rejects_wrong_input_shape(package_manager):
    with pytest.raises(ConfigurationError):
        package_manager.infer("lenet", np.zeros((2, 8, 8, 1)))


def test_infer_rejects_model_too_big_for_device(image_zoo, images_dataset):
    zoo = ModelZoo()
    vgg = build_vgg_lite((16, 16, 1), 3, width_multiplier=4.0, seed=0, name="vgg-huge")
    zoo.register("vgg-huge", vgg, task="image-classification", input_shape=(16, 16, 1))
    manager = PackageManager(EdgeRuntime(get_device("arduino-class-mcu")), zoo)
    from repro.exceptions import ResourceExhaustedError

    with pytest.raises((DeploymentError, ResourceExhaustedError)):
        manager.infer("vgg-huge", images_dataset.x_test[:1])


def test_train_locally_personalizes_and_estimates_time(image_zoo, images_dataset):
    manager = PackageManager(EdgeRuntime(get_device("raspberry-pi-4")), image_zoo)
    personalized, seconds = manager.train_locally(
        "lenet", images_dataset.x_train[:32], images_dataset.y_train[:32], epochs=1
    )
    assert seconds > 0
    assert personalized.metadata.get("personalized") is True
    assert manager.runtime.clock() >= seconds


def test_describe_reports_package_and_models(package_manager):
    package_manager.load_model("lenet")
    description = package_manager.describe()
    assert description["package"] == "openei-lite"
    assert "lenet" in description["loaded_models"]


# -- OpenEI facade -----------------------------------------------------------------

def test_deploy_and_describe(image_zoo):
    openei = OpenEI.deploy("raspberry-pi-3")
    description = openei.describe()
    assert description["device"] == "raspberry-pi-3"
    assert set(description["scenarios"]) == set(OpenEI.SCENARIOS)


def test_openei_requires_some_device():
    with pytest.raises(DeploymentError):
        OpenEI()


def test_openei_selection_flow_default_accuracy_oriented(deployed_openei, images_dataset):
    selection, outcome = deployed_openei.infer_with_selection(
        "image-classification",
        images_dataset.x_test[:2],
        x_test=images_dataset.x_test,
        y_test=images_dataset.y_test,
    )
    assert selection.target is OptimizationTarget.ACCURACY
    assert outcome.model_name == selection.selected.model_name
    assert outcome.predictions.shape == (2, 3)


def test_openei_select_model_respects_requirement(deployed_openei, images_dataset):
    result = deployed_openei.select_model(
        task="image-classification",
        requirement=ALEMRequirement(min_accuracy=0.5),
        x_test=images_dataset.x_test,
        y_test=images_dataset.y_test,
    )
    assert result.selected.alem.accuracy >= 0.5


def test_openei_selection_fails_cleanly_on_impossible_requirement(deployed_openei, images_dataset):
    with pytest.raises(ModelSelectionError):
        deployed_openei.select_model(
            task="image-classification",
            requirement=ALEMRequirement(max_latency_s=1e-12),
            x_test=images_dataset.x_test,
            y_test=images_dataset.y_test,
        )


def test_openei_algorithm_registry_and_dispatch(deployed_openei):
    def echo_handler(ei, args):
        return {"echo": args.get("value", "none"), "device": ei.device.name}

    deployed_openei.register_algorithm("home", "echo", echo_handler)
    result = deployed_openei.call_algorithm("home", "echo", {"value": 7})
    assert result == {"echo": 7, "device": "raspberry-pi-4"}
    assert "echo" in deployed_openei.algorithms("home")["home"]
    with pytest.raises(ResourceNotFoundError):
        deployed_openei.call_algorithm("home", "missing")
    with pytest.raises(ResourceNotFoundError):
        deployed_openei.call_algorithm("unknown-scenario", "echo")


def test_register_algorithm_takes_exactly_one_of_handler_and_batch_handler():
    def one(ei, args):
        return {}

    def many(ei, calls):
        return [{} for _ in calls]

    openei = OpenEI(device_name="raspberry-pi-4")
    with pytest.raises(ConfigurationError):
        openei.register_algorithm("home", "both", one, batch_handler=many)
    with pytest.raises(ConfigurationError):
        openei.register_algorithm("home", "neither")
    assert openei.algorithms("home") == {"home": []}


def test_one_registered_handler_answers_singles_and_lists():
    """Whichever signature was registered, both public calls reach it."""
    openei = OpenEI(device_name="raspberry-pi-4")
    openei.register_algorithm("home", "one", lambda ei, args: {"x": args.get("x")})
    openei.register_algorithm(
        "home", "many", batch_handler=lambda ei, calls: [{"x": a.get("x")} for a in calls]
    )
    for name in ("one", "many"):
        assert openei.call_algorithm("home", name, {"x": 3}) == {"x": 3}
        assert openei.call_algorithm("home", name) == {"x": None}
        batch = openei.call_algorithm_batch("home", name, [{"x": 1}, None, {"x": 2}])
        assert [r["x"] for r in batch] == [1, None, 2]


def test_result_count_is_checked_for_a_single_call_too():
    openei = OpenEI(device_name="raspberry-pi-4")
    openei.register_algorithm("home", "short", batch_handler=lambda ei, calls: [])
    openei.register_algorithm(
        "home", "long", batch_handler=lambda ei, calls: [{}] * (len(calls) + 1)
    )
    for name in ("short", "long"):
        with pytest.raises(BatchContractError):
            openei.call_algorithm("home", name, {})
        with pytest.raises(BatchContractError):
            openei.call_algorithm_batch("home", name, [{}, {}])


def test_openei_data_endpoints(deployed_openei):
    from repro.data import CameraSensor

    deployed_openei.data_store.register_sensor(CameraSensor(sensor_id="camX", seed=0))
    realtime = deployed_openei.get_realtime_data("camX")
    assert realtime["sensor_id"] == "camX"
    assert realtime["shape"] == [32, 32, 1]
    historical = deployed_openei.get_historical_data("camX", start=0.0)
    assert historical["count"] >= 1
    with pytest.raises(ResourceNotFoundError):
        deployed_openei.get_realtime_data("ghost-sensor")
