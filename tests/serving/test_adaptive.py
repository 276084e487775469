"""Tests for the adaptive SLO control plane: detect → invalidate → reselect → redeploy."""

import json

import pytest

from repro.clock import SYSTEM_CLOCK, ManualClock
from repro.collaboration import CloudOffloadPlanner, CloudSimulator
from repro.core.alem import ALEMRequirement, OptimizationTarget
from repro.exceptions import ConfigurationError, ModelSelectionError, ResourceNotFoundError
from repro.hardware.device import LAN_LINK
from repro.serving import (
    ALEMTelemetry,
    AdaptiveController,
    EdgeFleet,
    FleetGateway,
    LibEIClient,
    SLOPolicy,
)

#: Injected task accuracies (accuracy is device independent).
ACCURACIES = {"vgg-0.5x": 0.95, "lenet": 0.90, "mobilenet-0.5x": 0.80}

TASK = "image-classification"
#: On raspberry-pi-4, vgg profiles at ~3.1 ms and lenet/mobilenet at ~2.0 ms,
#: so this SLO admits all three nominally but only the small models at 1.5x.
MAX_LATENCY_S = 0.004


def make_policy(**overrides):
    defaults = dict(
        scenario="safety",
        algorithm="classify",
        task=TASK,
        requirement=ALEMRequirement(min_accuracy=0.5, max_latency_s=MAX_LATENCY_S),
        target=OptimizationTarget.ACCURACY,
        min_samples=3,
    )
    defaults.update(overrides)
    return SLOPolicy(**defaults)


def make_controller(image_zoo, devices=("raspberry-pi-4",), policy=None, window_size=16,
                    clock=SYSTEM_CLOCK, **controller_kwargs):
    fleet = EdgeFleet.deploy(
        list(devices), zoo=image_zoo, telemetry=ALEMTelemetry(window_size=window_size),
        clock=clock,
    )
    for instance in fleet:
        for name, accuracy in ACCURACIES.items():
            instance.openei.capability_evaluator.set_accuracy(name, accuracy)
    controller = AdaptiveController(fleet, **controller_kwargs)
    controller.add_policy(policy or make_policy())
    controller.register_handlers()
    return fleet, controller


def drive(fleet, requests: int):
    return [fleet.call_algorithm("safety", "classify", {"seq": i}) for i in range(requests)]


# -- initial deployment ------------------------------------------------------------

def test_initial_deployment_solves_eq1_per_replica(image_zoo):
    fleet, controller = make_controller(image_zoo)
    deployment = controller.deployments()[0]
    # accuracy-oriented selection under the latency constraint: vgg wins
    assert deployment.model_name == "vgg-0.5x"
    assert deployment.mode == "edge"
    assert deployment.expected.latency_s <= MAX_LATENCY_S


def test_handler_serves_deployment_and_reports_telemetry(image_zoo):
    fleet, controller = make_controller(image_zoo)
    result = fleet.call_algorithm("safety", "classify", {})
    assert result["model"] == "vgg-0.5x" and result["mode"] == "edge"
    observed = fleet.telemetry.observed("safety", "classify", fleet.instances[0].instance_id)
    assert observed.latency_s == pytest.approx(controller.deployments()[0].expected.latency_s)
    assert observed.accuracy == pytest.approx(0.95)


def test_handler_runs_model_on_request_payload(image_zoo, images_dataset):
    fleet, controller = make_controller(image_zoo)
    payload = images_dataset.x_test[0].tolist()
    result = fleet.call_algorithm("safety", "classify", {"payload": payload})
    assert result["label"] in (0, 1, 2)


# -- the control loop --------------------------------------------------------------

def test_no_action_while_slo_is_met(image_zoo):
    fleet, controller = make_controller(image_zoo)
    drive(fleet, 5)
    assert controller.check_all() == []
    assert controller.stats.violations == 0
    assert controller.deployments()[0].model_name == "vgg-0.5x"


def test_slowdown_triggers_cache_invalidation_and_reselection(image_zoo):
    fleet, controller = make_controller(image_zoo)
    instance = fleet.instances[0]
    instance.openei.runtime.set_slowdown(1.5)
    drive(fleet, 4)
    events = controller.check_all()
    assert len(events) == 1
    event = events[0]
    assert event.kind == "reselected"
    assert event.fields["old_model"] == "vgg-0.5x"
    # the most accurate model that still fits the SLO at 1.5x drift
    assert event.fields["new_model"] == "lenet"
    assert event.fields["drift"] == pytest.approx(1.5, rel=0.01)
    assert "latency" in event.fields["violations"]
    # the stale analytic selection for this device/task was dropped
    assert event.fields["invalidated_keys"] >= 1
    assert fleet.selection_cache.stats.invalidations >= 1
    deployment = controller.fleet.deployments.get("safety", "classify", instance.instance_id)
    assert deployment.model_name == "lenet" and deployment.mode == "edge"
    assert deployment.reselections == 1


def test_recovery_after_reselection_meets_slo(image_zoo):
    fleet, controller = make_controller(image_zoo)
    fleet.instances[0].openei.runtime.set_slowdown(1.5)
    drive(fleet, 4)
    controller.check_all()
    # the hot-swapped model serves in place; the fresh window meets the SLO
    responses = drive(fleet, 4)
    for response in responses:
        assert response["model"] == "lenet"
        assert response["observed_alem"]["latency_s"] <= MAX_LATENCY_S
    assert controller.check_all() == []
    assert controller.stats.reselections == 1


def test_min_samples_gates_single_slow_request(image_zoo):
    fleet, controller = make_controller(image_zoo)
    fleet.instances[0].openei.runtime.set_slowdown(5.0)
    drive(fleet, 2)  # below min_samples=3
    assert controller.check_all() == []
    assert controller.stats.violations == 0


def test_cooldown_spaces_consecutive_reselections(image_zoo):
    clock = ManualClock()
    fleet, controller = make_controller(
        image_zoo, policy=make_policy(cooldown_s=60.0), clock=clock
    )
    fleet.instances[0].openei.runtime.set_slowdown(1.5)
    drive(fleet, 4)
    assert len(controller.check_all()) == 1
    # still violating (now even lenet is too slow), but inside the cooldown
    fleet.instances[0].openei.runtime.set_slowdown(3.0)
    drive(fleet, 4)
    assert controller.check_all() == []
    clock.advance(61.0)
    assert len(controller.check_all()) == 1


def test_nothing_feasible_without_planner_is_exhausted(image_zoo):
    fleet, controller = make_controller(image_zoo)
    fleet.instances[0].openei.runtime.set_slowdown(10.0)
    drive(fleet, 4)
    events = controller.check_all()
    assert [e.kind for e in events] == ["exhausted"]
    assert events[0].fields["new_model"] is None
    # the deployment is left in place: degraded service beats no service
    assert controller.deployments()[0].model_name == "vgg-0.5x"
    assert controller.stats.exhausted == 1


def test_nothing_feasible_offloads_to_cloud_and_holds_position(image_zoo):
    planner = CloudOffloadPlanner(CloudSimulator(), LAN_LINK)
    fleet, controller = make_controller(image_zoo, offload=planner)
    fleet.instances[0].openei.runtime.set_slowdown(10.0)
    drive(fleet, 4)
    events = controller.check_all()
    assert [e.kind for e in events] == ["offloaded"]
    deployment = controller.deployments()[0]
    assert deployment.mode == "cloud"
    # cloud latency is immune to the edge slowdown
    response = fleet.call_algorithm("safety", "classify", {})
    assert response["mode"] == "cloud"
    assert response["observed_alem"]["latency_s"] == pytest.approx(
        deployment.expected.latency_s
    )
    # still violated (the WAN round trip exceeds the SLO) but the cloud is
    # the best known fallback: the controller must not flap
    drive(fleet, 4)
    assert controller.check_all() == []
    assert controller.stats.offloads == 1


def test_hold_position_engages_cooldown(image_zoo):
    # regression: holding position on a violated cloud fallback used to
    # skip the _last_action stamp, so every control cycle re-invalidated
    # the cache and re-evaluated every candidate forever
    clock = ManualClock()
    planner = CloudOffloadPlanner(CloudSimulator(), LAN_LINK)
    fleet, controller = make_controller(
        image_zoo, policy=make_policy(cooldown_s=60.0), offload=planner, clock=clock
    )
    fleet.instances[0].openei.runtime.set_slowdown(10.0)
    drive(fleet, 4)
    assert [e.kind for e in controller.check_all()] == ["offloaded"]
    invalidations = fleet.selection_cache.stats.invalidations
    # the cloud window still violates the SLO, but inside the cooldown the
    # controller must not even attempt the (expensive) re-evaluation
    drive(fleet, 4)
    clock.advance(1.0)
    assert controller.check_all() == []
    assert controller.stats.violations == 1
    assert fleet.selection_cache.stats.invalidations == invalidations
    # past the cooldown it re-confirms the fallback (a hold, no event)
    clock.advance(60.0)
    assert controller.check_all() == []
    assert controller.stats.violations == 2
    clock.advance(1.0)
    assert controller.check_all() == []
    assert controller.stats.violations == 2


def test_calibration_reset_enables_failback_from_cloud(image_zoo):
    planner = CloudOffloadPlanner(CloudSimulator(), LAN_LINK)
    fleet, controller = make_controller(image_zoo, offload=planner)
    fleet.instances[0].openei.runtime.set_slowdown(10.0)
    drive(fleet, 4)
    controller.check_all()
    assert controller.deployments()[0].mode == "cloud"
    # the device is serviced; the operator clears the learned drift
    fleet.instances[0].openei.runtime.set_slowdown(1.0)
    controller.reset_calibration()
    drive(fleet, 4)  # cloud traffic still violates the latency SLO
    events = controller.check_all()
    assert [e.kind for e in events] == ["reselected"]
    assert controller.deployments()[0].mode == "edge"


# -- wiring and validation ---------------------------------------------------------

def test_fleet_status_reports_telemetry_and_adaptive(image_zoo):
    fleet, controller = make_controller(image_zoo)
    fleet.instances[0].openei.runtime.set_slowdown(1.5)
    drive(fleet, 4)
    controller.check_all()
    status = fleet.describe()
    assert status["telemetry"]["tracked_keys"] == 1
    adaptive = status["adaptive"]
    assert adaptive["reselections"] == 1
    assert adaptive["deployments"][0]["model"] == "lenet"
    assert status["recent_events"][-1]["kind"] == "reselected"
    json.dumps(status)  # the whole /ei_status body must serialize


def test_controller_validation(image_zoo):
    fleet = EdgeFleet.deploy(["raspberry-pi-4"], zoo=image_zoo)  # no telemetry
    with pytest.raises(ConfigurationError):
        AdaptiveController(fleet)
    fleet, controller = make_controller(image_zoo)
    with pytest.raises(ConfigurationError):
        controller.add_policy(make_policy())  # duplicate
    with pytest.raises(ResourceNotFoundError):
        controller.policy("safety", "ghost")
    with pytest.raises(ResourceNotFoundError):
        controller.fleet.deployments.get("safety", "classify", "ghost-instance")
    with pytest.raises(ConfigurationError):
        SLOPolicy("s", "a", None, ALEMRequirement(), min_samples=0)
    with pytest.raises(ConfigurationError):
        SLOPolicy("s", "a", None, ALEMRequirement(), cooldown_s=-1.0)


def test_failed_add_policy_registers_nothing(image_zoo):
    """A selection that raises must not leave the policy registered: the
    retry with a feasible requirement is served, not refused as a duplicate."""
    fleet, controller = make_controller(image_zoo)
    infeasible = make_policy(algorithm="detect", requirement=ALEMRequirement(max_latency_s=1e-9))
    with pytest.raises(ModelSelectionError):
        controller.add_policy(infeasible)
    assert fleet.deployments.records("safety", "detect") == []
    deployments = controller.add_policy(make_policy(algorithm="detect"))
    assert [d.model_name for d in deployments] == ["vgg-0.5x"]


def test_per_replica_isolation_in_heterogeneous_fleet(image_zoo):
    fleet, controller = make_controller(
        image_zoo, devices=("raspberry-pi-4", "jetson-tx2")
    )
    slow, fast = fleet.instances
    slow.openei.runtime.set_slowdown(1.5)
    # round-robin alternates, so both replicas fill their windows
    drive(fleet, 8)
    events = controller.check_all()
    assert [e.fields["replica"] for e in events] == [slow.instance_id]
    # the healthy replica keeps its original deployment
    untouched = controller.fleet.deployments.get("safety", "classify", fast.instance_id)
    assert untouched.reselections == 0


# -- end to end over HTTP ----------------------------------------------------------

def test_end_to_end_gateway_recovers_from_mid_stream_slowdown(image_zoo):
    """The acceptance scenario: a live gateway stream, an injected slowdown
    that violates max_latency_s, and recovery without restarting anything."""
    fleet, controller = make_controller(
        image_zoo, policy=make_policy(min_samples=4), window_size=8
    )
    instance = fleet.instances[0]
    with FleetGateway(fleet) as gateway:
        client = LibEIClient(gateway.address)
        for i in range(6):  # healthy stream
            response = client.call_algorithm("safety", "classify", {"seq": i})
            assert response["result"]["model"] == "vgg-0.5x"
        assert controller.check_all() == []

        instance.openei.runtime.set_slowdown(1.5)  # mid-stream slowdown
        for i in range(8):  # enough slow samples to flush the healthy window
            response = client.call_algorithm("safety", "classify", {"seq": i})
            assert response["result"]["observed_alem"]["latency_s"] > MAX_LATENCY_S
        events = controller.check_all()
        assert [e.kind for e in events] == ["reselected"]
        assert events[0].fields["invalidated_keys"] >= 1

        # the same gateway, not restarted, now serves the reselected model
        recovered = []
        for i in range(6):
            response = client.call_algorithm("safety", "classify", {"seq": i})
            recovered.append(response["result"])
        assert all(r["model"] == "lenet" for r in recovered)
        assert all(r["observed_alem"]["latency_s"] <= MAX_LATENCY_S for r in recovered)

        # /ei_status reports the reselection fleet-wide
        status = client.status()["openei"]
        assert status["adaptive"]["reselections"] == 1
        assert status["adaptive"]["deployments"][0]["model"] == "lenet"
        assert status["selection_cache"]["invalidations"] >= 1
        assert status["telemetry"]["tracked_keys"] == 1
