"""Tests for the edge fleet: registry, routing policies, gateway, failover."""

import pytest

from repro.apps import register_all
from repro.core import OpenEI
from repro.core.alem import ALEMRequirement, OptimizationTarget
from repro.core.model_zoo import ModelZoo
from repro.exceptions import APIError, ConfigurationError, ResourceNotFoundError
from repro.runtime.tasks import Task
from repro.serving import EdgeFleet, FleetGateway, LibEIClient
from repro.serving.api import ParsedRequest
from repro.serving.router import ROUTING_POLICIES, make_router

HETEROGENEOUS_DEVICES = ["raspberry-pi-3", "raspberry-pi-4", "jetson-tx2", "edge-server"]

SCENARIO_ROUTES = [
    ("safety", "detection"),
    ("vehicles", "tracking"),
    ("home", "power_monitor"),
    ("health", "activity_recognition"),
]


def make_fleet(policy="round-robin", zoo=None, devices=HETEROGENEOUS_DEVICES):
    fleet = EdgeFleet.deploy(devices, zoo=zoo, policy=policy)
    for instance in fleet:
        register_all(instance.openei, seed=0)
    return fleet


# -- registry ---------------------------------------------------------------------

def test_deploy_builds_heterogeneous_instances_with_shared_cache(image_zoo):
    devices = HETEROGENEOUS_DEVICES + HETEROGENEOUS_DEVICES[:2]
    fleet = EdgeFleet.deploy(devices, zoo=image_zoo)
    assert len(fleet) == 6
    assert [i.device_name for i in fleet] == devices
    caches = {id(i.openei.selection_cache) for i in fleet}
    assert len(caches) == 1 and fleet.selection_cache is not None
    zoos = {id(i.openei.zoo) for i in fleet}
    assert len(zoos) == 1

    # the same (requirement, target) asked of every replica, three times
    # over: one cold miss per distinct device name, everything else a hit
    requirement = ALEMRequirement(max_memory_mb=4096.0)
    for _ in range(3):
        for instance in fleet:
            instance.openei.select_model(
                task="image-classification", requirement=requirement,
                target=OptimizationTarget.LATENCY,
            )
    stats = fleet.selection_cache.stats
    assert stats.misses == len(set(devices))
    assert stats.hits == 3 * len(devices) - stats.misses


def test_deploy_rejects_empty_fleet_and_duplicate_ids():
    with pytest.raises(ConfigurationError):
        EdgeFleet.deploy([])
    fleet = EdgeFleet.deploy(["raspberry-pi-4"])
    with pytest.raises(ConfigurationError):
        fleet.add_instance(OpenEI(device_name="raspberry-pi-3"), instance_id=fleet.instances[0].instance_id)


def test_instance_lookup():
    fleet = EdgeFleet.deploy(["raspberry-pi-4"])
    instance = fleet.instances[0]
    assert fleet.instance(instance.instance_id) is instance
    with pytest.raises(ResourceNotFoundError):
        fleet.instance("ghost")


def test_unknown_routing_policy_rejected():
    with pytest.raises(ConfigurationError):
        make_router("random-walk")
    assert sorted(ROUTING_POLICIES) == ["capability", "least-loaded", "round-robin"]


# -- routing policies -------------------------------------------------------------

def test_round_robin_cycles_instances_evenly():
    fleet = make_fleet(policy="round-robin")
    chosen = [fleet.route().instance_id for _ in range(8)]
    ids = [i.instance_id for i in fleet]
    assert chosen == ids + ids


def test_least_loaded_avoids_busy_instance():
    fleet = make_fleet(policy="least-loaded")
    busy = fleet.instances[0]
    for n in range(3):
        busy.openei.runtime.submit(Task(name=f"bg-{n}", compute_seconds=1.0, memory_mb=1.0))
    chosen = {fleet.route().instance_id for _ in range(6)}
    assert busy.instance_id not in chosen


def test_capability_router_prefers_fastest_device(image_zoo):
    fleet = make_fleet(policy="capability", zoo=image_zoo,
                       devices=["raspberry-pi-3", "edge-server"])
    request = ParsedRequest(resource_type="ei_algorithms", scenario="safety", algorithm="x")
    assert fleet.route(request).device_name == "edge-server"


def test_capability_router_falls_back_to_load_without_models():
    # empty zoo: every capability score is infinite, load breaks the tie
    fleet = make_fleet(policy="capability", devices=["raspberry-pi-3", "edge-server"])
    busy = fleet.instances[1]
    for n in range(3):
        busy.openei.runtime.submit(Task(name=f"bg-{n}", compute_seconds=1.0, memory_mb=1.0))
    request = ParsedRequest(resource_type="ei_algorithms", scenario="safety", algorithm="x")
    assert fleet.route(request).instance_id == fleet.instances[0].instance_id


def test_capability_scores_refresh_after_accuracy_injection(image_zoo):
    from repro.serving.router import CapabilityAwareRouter

    fleet = make_fleet(zoo=image_zoo, devices=["raspberry-pi-3", "edge-server"])
    router = CapabilityAwareRouter(target=OptimizationTarget.ACCURACY)
    pi = fleet.instances[0]
    before = router.score(pi, "safety")
    pi.openei.capability_evaluator.set_accuracy("lenet", 0.999)
    after = router.score(pi, "safety")
    # the injected accuracy must reach the score immediately, not after TTL
    assert after == pytest.approx(-0.999)
    assert after < before


def test_routing_empty_fleet_raises():
    fleet = EdgeFleet()
    with pytest.raises(APIError):
        fleet.route()


# -- fleet as a libei target -------------------------------------------------------

def test_fleet_describe_aggregates_instances_and_cache():
    fleet = make_fleet()
    fleet.call_algorithm("home", "power_monitor")
    status = fleet.describe()
    assert status["fleet_size"] == 4
    assert status["router"]["policy"] == "round-robin"
    assert status["requests_served"] == 1
    assert status["selection_cache"]["max_size"] == 1024
    assert len(status["instances"]) == 4
    assert all("load" in inst for inst in status["instances"])


def test_fleet_call_algorithm_tags_serving_instance():
    fleet = make_fleet()
    result = fleet.call_algorithm("home", "power_monitor")
    assert result["served_by"] == fleet.instances[0].instance_id
    assert fleet.instances[0].requests_served == 1


def test_fleet_data_calls_route_to_sensor_owner():
    fleet = EdgeFleet.deploy(["raspberry-pi-4", "jetson-tx2"])
    register_all(fleet.instances[1].openei, seed=0)  # sensors only on instance 1
    reading = fleet.get_realtime_data("camera1")
    assert reading["sensor_id"] == "camera1"
    assert fleet.instances[1].requests_served == 1
    historical = fleet.get_historical_data("camera1", start=0.0)
    assert historical["count"] >= 1
    with pytest.raises(ResourceNotFoundError):
        fleet.get_realtime_data("ghost-sensor")


def test_register_algorithm_reaches_every_instance():
    fleet = EdgeFleet.deploy(["raspberry-pi-4", "jetson-tx2"])
    fleet.register_algorithm("home", "echo", lambda ei, args: {"echo": args})
    for instance in fleet:
        assert "echo" in instance.openei.algorithms("home")["home"]


# -- the gateway over HTTP ---------------------------------------------------------

@pytest.mark.parametrize("policy", sorted(ROUTING_POLICIES))
def test_gateway_serves_all_four_scenarios_over_http(policy, image_zoo):
    fleet = make_fleet(policy=policy, zoo=image_zoo)
    with FleetGateway(fleet) as gateway:
        client = LibEIClient(gateway.address)
        for scenario, algorithm in SCENARIO_ROUTES:
            response = client.call_algorithm(scenario, algorithm)
            assert response["status"] == "ok", (policy, scenario)
            assert "served_by" in response["result"]
        status = client.status()
        assert status["openei"]["fleet_size"] == 4
        assert status["openei"]["router"]["policy"] == policy
        data = client.realtime_data("camera1")
        assert data["status"] == "ok"


def test_gateway_maps_fleet_errors_to_http_statuses():
    fleet = make_fleet()
    with FleetGateway(fleet) as gateway:
        client = LibEIClient(gateway.address)
        with pytest.raises(APIError, match="404"):
            client.call_algorithm("safety", "missing")
        with pytest.raises(APIError, match="404"):
            client.realtime_data("ghost-sensor")
        with pytest.raises(APIError, match="400"):
            client.get("/nonsense")


def test_gateway_replica_failover():
    fleet = make_fleet()
    first = FleetGateway(fleet)
    second = FleetGateway(fleet)
    with first, second:
        client = LibEIClient([first.address, second.address])
        assert client.status()["status"] == "ok"
        first.stop()  # primary dies; the client must fail over to the replica
        response = client.call_algorithm("home", "power_monitor")
        assert response["status"] == "ok"
        assert client.base_url == f"http://{second.address[0]}:{second.address[1]}"


# -- list calls on OpenEI / EdgeFleet ----------------------------------------------

def _echo(ei, args):
    return {"x": args.get("x")}


def _echo_batch(ei, calls):
    return [{"x": args.get("x")} for args in calls]


def test_openei_call_algorithm_batch_uses_batch_handler():
    openei = OpenEI(device_name="raspberry-pi-4")
    invocations = []

    def batch(ei, calls):
        invocations.append(len(calls))
        return _echo_batch(ei, calls)

    openei.register_algorithm("home", "echo", batch_handler=batch)
    results = openei.call_algorithm_batch("home", "echo", [{"x": 1}, {"x": 2}, None])
    assert [r["x"] for r in results] == [1, 2, None]
    assert invocations == [3]


def test_openei_call_algorithm_batch_falls_back_to_loop():
    openei = OpenEI(device_name="raspberry-pi-4")
    openei.register_algorithm("home", "echo", _echo)
    results = openei.call_algorithm_batch("home", "echo", [{"x": 1}, {"x": 2}])
    assert [r["x"] for r in results] == [1, 2]
    # per-request and batched answers agree
    assert results[0] == openei.call_algorithm("home", "echo", {"x": 1})


def test_openei_batch_handler_length_mismatch_raises():
    openei = OpenEI(device_name="raspberry-pi-4")
    openei.register_algorithm("home", "echo", batch_handler=lambda ei, calls: [{}])
    with pytest.raises(APIError):
        openei.call_algorithm_batch("home", "echo", [{"x": 1}, {"x": 2}])


def test_openei_batch_unknown_algorithm_raises():
    openei = OpenEI(device_name="raspberry-pi-4")
    with pytest.raises(ResourceNotFoundError):
        openei.call_algorithm_batch("home", "missing", [{}])


def test_fleet_register_algorithm_takes_exactly_one_handler():
    fleet = EdgeFleet.deploy(["raspberry-pi-4", "jetson-tx2"])
    with pytest.raises(ConfigurationError):
        fleet.register_algorithm("home", "echo", _echo, batch_handler=_echo_batch)
    with pytest.raises(ConfigurationError):
        fleet.register_algorithm("home", "echo")
    # one positional handler still works, and serves lists too
    fleet.register_algorithm("home", "echo", _echo)
    assert fleet.call_algorithm("home", "echo", {"x": 4})["x"] == 4
    assert [r["x"] for r in fleet.call_algorithm_batch("home", "echo", [{"x": 1}, {"x": 2}])] == [1, 2]


class _Counting:
    """Overrides both public calls the way ``bench/servebench/traced.py`` does."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.seen = []

    def call_algorithm(self, scenario, name, args=None):
        self.seen.append("single")
        return super().call_algorithm(scenario, name, args)

    def call_algorithm_batch(self, scenario, name, args_list):
        self.seen.append(f"batch{len(args_list)}")
        return super().call_algorithm_batch(scenario, name, args_list)


class _CountingOpenEI(_Counting, OpenEI):
    pass


class _CountingFleet(_Counting, EdgeFleet):
    pass


@pytest.mark.parametrize("registration", [
    {"handler": _echo}, {"batch_handler": _echo_batch},
])
def test_neither_public_call_reaches_the_handler_through_the_other(registration):
    """A subclass that wraps both methods (spans, counters) must see exactly
    one of them per call, on the fleet and on the replica it enters."""
    fleet = _CountingFleet()
    replica = _CountingOpenEI(device_name="raspberry-pi-4")
    fleet.add_instance(replica)
    fleet.register_algorithm("home", "echo", **registration)

    assert fleet.call_algorithm("home", "echo", {"x": 1})["x"] == 1
    assert (fleet.seen, replica.seen) == (["single"], ["single"])

    results = fleet.call_algorithm_batch("home", "echo", [{"x": 1}, {"x": 2}, {"x": 3}])
    assert [r["x"] for r in results] == [1, 2, 3]
    assert (fleet.seen, replica.seen) == (["single", "batch3"], ["single", "batch3"])

    # a list of one is still a list call, a single still a single
    fleet.call_algorithm_batch("home", "echo", [{"x": 9}])
    assert (fleet.seen[-1], replica.seen[-1]) == ("batch1", "batch1")


def test_fleet_routes_whole_batch_to_one_instance():
    fleet = EdgeFleet.deploy(["raspberry-pi-4", "jetson-tx2", "edge-server"])
    fleet.register_algorithm("home", "echo", batch_handler=_echo_batch)
    results = fleet.call_algorithm_batch("home", "echo", [{"x": i} for i in range(5)])
    assert [r["x"] for r in results] == list(range(5))
    served_by = {r["served_by"] for r in results}
    assert len(served_by) == 1, "a micro-batch must land on a single replica"
    assert sum(i.requests_served for i in fleet) == 5


def test_fleet_counts_a_call_once_it_has_answered():
    """Single and list calls are counted in one place, after they answer:
    a failed call, of either kind, counts nothing."""
    fleet = EdgeFleet.deploy(["raspberry-pi-4"])

    def flaky(ei, args):
        if args.get("x") == 2:
            raise ResourceNotFoundError("poisoned")
        return {"x": args.get("x")}

    fleet.register_algorithm("home", "flaky", flaky)
    fleet.call_algorithm("home", "flaky", {"x": 1})
    fleet.call_algorithm_batch("home", "flaky", [{"x": 0}, {"x": 1}])
    with pytest.raises(ResourceNotFoundError):
        fleet.call_algorithm("home", "flaky", {"x": 2})
    with pytest.raises(ResourceNotFoundError):
        fleet.call_algorithm_batch("home", "flaky", [{"x": 0}, {"x": 2}])
    assert fleet.instances[0].requests_served == 3
