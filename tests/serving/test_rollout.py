"""End-to-end fleet rollouts: publish → canary → promote / rollback under live traffic.

The acceptance contract of PR 5: publish v2 of a scenario model, canary
it on one replica of a size-4 fleet while the gateway serves a live
``scenario_request_stream``, promote on healthy observed-ALEM windows
(and auto-roll back on an injected regression) — with zero failed
requests and byte-identical responses before/after for the unchanged
scenarios.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.apps import register_all
from repro.core import ALEMRequirement, ModelRegistry, ModelZoo
from repro.data.workloads import scenario_request_stream
from repro.exceptions import ConfigurationError, ResourceNotFoundError
from repro.nn.layers import Dense, ReLU, Softmax
from repro.nn.model import Sequential
from repro.serving import (
    ALEMTelemetry,
    EdgeFleet,
    FleetGateway,
    LibEIClient,
    RolloutController,
    RolloutPolicy,
)
from repro.serving.router import RoutingPolicy

SCENARIO, ALGORITHM = "safety", "classify"
MODEL = "safety-classifier"
FLEET = ["raspberry-pi-4", "jetson-tx2", "raspberry-pi-4", "jetson-tx2"]


class SeqRouter(RoutingPolicy):
    """Route by the request's ``seq`` argument: replays route identically.

    Round-robin rotation depends on the total number of requests the
    fleet ever served, so interleaving canary traffic between two
    identical streams would shift ``served_by`` and break byte-level
    comparison; keying on the request itself makes routing a pure
    function of the stream.
    """

    name = "seq"

    def choose(self, instances, request=None):
        self._require_instances(instances)
        seq = 0
        if request is not None and request.args:
            try:
                seq = int(request.args.get("seq", 0))
            except (TypeError, ValueError):
                seq = 0
        return instances[seq % len(instances)]


def _classifier(seed: int, scale: float = 1.0) -> Sequential:
    model = Sequential(
        [Dense(6, 8, seed=seed), ReLU(), Dense(8, 3, seed=seed + 1), Softmax()],
        name=MODEL,
    )
    model.layers[2].params["W"][...] *= scale
    return model


def _publish(registry: ModelRegistry, accuracy: float, scale: float = 1.0,
             base: Optional[str] = None):
    return registry.publish(
        MODEL, _classifier(seed=0, scale=scale),
        task="image-classification", input_shape=(6,), scenario=SCENARIO,
        base=base, accuracy=accuracy,
    )


def _policy(min_accuracy: float = 0.8) -> RolloutPolicy:
    return RolloutPolicy(
        requirement=ALEMRequirement(min_accuracy=min_accuracy),
        min_samples=3,
        healthy_checks=2,
    )


def _deploy_fleet() -> Tuple[ModelRegistry, EdgeFleet, RolloutController]:
    registry = ModelRegistry()
    _publish(registry, accuracy=0.90)
    fleet = EdgeFleet.deploy(
        FLEET, zoo=ModelZoo(), telemetry=ALEMTelemetry(window_size=16),
        policy=SeqRouter(),
    )
    for instance in fleet:
        register_all(instance.openei, seed=0)
    controller = RolloutController(fleet, registry)
    controller.deploy(SCENARIO, ALGORITHM, MODEL)
    return registry, fleet, controller


def _canonical(response: Dict[str, object]) -> bytes:
    """Response bytes minus the wall-clock telemetry axis.

    ``observed_alem.latency_s`` is a live ``perf_counter`` measurement —
    telemetry about the serving machine, not response payload — so it is
    the one field two identical requests legitimately differ on.
    """
    response = json.loads(json.dumps(response))  # deep copy via JSON
    result = response.get("result", {})
    if isinstance(result, dict):
        result.pop("observed_alem", None)
    return json.dumps(response, sort_keys=True).encode("utf-8")


def _stream_pass(client: LibEIClient, rounds: int) -> Dict[Tuple[str, str, int], bytes]:
    """One pass of the four-scenario live stream through the gateway.

    Returns canonical response bytes per (scenario, algorithm, seq) and
    asserts every request succeeded.
    """
    captured: Dict[Tuple[str, str, int], bytes] = {}
    for request in scenario_request_stream(requests_per_scenario=rounds):
        response = client.call_algorithm(request.scenario, request.algorithm, request.args)
        assert response["status"] == "ok"
        key = (request.scenario, request.algorithm, int(request.args["seq"]))
        captured[key] = _canonical(response)
    return captured


def _drive_canary(client: LibEIClient, controller: RolloutController,
                  max_rounds: int = 64) -> List:
    """Serve classify traffic to every replica until the rollout resolves.

    Classify requests touch no sensors, so this traffic cannot perturb
    the unchanged scenarios' request→response mapping.
    """
    events = []
    for seq in range(max_rounds * len(FLEET)):
        response = client.call_algorithm(SCENARIO, ALGORITHM, {"seq": seq})
        assert response["status"] == "ok"
        events.extend(controller.step())
        stage = controller.describe()["rollouts"][f"{SCENARIO}/{ALGORITHM}"]["stage"]
        if stage != "canary":
            return events
    raise AssertionError("rollout did not resolve within the traffic budget")


def _run_traffic_script(rollout: str):
    """Serve the identical traffic script with/without a rollout in the middle.

    Every run deploys a fresh, identically-seeded fleet, streams one pass
    of all four scenarios, optionally publishes v2 and drives a canary
    (``rollout`` is ``"none"``, ``"promote"`` or ``"regression"``), then
    streams a second identical pass.  Comparing the scenario responses
    of a rollout run against the ``"none"`` control run proves the
    rollout changed nothing for the scenarios it does not manage — the
    sensors themselves advance per request (``realtime`` captures a
    fresh reading), so the honest byte-level comparison is between two
    runs of the same script, not between two passes of one run.
    """
    registry, fleet, controller = _deploy_fleet()
    events: List = []
    with FleetGateway(fleet) as gateway:
        client = LibEIClient(gateway.address)
        first = _stream_pass(client, rounds=3)
        if rollout != "none":
            regression = rollout == "regression"
            _publish(
                registry,
                accuracy=0.41 if regression else 0.93,
                scale=-1.0 if regression else 1.01,
                base=f"{MODEL}@1",
            )
            controller.begin(SCENARIO, ALGORITHM, policy=_policy())
            events = _drive_canary(client, controller)
        second = _stream_pass(client, rounds=3)
        status = client.status()["openei"]["rollout"]
    return first, second, events, controller, fleet, status


# -- the acceptance E2E flows ------------------------------------------------------
def test_e2e_publish_canary_promote_under_live_traffic():
    control_first, control_second, _, _, _, _ = _run_traffic_script("none")
    first, second, events, controller, fleet, status = _run_traffic_script("promote")

    assert [e.kind for e in events][-1] == "promote"
    assert all(
        e.version.ref == f"{MODEL}@2"
        for e in controller.fleet.deployments.records(SCENARIO, ALGORITHM)
    )
    # promotion refreshed the shared zoo so selection sees the new build
    zoo = fleet.instances[0].openei.zoo
    assert zoo.get(MODEL).extra["registry_version"] == f"{MODEL}@2"
    assert status["promotions"] == 1 and status["rollbacks"] == 0

    # zero failed requests (asserted per request in the passes), and the
    # unchanged scenarios answered byte-identically to the control run
    # both before and after the promote
    assert first == control_first
    assert second == control_second


def test_e2e_canary_auto_rollback_on_injected_regression():
    control_first, control_second, _, _, _, _ = _run_traffic_script("none")
    first, second, events, controller, _, status = _run_traffic_script("regression")

    assert [e.kind for e in events][-1] == "rollback"
    assert events[-1].fields["violations"]  # the confirmed accuracy violation
    assert all(
        e.version.ref == f"{MODEL}@1"
        for e in controller.fleet.deployments.records(SCENARIO, ALGORITHM)
    )
    assert status["rollbacks"] == 1 and status["promotions"] == 0
    assert first == control_first
    assert second == control_second


def test_promote_never_drops_inflight_requests():
    """Hammer the rolled-out algorithm from threads across a promote: zero failures."""
    registry, fleet, controller = _deploy_fleet()
    _publish(registry, accuracy=0.93, scale=1.01, base=f"{MODEL}@1")
    controller.begin(SCENARIO, ALGORITHM, policy=_policy())
    errors: List[Exception] = []
    versions = set()
    stop = threading.Event()

    def caller(offset: int) -> None:
        seq = offset
        while not stop.is_set():
            try:
                result = fleet.call_algorithm(SCENARIO, ALGORITHM, {"seq": seq})
                versions.add(result["version"])
            except Exception as exc:  # pragma: no cover - diagnostic only
                errors.append(exc)
                return
            seq += 1

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    controller.promote(SCENARIO, ALGORITHM)
    stop.wait(0.2)
    stop.set()
    for thread in threads:
        thread.join()
    assert not errors
    # requests observed the old and/or new version, never an error between
    assert versions <= {f"{MODEL}@1", f"{MODEL}@2"}
    assert f"{MODEL}@2" in versions


# -- state-machine unit coverage ---------------------------------------------------
def test_canary_stages_on_exactly_one_replica():
    registry, fleet, controller = _deploy_fleet()
    _publish(registry, accuracy=0.93, scale=1.01, base=f"{MODEL}@1")
    event = controller.begin(SCENARIO, ALGORITHM, policy=_policy())
    canary_id = event.fields["canary"]
    versions = {e.instance_id: e.version.ref
                for e in controller.fleet.deployments.records(SCENARIO, ALGORITHM)}
    assert versions[canary_id] == f"{MODEL}@2"
    assert all(ref == f"{MODEL}@1" for iid, ref in versions.items() if iid != canary_id)
    canary_flags = {e.instance_id: e.canary
                    for e in controller.fleet.deployments.records(SCENARIO, ALGORITHM)}
    assert canary_flags[canary_id] and sum(canary_flags.values()) == 1


def test_begin_requires_a_deployed_baseline():
    registry = ModelRegistry()
    _publish(registry, accuracy=0.9)
    fleet = EdgeFleet.deploy(FLEET[:1], zoo=ModelZoo(), telemetry=ALEMTelemetry())
    controller = RolloutController(fleet, registry)
    with pytest.raises(ResourceNotFoundError, match="deploy"):
        controller.begin(SCENARIO, ALGORITHM)


def test_begin_rejects_double_canary_and_noop_target():
    registry, fleet, controller = _deploy_fleet()
    with pytest.raises(ConfigurationError, match="already serves"):
        controller.begin(SCENARIO, ALGORITHM)  # latest == deployed
    _publish(registry, accuracy=0.93, scale=1.01, base=f"{MODEL}@1")
    controller.begin(SCENARIO, ALGORITHM)
    with pytest.raises(ConfigurationError, match="already in flight"):
        controller.begin(SCENARIO, ALGORITHM)


def test_begin_rejects_unreachable_min_samples():
    """min_samples beyond the telemetry window could never promote nor roll back."""
    registry, fleet, controller = _deploy_fleet()
    _publish(registry, accuracy=0.93, scale=1.01, base=f"{MODEL}@1")
    window_size = fleet.telemetry.window_size
    with pytest.raises(ConfigurationError, match="never be reached"):
        controller.begin(SCENARIO, ALGORITHM, policy=RolloutPolicy(
            requirement=ALEMRequirement(min_accuracy=0.8),
            min_samples=window_size + 1,
        ))


def test_manual_promote_and_rollback_require_active_rollout():
    _, _, controller = _deploy_fleet()
    with pytest.raises(ResourceNotFoundError):
        controller.promote(SCENARIO, ALGORITHM)
    with pytest.raises(ResourceNotFoundError):
        controller.rollback(SCENARIO, ALGORITHM)


def test_healthy_checks_each_need_a_fresh_window():
    registry, fleet, controller = _deploy_fleet()
    _publish(registry, accuracy=0.93, scale=1.01, base=f"{MODEL}@1")
    event = controller.begin(SCENARIO, ALGORITHM, policy=_policy())
    canary_id = event.fields["canary"]
    canary_index = [i.instance_id for i in fleet.instances].index(canary_id)

    for _ in range(4):
        fleet.call_algorithm(SCENARIO, ALGORITHM, {"seq": canary_index})
    assert controller.check(SCENARIO, ALGORITHM).kind == "healthy"
    # the judged samples were cleared: the second check cannot reuse them
    assert controller.check(SCENARIO, ALGORITHM) is None
    for _ in range(4):
        fleet.call_algorithm(SCENARIO, ALGORITHM, {"seq": canary_index})
    assert controller.check(SCENARIO, ALGORITHM).kind == "promote"


def test_replica_added_after_deploy_is_refused():
    """A replica joining a serving fleet would hold no handler and no
    record, yet the router would send it its share: the fleet refuses it."""
    from repro.core import OpenEI

    registry, fleet, controller = _deploy_fleet()
    with pytest.raises(ConfigurationError):
        fleet.add_instance(
            OpenEI(device_name="raspberry-pi-4", zoo=fleet.instances[0].openei.zoo)
        )
    assert len(fleet) == len(FLEET)
    served_by = {
        fleet.call_algorithm(SCENARIO, ALGORITHM, {"seq": seq})["served_by"]
        for seq in range(2 * len(FLEET))
    }
    assert served_by == {instance.instance_id for instance in fleet}


def test_rollout_transfer_accounting_uses_deltas():
    registry, fleet, controller = _deploy_fleet()
    _publish(registry, accuracy=0.93, scale=1.01, base=f"{MODEL}@1")
    full = registry.get(MODEL, 2).size_bytes
    event = controller.begin(SCENARIO, ALGORITHM, policy=_policy())
    # the canary held v1, so only the changed arrays (plus header) travel
    assert 0 < event.fields["transfer_bytes"] < full
    assert event.fields["transfer_bytes"] == registry.delta_bytes(MODEL, 2, have=f"{MODEL}@1")


def test_fleet_status_surfaces_rollout_block():
    _, fleet, controller = _deploy_fleet()
    description = fleet.describe()["rollout"]
    assert description["deploys"] == 1
    table = description["serving"][f"{SCENARIO}/{ALGORITHM}"]
    assert len(table) == len(FLEET)
    assert all(entry["version"] == f"{MODEL}@1" for entry in table)
    assert fleet.describe()["recent_events"][-1]["kind"] == "deploy"


def test_handler_runs_payload_through_the_deployed_version():
    registry, fleet, controller = _deploy_fleet()
    payload = np.random.default_rng(0).normal(size=(6,)).tolist()
    result = fleet.call_algorithm(SCENARIO, ALGORITHM, {"seq": 0, "payload": payload})
    expected = registry.pull(MODEL, 1).predict(np.asarray([payload]))
    assert result["label"] == int(np.argmax(expected[0]))
    assert result["version"] == f"{MODEL}@1"


def test_failed_canary_staging_is_recorded_and_releases_the_claim():
    """A staging failure must leave an operator trail — a counted
    failure plus a lease-released event carrying the error — and release
    the rollout claim so a fixed begin() can proceed."""
    registry, fleet, controller = _deploy_fleet()
    _publish(registry, accuracy=0.93, scale=1.01, base=f"{MODEL}@1")
    original_make_entry = controller._make_entry

    def exploding_make_entry(*args, **kwargs):
        raise RuntimeError("artifact pull interrupted")

    controller._make_entry = exploding_make_entry
    with pytest.raises(RuntimeError, match="artifact pull interrupted"):
        controller.begin(SCENARIO, ALGORITHM, policy=_policy())
    assert controller.stats.failures == 1
    event = fleet.deployments.recent_events()[-1]
    assert event.kind == "lease-released"
    assert event.fields["reason"] == "staging-failed: RuntimeError"
    assert event.fields["ref"] == f"{MODEL}@2"
    assert "RuntimeError: artifact pull interrupted" in event.fields["error"]
    assert event.fields["canary"] == fleet.instances[0].instance_id

    # the claim is gone: a healthy retry stages normally
    controller._make_entry = original_make_entry
    retry = controller.begin(SCENARIO, ALGORITHM, policy=_policy())
    assert retry.kind == "canary"


def test_failed_promotion_is_recorded_and_keeps_the_canary_serving():
    """A promotion that dies mid-pull must count the failure, log a
    promote-failed event naming the canary, and restore the rollout to
    the canary stage so the canary keeps serving and a retry works."""
    registry, fleet, controller = _deploy_fleet()
    _publish(registry, accuracy=0.93, scale=1.01, base=f"{MODEL}@1")
    begin_event = controller.begin(SCENARIO, ALGORITHM, policy=_policy())
    canary_id = begin_event.fields["canary"]
    original_make_entry = controller._make_entry

    def exploding_make_entry(*args, **kwargs):
        raise RuntimeError("device rejected the artifact")

    controller._make_entry = exploding_make_entry
    with pytest.raises(RuntimeError, match="device rejected the artifact"):
        controller.promote(SCENARIO, ALGORITHM)
    assert controller.stats.failures == 1
    event = fleet.deployments.recent_events()[-1]
    assert event.kind == "promote-failed"
    assert event.fields["canary"] == canary_id
    assert "RuntimeError: device rejected the artifact" in event.fields["error"]

    # the rollout is back in the canary stage: the canary still serves
    # the target version and a retried promote succeeds
    versions = {e.instance_id: e.version.ref
                for e in controller.fleet.deployments.records(SCENARIO, ALGORITHM)}
    assert versions[canary_id] == f"{MODEL}@2"
    controller._make_entry = original_make_entry
    promoted = controller.promote(SCENARIO, ALGORITHM)
    assert promoted.kind == "promote"
    versions = {e.instance_id: e.version.ref
                for e in controller.fleet.deployments.records(SCENARIO, ALGORITHM)}
    assert all(ref == f"{MODEL}@2" for ref in versions.values())
