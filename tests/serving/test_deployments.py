"""The one-table contract: both controllers read and write ``fleet.deployments``.

What a replica serves for a ``(scenario, algorithm)`` is held once, so
the adaptive and rollout views of ``/ei_status`` cannot disagree, the
single libei handler cannot be overwritten by "the other controller's",
and a record handed out by the table cannot be edited behind its lock.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import FrozenInstanceError, replace

import pytest

from repro.core import ALEMRequirement, ModelRegistry, ModelZoo
from repro.core.alem import ALEM, OptimizationTarget
from repro.nn.layers import Dense, ReLU, Softmax
from repro.nn.model import Sequential
from repro.serving import (
    ALEMTelemetry,
    AdaptiveController,
    Deployment,
    EdgeFleet,
    FleetGateway,
    LibEIClient,
    RolloutController,
    RolloutPolicy,
    SLOPolicy,
)

SCENARIO, ALGORITHM = "safety", "classify"
KEY = f"{SCENARIO}/{ALGORITHM}"
MODEL = "safety-classifier"
FLEET = ["raspberry-pi-4", "jetson-tx2", "raspberry-pi-4"]


def _publish(registry: ModelRegistry, accuracy: float, scale: float = 1.0, base=None):
    model = Sequential(
        [Dense(6, 8, seed=0), ReLU(), Dense(8, 3, seed=1), Softmax()], name=MODEL
    )
    model.layers[2].params["W"][...] *= scale
    return registry.publish(
        MODEL, model, task="image-classification", input_shape=(6,),
        scenario=SCENARIO, base=base, accuracy=accuracy,
    )


def _passive_slo() -> SLOPolicy:
    """The bench's managed shape: an SLO the served build never violates."""
    return SLOPolicy(
        scenario=SCENARIO, algorithm=ALGORITHM, task="image-classification",
        requirement=ALEMRequirement(min_accuracy=0.5, max_latency_s=1.0),
        target=OptimizationTarget.ACCURACY, min_samples=4,
    )


def _managed_fleet(zoo=None):
    registry = ModelRegistry()
    _publish(registry, accuracy=0.90)
    fleet = EdgeFleet.deploy(
        FLEET, zoo=zoo if zoo is not None else ModelZoo(),
        telemetry=ALEMTelemetry(window_size=8),
    )
    return registry, fleet, RolloutController(fleet, registry)


def _drive(fleet, requests: int):
    return [fleet.call_algorithm(SCENARIO, ALGORITHM, {"seq": i}) for i in range(requests)]


def _answers(fleet):
    """One response per replica, minus the routing-dependent tag."""
    return [
        {k: v for k, v in result.items() if k != "served_by"}
        for result in _drive(fleet, len(fleet))
    ]


def _models_by_replica(entries):
    return {e["instance_id"]: (e["model"], e["version"], e["canary"]) for e in entries}


# -- (a) the managed shape: deploy, then a policy over the same key ------------------
def test_add_policy_adopts_the_versioned_records_through_canary_and_promote():
    registry, fleet, rollout = _managed_fleet()
    deployed = rollout.deploy(SCENARIO, ALGORITHM, MODEL)
    adaptive = AdaptiveController(fleet)
    adopted = adaptive.add_policy(_passive_slo())

    # adopted, not re-solved: the very records the rollout installed
    assert adopted == deployed
    assert all(d.version.ref == f"{MODEL}@1" for d in adaptive.deployments())

    def views():
        status = fleet.describe()
        return (
            _models_by_replica(status["adaptive"]["deployments"]),
            _models_by_replica(status["rollout"]["serving"][KEY]),
        )

    with FleetGateway(fleet) as gateway:
        client = LibEIClient(gateway.address)
        first = client.call_algorithm(SCENARIO, ALGORITHM, {"seq": 0})["result"]
        assert first["version"] == f"{MODEL}@1" and first["canary"] is False
        assert first["model"] == MODEL and first["mode"] == "edge"

        adaptive_view, rollout_view = views()
        assert adaptive_view == rollout_view and len(rollout_view) == len(FLEET)

        _publish(registry, accuracy=0.93, scale=1.01, base=f"{MODEL}@1")
        canary_id = rollout.begin(
            SCENARIO, ALGORITHM,
            policy=RolloutPolicy(
                requirement=ALEMRequirement(min_accuracy=0.8), min_samples=3, healthy_checks=2
            ),
        ).instance_ids[0]
        adaptive_view, rollout_view = views()
        assert adaptive_view == rollout_view
        assert rollout_view[canary_id] == (MODEL, f"{MODEL}@2", True)

        promoted = False
        for seq in range(64 * len(FLEET)):
            result = client.call_algorithm(SCENARIO, ALGORITHM, {"seq": seq})["result"]
            assert {"model", "mode", "version", "canary", "observed_alem"} <= set(result)
            assert adaptive.check_all() == []  # the passive policy only watches
            if any(e.kind == "promote" for e in rollout.step()):
                promoted = True
                break
        assert promoted

        status = client.status()["openei"]
        adaptive_view = _models_by_replica(status["adaptive"]["deployments"])
        rollout_view = _models_by_replica(status["rollout"]["serving"][KEY])
        assert adaptive_view == rollout_view
        assert set(rollout_view.values()) == {(MODEL, f"{MODEL}@2", False)}
        assert status["rollout"]["promotions"] == 1
        assert status["adaptive"]["reselections"] == 0


# -- (b) registering "the other controller's" handler changes nothing ---------------
def test_register_handlers_after_deploy_leaves_one_handler():
    _, fleet, rollout = _managed_fleet()
    rollout.deploy(SCENARIO, ALGORITHM, MODEL)
    adaptive = AdaptiveController(fleet)
    adaptive.add_policy(_passive_slo())
    before = _answers(fleet)
    assert all(answer["version"] == f"{MODEL}@1" for answer in before)

    adaptive.register_handlers()

    assert _answers(fleet) == before
    handlers = {id(i.openei._algorithms[SCENARIO][ALGORITHM]) for i in fleet}
    assert len(handlers) == 1


def test_deploy_after_register_handlers_serves_the_deployed_version(image_zoo):
    _, fleet, rollout = _managed_fleet(zoo=image_zoo)
    for instance in fleet:  # accuracy is injected, as in test_adaptive.py
        for name in ("vgg-0.5x", "lenet", "mobilenet-0.5x"):
            instance.openei.capability_evaluator.set_accuracy(name, 0.9)
    adaptive = AdaptiveController(fleet)
    selected = adaptive.add_policy(_passive_slo())
    adaptive.register_handlers()
    zoo_answers = _answers(fleet)
    assert [a["model"] for a in zoo_answers] == [d.model_name for d in selected]
    assert all(a["version"] is None and a["canary"] is False for a in zoo_answers)

    # update_zoo=False: image_zoo is a session fixture other tests share
    rollout.deploy(SCENARIO, ALGORITHM, MODEL, update_zoo=False)
    before = _answers(fleet)
    assert all(a["version"] == f"{MODEL}@1" for a in before)
    # the policy now watches what the rollout deployed
    assert [d.version.ref for d in adaptive.deployments()] == [f"{MODEL}@1"] * len(FLEET)

    adaptive.register_handlers()
    assert _answers(fleet) == before
    handlers = {id(i.openei._algorithms[SCENARIO][ALGORITHM]) for i in fleet}
    assert len(handlers) == 1


# -- (c) records are immutable; transitions do not lose updates ---------------------
def test_a_record_handed_out_by_the_table_cannot_be_mutated():
    _, fleet, rollout = _managed_fleet()
    rollout.deploy(SCENARIO, ALGORITHM, MODEL)
    replica = fleet.instances[0].instance_id
    record = fleet.deployments.get(SCENARIO, ALGORITHM, replica)
    with pytest.raises(FrozenInstanceError):
        record.canary = True
    with pytest.raises(FrozenInstanceError):
        record.model_name = "someone-elses-model"
    with pytest.raises((AttributeError, TypeError)):  # slotted: no stray attributes either
        record.note = "edited behind the lock"
    for listed in (rollout.serving(SCENARIO, ALGORITHM), fleet.deployments.records(SCENARIO, ALGORITHM)):
        listed.clear()  # a caller's list, not the table's
    assert fleet.deployments.get(SCENARIO, ALGORITHM, replica) is record


def test_concurrent_puts_and_promotes_lose_no_update():
    """Writers each own one replica; a promoter keeps rewriting every
    record (clearing canary flags).  A read-modify-write outside the
    table lock would drop some writer's last ``put``."""
    fleet = EdgeFleet.deploy(["raspberry-pi-4"] * 6, zoo=ModelZoo())
    table = fleet.deployments
    alem = ALEM(accuracy=0.9, latency_s=0.001, energy_j=0.001, memory_mb=1.0)
    seed = [
        Deployment(SCENARIO, ALGORITHM, i.instance_id, "m", "edge", alem, alem, canary=True)
        for i in fleet
    ]
    table.deploy(SCENARIO, ALGORITHM, seed)
    puts, stop = 300, threading.Event()

    def writer(record: Deployment) -> None:
        for n in range(1, puts + 1):
            table.put(replace(record, reselections=n))

    def promoter() -> None:
        while not stop.is_set():
            table.promote(SCENARIO, ALGORITHM, [])

    writers = [threading.Thread(target=writer, args=(record,)) for record in seed]
    promoting = threading.Thread(target=promoter)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        promoting.start()
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=30.0)
        stop.set()
        promoting.join(timeout=30.0)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not promoting.is_alive() and not any(t.is_alive() for t in writers)
    table.promote(SCENARIO, ALGORITHM, [])
    final = table.records(SCENARIO, ALGORITHM)
    assert [r.reselections for r in final] == [puts] * len(seed)
    assert not any(r.canary for r in final)
