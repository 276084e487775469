"""Model lifecycle: publish → canary → promote / rollback over a live fleet.

PRs 1–4 made the fleet serve traffic; this walk-through makes the models
*change* under that traffic:

1. publish v1 of a safety classifier to the versioned
   :class:`~repro.core.registry.ModelRegistry` and deploy it fleet-wide
   as the serving baseline through a :class:`RolloutController`;
2. stream all four :mod:`repro.data.workloads` scenarios through a live
   :class:`FleetGateway` — every response feeds the per-replica ALEM
   telemetry windows;
3. publish v2 (a retrained build, ``base=v1``) and note the delta-aware
   transfer cost — only the changed arrays travel to an edge that
   already holds v1;
4. canary v2 on one replica, keep streaming, and watch the controller
   promote it fleet-wide after consecutive healthy observation windows —
   in-flight requests never drop, the gateway never restarts;
5. publish v3 with a *regression* (accuracy below the rollout SLO),
   canary it, and watch the controller roll the canary back;
6. read the whole story back from ``/ei_status``.

Run with:  PYTHONPATH=src python examples/model_rollout.py
"""

from __future__ import annotations

import os

from repro.apps import register_all
from repro.collaboration import ModelSyncPlanner
from repro.core import ALEMRequirement, ModelRegistry, ModelZoo
from repro.data.workloads import scenario_request_stream
from repro.eialgorithms import build_lenet
from repro.hardware.device import WAN_LINK
from repro.serving import (
    ALEMTelemetry,
    EdgeFleet,
    FleetGateway,
    LibEIClient,
    RolloutController,
    RolloutPolicy,
)

DEVICES = ["raspberry-pi-4", "jetson-tx2", "raspberry-pi-4", "jetson-tx2"]
SCENARIO, ALGORITHM = "safety", "classify"
#: ~2 requests/scenario/round at smoke sizes keeps the CI job fast.
ROUNDS = 2 if os.environ.get("REPRO_BENCH_SMOKE") else 4


def publish_v1(registry: ModelRegistry):
    """Train-and-publish stand-in: v1 is the cloud's current best build."""
    model = build_lenet((16, 16, 1), 3, seed=0, name="safety-classifier")
    return registry.publish(
        "safety-classifier", model,
        task="image-classification", input_shape=(16, 16, 1),
        scenario=SCENARIO, accuracy=0.90,
    )


def publish_v2(registry: ModelRegistry):
    """A retraining pass touches only the classifier head: a small delta."""
    model = registry.pull("safety-classifier", 1)
    head = [layer for layer in model.layers if layer.param_count() > 0][-1]
    head.params["W"][...] *= 1.01
    return registry.publish(
        "safety-classifier", model,
        task="image-classification", input_shape=(16, 16, 1),
        scenario=SCENARIO, base="safety-classifier@1", accuracy=0.93,
    )


def publish_regression(registry: ModelRegistry):
    """v3's eval accuracy regressed below the SLO — the canary must catch it."""
    model = registry.pull("safety-classifier", 2)
    head = [layer for layer in model.layers if layer.param_count() > 0][-1]
    head.params["W"][...] *= -1.0
    return registry.publish(
        "safety-classifier", model,
        task="image-classification", input_shape=(16, 16, 1),
        scenario=SCENARIO, base="safety-classifier@2", accuracy=0.42,
    )


def stream(client: LibEIClient, rollout: RolloutController, rounds: int) -> int:
    """Drive mixed scenario traffic plus the rollout-managed algorithm.

    The classifier is the fleet's hot path, so each stream round carries
    one classify call per replica — under round-robin routing a canary
    therefore collects about one fresh observation per round.
    """
    served = 0
    for request in scenario_request_stream(requests_per_scenario=rounds):
        client.call_algorithm(request.scenario, request.algorithm, request.args)
        served += 1
        if request.scenario != SCENARIO:
            continue
        for _ in range(len(DEVICES)):
            client.call_algorithm(SCENARIO, ALGORITHM, {"seq": request.args["seq"]})
            served += 1
        for event in rollout.step():
            facts = event.fields
            served_by = facts.get("instances") or [facts["canary"]]
            print(f"  !! {event.kind}: {facts['ref']} on {', '.join(served_by)}"
                  + (f" (violations {facts['violations']})" if facts.get("violations") else ""))
    return served


def stream_until_resolved(client: LibEIClient, rollout: RolloutController) -> int:
    """Keep serving live traffic until the in-flight rollout promotes or rolls back."""
    served = 0
    for _ in range(16):  # bounded: each pass is ROUNDS stream rounds
        served += stream(client, rollout, rounds=ROUNDS)
        stage = rollout.describe()["rollouts"][f"{SCENARIO}/{ALGORITHM}"]["stage"]
        if stage != "canary":
            return served
    raise AssertionError("rollout did not resolve; raise the traffic volume")


def main() -> None:
    registry = ModelRegistry()
    v1 = publish_v1(registry)
    print(f"published {v1.ref} ({v1.size_bytes / 1024:.0f} KiB, "
          f"fingerprint {v1.fingerprint[:12]})")

    telemetry = ALEMTelemetry(window_size=8)
    fleet = EdgeFleet.deploy(DEVICES, zoo=ModelZoo(), telemetry=telemetry)
    for instance in fleet:
        register_all(instance.openei, seed=0)

    rollout = RolloutController(fleet, registry)
    entries = rollout.deploy(SCENARIO, ALGORITHM, "safety-classifier")
    print(f"deployed {v1.ref} on {len(entries)} replicas "
          f"behind {SCENARIO}/{ALGORITHM}")

    policy = RolloutPolicy(
        requirement=ALEMRequirement(min_accuracy=0.8),
        min_samples=3,
        healthy_checks=2,
    )

    with FleetGateway(fleet) as gateway:
        client = LibEIClient(gateway.address)
        print(f"\ngateway on {gateway.url} — streaming all four scenarios")
        served = stream(client, rollout, rounds=ROUNDS)
        print(f"  {served} requests served on {v1.ref}, zero failures")

        v2 = publish_v2(registry)
        sync = ModelSyncPlanner(registry, WAN_LINK)
        plan = sync.plan("safety-classifier", have=v1)
        print(f"\npublished {v2.ref} (base {v1.ref}); delta push is "
              f"{plan.transfer_bytes / 1024:.0f} KiB over the WAN "
              f"({plan.saved_bytes / 1024:.0f} KiB saved vs full, mode={plan.mode})")

        event = rollout.begin(SCENARIO, ALGORITHM, policy=policy)
        print(f"canarying {event.fields['ref']} on {event.fields['canary']}")
        served = stream_until_resolved(client, rollout)
        print(f"  {served} requests served through the canary window, zero failures")

        v3 = publish_regression(registry)
        print(f"\npublished {v3.ref} with a regressed eval accuracy "
              f"({v3.extra['accuracy']:.2f} < SLO 0.80)")
        event = rollout.begin(SCENARIO, ALGORITHM, policy=policy)
        print(f"canarying {event.fields['ref']} on {event.fields['canary']}")
        served = stream_until_resolved(client, rollout)
        print(f"  {served} requests served through the canary window, zero failures")

        status = client.status()["openei"]["rollout"]
        print(f"\n/ei_status: {status['promotions']} promotion(s), "
              f"{status['rollbacks']} rollback(s), {status['canaries']} canaries, "
              f"{status['bytes_transferred'] / 1024:.0f} KiB pushed")
        for entry in status["serving"][f"{SCENARIO}/{ALGORITHM}"]:
            print(f"  {entry['instance_id']:<24s} serves {entry['version']}")


if __name__ == "__main__":
    main()
