"""Adaptive SLO serving: online ALEM telemetry drives fleet-wide reselection.

The Eq. (1) selection is solved once from analytic profiles — but live
devices drift.  This example closes the loop end to end:

1. deploy a heterogeneous fleet with shared zoo, selection cache and
   **telemetry**, register the four application scenarios, and put an
   :class:`AdaptiveController` in charge of ``safety/classify`` with an
   accuracy-oriented SLO (``max_latency_s`` constraint);
2. stream all four :mod:`repro.data.workloads` scenarios as mixed live
   traffic through one :class:`FleetGateway` — every response feeds the
   per-replica ALEM telemetry windows;
3. mid-stream, inject a device slowdown that pushes the deployed model
   over its latency SLO;
4. watch the controller detect the violation, invalidate the stale
   selection-cache keys, re-solve Eq. (1) under the measured drift, and
   hot-swap the replica's model — without restarting the gateway — then
   read it all back from ``/ei_status``.

Run with:  PYTHONPATH=src python examples/adaptive_serving.py
"""

from __future__ import annotations

from repro.apps import register_all
from repro.core import ALEMRequirement, ModelZoo, OptimizationTarget
from repro.data.workloads import scenario_request_stream
from repro.eialgorithms import build_lenet, build_mobilenet, build_vgg_lite
from repro.serving import (
    ALEMTelemetry,
    AdaptiveController,
    EdgeFleet,
    FleetGateway,
    LibEIClient,
    SLOPolicy,
)

DEVICES = ["raspberry-pi-4", "jetson-tx2"]
MAX_LATENCY_S = 0.004
ACCURACIES = {"vgg": 0.95, "lenet": 0.90, "mobilenet": 0.80}


def build_zoo() -> ModelZoo:
    zoo = ModelZoo()
    builders = {
        "lenet": lambda: build_lenet((16, 16, 1), 3, seed=0, name="lenet"),
        "mobilenet": lambda: build_mobilenet((16, 16, 1), 3, 0.5, seed=0, name="mobilenet"),
        "vgg": lambda: build_vgg_lite((16, 16, 1), 3, 0.5, seed=0, name="vgg"),
    }
    for name, builder in builders.items():
        zoo.register(name, builder(), task="image-classification",
                     input_shape=(16, 16, 1), scenario="safety")
    return zoo


def stream(client: LibEIClient, controller: AdaptiveController, rounds: int) -> None:
    """Drive the four scenarios plus the SLO-governed algorithm, checking as we go."""
    for request in scenario_request_stream(requests_per_scenario=rounds):
        client.call_algorithm(request.scenario, request.algorithm, request.args)
        if request.scenario != "safety":
            continue
        client.call_algorithm("safety", "classify", {"seq": request.args["seq"]})
        # one control cycle per stream round: this is the measure → detect
        # → re-solve → redeploy loop running against live traffic
        for event in controller.check_all():
            facts = event.fields
            print(f"  !! {event.kind}: {facts['old_model']} -> {facts['new_model']} "
                  f"on {facts['replica']} (drift {facts['drift']:.2f}x, "
                  f"violations {facts['violations']}, "
                  f"{facts['invalidated_keys']} cache keys invalidated)")


def main() -> None:
    zoo = build_zoo()
    telemetry = ALEMTelemetry(window_size=8)
    fleet = EdgeFleet.deploy(DEVICES, zoo=zoo, telemetry=telemetry)
    for instance in fleet:
        register_all(instance.openei, seed=0)
        for name, accuracy in ACCURACIES.items():
            instance.openei.capability_evaluator.set_accuracy(name, accuracy)

    controller = AdaptiveController(fleet)
    controller.add_policy(SLOPolicy(
        scenario="safety",
        algorithm="classify",
        task="image-classification",
        requirement=ALEMRequirement(min_accuracy=0.5, max_latency_s=MAX_LATENCY_S),
        target=OptimizationTarget.ACCURACY,
        min_samples=4,
    ))
    controller.register_handlers()
    print(f"deployed a {len(fleet)}-instance fleet with an SLO of "
          f"{MAX_LATENCY_S * 1e3:.0f} ms on safety/classify")
    for deployment in controller.deployments():
        print(f"  {deployment.instance_id:<24s} serves {deployment.model_name} "
              f"({deployment.expected.latency_s * 1e3:.2f} ms expected)")

    with FleetGateway(fleet) as gateway:
        client = LibEIClient(gateway.address)
        print(f"\ngateway on {gateway.url} — streaming healthy traffic "
              "(all four scenarios)")
        stream(client, controller, rounds=8)
        print("  no SLO violations; deployments unchanged")

        slowed = fleet.instances[0]
        slowed.openei.runtime.set_slowdown(1.5)
        print(f"\ninjecting a 1.5x slowdown on {slowed.instance_id} mid-stream")
        stream(client, controller, rounds=16)

        print("\ncontinuing the stream on the hot-swapped deployment")
        stream(client, controller, rounds=8)

        status = client.status()["openei"]
        adaptive = status["adaptive"]
        print(f"\n/ei_status: {adaptive['reselections']} reselection(s), "
              f"{adaptive['violations']} violation(s) detected, "
              f"{status['selection_cache']['invalidations']} cache keys invalidated")
        for deployment in adaptive["deployments"]:
            print(f"  {deployment['instance_id']:<24s} now serves "
                  f"{deployment['model']} [{deployment['mode']}] "
                  f"after {deployment['reselections']} reselection(s)")
        print(f"telemetry tracks {status['telemetry']['tracked_keys']} "
              "(scenario, algorithm, replica) windows")


if __name__ == "__main__":
    main()
