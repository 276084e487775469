"""Quickstart: deploy OpenEI on a Raspberry Pi and run the paper's walk-through.

This reproduces the Section III.E story end to end:

1. train two candidate models (a heavyweight VGG-style network and a
   MobileNet-style edge model) and register them in the model zoo;
2. deploy OpenEI on a simulated Raspberry Pi 4 and register the four
   application scenarios;
3. let the model selector solve Eq. (1) for a latency target under an
   accuracy constraint;
4. run inference through the package manager (including an urgent
   real-time request);
5. serve everything over libei and issue the two example URLs of Fig. 6.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.apps import register_all
from repro.core import ALEMRequirement, ModelZoo, OpenEI, OptimizationTarget
from repro.eialgorithms import build_mobilenet, build_vgg_lite
from repro.nn.datasets import make_images
from repro.nn.optimizers import Adam
from repro.serving import LibEIClient, LibEIServer


def build_model_zoo() -> tuple[ModelZoo, object]:
    """Train the candidate models on a synthetic vision task and register them."""
    dataset = make_images(samples=240, image_size=16, classes=3, seed=0)
    zoo = ModelZoo()
    for name, builder in (
        ("vgg-lite", lambda: build_vgg_lite((16, 16, 1), 3, 0.5, seed=0, name="vgg-lite")),
        ("mobilenet", lambda: build_mobilenet((16, 16, 1), 3, 0.5, seed=0, name="mobilenet")),
    ):
        model = builder()
        model.fit(dataset.x_train, dataset.y_train, epochs=4, batch_size=16, optimizer=Adam(0.005))
        zoo.register(name, model, task="image-classification", input_shape=(16, 16, 1))
        print(f"trained {name}: {model.param_count()} parameters")
    return zoo, dataset


def main() -> None:
    zoo, dataset = build_model_zoo()

    # Deploy and play: OpenEI on a Raspberry Pi 4.
    openei = OpenEI(device_name="raspberry-pi-4", zoo=zoo)
    register_all(openei, seed=0)
    print(f"\nOpenEI deployed on {openei.device.name}")

    # Evaluate EI capability (the ALEM tuple per model) and select per Eq. (1).
    candidates = openei.evaluate_capability(
        task="image-classification", x_test=dataset.x_test, y_test=dataset.y_test
    )
    print("\nALEM capability of this edge:")
    for candidate in candidates:
        alem = candidate.alem
        print(
            f"  {candidate.model_name:<12s} accuracy={alem.accuracy:.3f} "
            f"latency={alem.latency_s * 1e3:.2f} ms energy={alem.energy_j:.3f} J "
            f"memory={alem.memory_mb:.1f} MB"
        )

    selection = openei.select_model(
        task="image-classification",
        requirement=ALEMRequirement(min_accuracy=0.8),
        target=OptimizationTarget.LATENCY,
        x_test=dataset.x_test,
        y_test=dataset.y_test,
    )
    print(f"\nEq. (1) selected: {selection.selected_name}")

    # Ordinary and urgent (real-time module) inference through the package manager.
    outcome = openei.infer(selection.selected_name, dataset.x_test[:4])
    urgent = openei.infer(selection.selected_name, dataset.x_test[:1], realtime=True, deadline_s=0.5)
    print(f"inference latency {outcome.latency_s * 1e3:.2f} ms; "
          f"urgent request met deadline: {urgent.met_deadline}")

    # Serve libei and exercise the Fig. 6 URLs.
    server = LibEIServer(openei)
    with server:
        client = LibEIClient(server.address)
        detection = client.get("/ei_algorithms/safety/detection/%7Bvideo=camera1%7D")
        frame = client.get("/ei_data/realtime/camera1/%7Btimestamp=now%7D")
        print(f"\nlibei detection call -> {len(detection['result']['detections'])} objects detected")
        print(f"libei realtime data  -> frame of shape {frame['data']['shape']}")
    print("\nquickstart complete")


if __name__ == "__main__":
    main()
