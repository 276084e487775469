"""Figure 4 — the OpenEI architecture answering all four scenarios end to end.

Fig. 4 shows the deployed stack (package manager + model selector + libei)
serving the four application URL prefixes.  The bench deploys OpenEI on a
Raspberry Pi, registers the four scenarios, and measures the HTTP
round-trip latency of every algorithm endpoint plus both data endpoints
over a live libei server.

Expected shape: every endpoint answers successfully; the table prints
each round trip without judging it against the host's speed.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_table
from repro.apps import register_all
from repro.core import OpenEI
from repro.serving import LibEIClient, LibEIServer


ENDPOINTS = [
    ("safety/detection", "/ei_algorithms/safety/detection/%7Bvideo=camera1%7D"),
    ("safety/firearm_detection", "/ei_algorithms/safety/firearm_detection/"),
    ("vehicles/tracking", "/ei_algorithms/vehicles/tracking/?frames=1"),
    ("home/power_monitor", "/ei_algorithms/home/power_monitor/"),
    ("health/activity_recognition", "/ei_algorithms/health/activity_recognition/"),
    ("data realtime", "/ei_data/realtime/camera1/%7Btimestamp=now%7D"),
    # a fixed window: the camera is live, so an open-ended read would
    # return a series every round makes longer
    ("data historical", "/ei_data/historical/camera1/?start=0&end=0.2"),
    ("status", "/ei_status"),
]


@pytest.fixture(scope="module")
def running_stack(vision_zoo):
    openei = OpenEI(device_name="raspberry-pi-4", zoo=vision_zoo)
    register_all(openei, seed=0)
    server = LibEIServer(openei)
    server.start()
    yield LibEIClient(server.address)
    server.stop()


def test_fig4_full_stack_serves_all_scenarios(benchmark, running_stack):
    client = running_stack

    def call_every_endpoint():
        latencies = {}
        for name, path in ENDPOINTS:
            body, seconds = client.timed_get(path)
            assert body["status"] == "ok"
            latencies[name] = seconds
        return latencies

    latencies = benchmark(call_every_endpoint)

    print_table(
        "Figure 4 — OpenEI stack on raspberry-pi-4: libei endpoint round-trips",
        f"{'endpoint':<30s} {'round-trip':>12s}",
        [f"{name:<30s} {seconds * 1e3:>9.2f} ms" for name, seconds in latencies.items()],
    )

    assert set(latencies) == {name for name, _ in ENDPOINTS}
