"""Figure 6 — the libei RESTful API grammar.

Fig. 6 gives two literal example calls:

* ``GET http://ip:port/ei_algorithms/safety/detection/{video}`` — call the
  object-detection algorithm on a video resource;
* ``GET http://ip:port/ei_data/realtime/camera1/{timestamp}`` — read the
  camera's real-time data.

The bench issues exactly these URLs against a live server and measures
parsing throughput of the grammar plus HTTP round-trip latency.

Expected shape: both example calls succeed; URL parsing costs microseconds
(it must not add to the edge's latency budget).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_table
from repro.apps import register_public_safety
from repro.core import OpenEI
from repro.serving import LibEIClient, LibEIServer, parse_path

PAPER_ALGORITHM_URL = "/ei_algorithms/safety/detection/%7Bvideo=camera1%7D"
PAPER_DATA_URL = "/ei_data/realtime/camera1/%7Btimestamp=1.5%7D"


@pytest.fixture(scope="module")
def safety_stack():
    openei = OpenEI.deploy("raspberry-pi-4")
    register_public_safety(openei, seed=0)
    server = LibEIServer(openei)
    server.start()
    yield LibEIClient(server.address)
    server.stop()


def test_fig6_url_grammar_parse_throughput(benchmark):
    request = benchmark(
        parse_path, "/ei_algorithms/safety/detection/{video=camera1}"
    )
    assert request.scenario == "safety" and request.algorithm == "detection"
    assert request.args == {"video": "camera1"}


def test_fig6_paper_example_calls_round_trip(benchmark, safety_stack):
    client = safety_stack

    def call_both():
        algorithm_body, algorithm_seconds = client.timed_get(PAPER_ALGORITHM_URL)
        data_body, data_seconds = client.timed_get(PAPER_DATA_URL)
        assert algorithm_body["status"] == "ok"
        assert data_body["status"] == "ok"
        return algorithm_seconds, data_seconds

    algorithm_seconds, data_seconds = benchmark(call_both)

    print_table(
        "Figure 6 — the paper's literal example calls over HTTP",
        f"{'call':<54s} {'round-trip':>12s}",
        [
            f"{'GET /ei_algorithms/safety/detection/{video=camera1}':<54s} "
            f"{algorithm_seconds * 1e3:>9.2f} ms",
            f"{'GET /ei_data/realtime/camera1/{timestamp}':<54s} "
            f"{data_seconds * 1e3:>9.2f} ms",
        ],
    )
