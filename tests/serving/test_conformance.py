"""The libei conformance table: every algorithm and route, on every transport.

libei is one interface (Fig. 6): a peer calls the same URL whether it
reaches one OpenEI in process or a fleet over HTTP.  :data:`ROWS` holds
one row per registered (scenario, algorithm), per ``/ei_*`` route and per
invalid spelling, and every row runs on three deployments built alike
with ``register_all(seed=0)``, so their sensors produce the same readings:

* ``openei``: single calls through ``LibEIDispatcher(OpenEI)``;
* ``fleet``: a one-replica :class:`EdgeFleet` in process; an algorithm
  row is one ``call_algorithm_batch`` list (the ``batch_inproc`` path),
  any other row goes through ``LibEIDispatcher(fleet)``;
* ``http``: raw GETs to a :class:`FleetGateway` over another one-replica
  fleet.

A good row answers equal bodies on all three (minus ``latency_s`` and
``served_by``, floats to 1e-9), type for type with strict JSON, and the
part of the body the row pins.  An invalid spelling gets the same status
everywhere, with the row's piece of error text, and consumes no reading,
even after good calls earlier in the same list.
"""

from __future__ import annotations

import http.client
import json
from collections import Counter
from contextlib import closing
from types import SimpleNamespace
from urllib.parse import quote

import pytest

from repro.apps import register_all
from repro.apps.connected_vehicles import MAX_FRAMES_PER_CALL
from repro.apps.smart_home import PowerMonitor
from repro.core import OpenEI
from repro.data import CameraSensor
from repro.exceptions import APIError, ResourceNotFoundError
from repro.serving import EdgeFleet, FleetGateway, LibEIDispatcher, parse_path

#: calls per good algorithm row: K singles on ``openei`` and ``http``, one list of K on ``fleet``
K = 3
#: a series with no live sensor behind it
RECORDED = "recorded-cam"
ALGORITHMS = "/ei_algorithms/"
HISTORICAL = f"/ei_data/historical/{RECORDED}/"

#: (path, status, expected) in the order they run; a row's id is its path.  A
#: good algorithm row sends its path K times, a tuple of paths sends those
#: calls as one list.  ``expected`` pins what every transport must answer
#: beyond agreeing: part of a good body (see :func:`_holds`) or a piece of
#: the error text.
ROWS = [
    # every registered algorithm, the paper's example URL, a recorded-only
    # camera and the vehicle camera, whose frames a safety algorithm reads too
    ("/ei_algorithms/safety/detection/", 200,
     {"result": {"sensor_id": "camera1", "detections": ..., "ground_truth_boxes": ...}}),
    ("/ei_algorithms/safety/detection/{video=camera1}", 200,
     {"result": {"sensor_id": "camera1", "detections": ...}}),
    (f"/ei_algorithms/safety/detection/?video={RECORDED}", 200,
     {"result": {"sensor_id": RECORDED, "detections": ...}}),
    ("/ei_algorithms/safety/detection/?video=vehiclecam1", 200,
     {"result": {"sensor_id": "vehiclecam1", "detections": ...}}),
    ("/ei_algorithms/safety/firearm_detection/", 200, {"result": {"alerts": ..., "alert": ...}}),
    ("/ei_algorithms/vehicles/tracking/", 200,
     {"result": {"sensor_id": "vehiclecam1", "track": [...], "predicted_next": [..., ...]}}),
    ("/ei_algorithms/vehicles/tracking/?frames=2", 200,
     {"result": {"track": [..., ...], "ground_truth": [..., ...]}}),
    # calls of different lengths: call i owns its own run of frames, folded in call order
    (tuple(f"/ei_algorithms/vehicles/tracking/{query}"
           for query in ("?frames=2", "?frames=1", "?frames=3", "")), 200,
     {"result": {"track": [..., ...]}}),
    ("/ei_algorithms/home/power_monitor/", 200,
     {"result": {"sensor_id": "powermeter1",
                 "appliances": dict.fromkeys(PowerMonitor().appliance_names, ...)}}),
    ("/ei_algorithms/health/activity_recognition/", 200,
     {"result": {"sensor_id": "wearable1", "activity_name": ..., "ground_truth": ...}}),
    # status, realtime and historical data
    ("/ei_status", 200, {"status": "ok", "openei": {"fleet_size": 1}}),
    ("/ei_data/realtime/camera1/", 200, {"data": {"sensor_id": "camera1", "shape": [32, 32, 1]}}),
    ("/ei_data/realtime/camera1/{timestamp=42}", 200, {"data": {"annotations": {"boxes": ...}}}),
    ("/ei_data/realtime/powermeter1/", 200, {"data": {"sensor_id": "powermeter1", "shape": [1]}}),
    (f"/ei_data/realtime/{RECORDED}/", 200, {"data": {"sensor_id": RECORDED}}),
    (HISTORICAL + "?start=0.1&end=0.5", 200, {"data": {"count": 6, "start": 0.1, "end": 0.5}}),
    (HISTORICAL + "?start=1000", 200,
     {"data": {"count": 0, "start": 1000.0, "end": None, "timestamps": [], "payloads": []}}),
    (HISTORICAL + "?start=0", 200, {"data": {"count": 12, "start": 0.0, "end": None}}),
    (HISTORICAL + "?start=0&end=1e3", 200, {"data": {"count": 12, "end": 1000.0}}),
    (HISTORICAL + '{"start": null}', 200, {"data": {"count": 12, "start": 0.0, "end": None}}),
    (HISTORICAL + '{"start": null, "end": null}', 200,
     {"data": {"count": 12, "start": 0.0, "end": None}}),
    # a frame count that is not an integer of at most MAX_FRAMES_PER_CALL
    *[(f"/ei_algorithms/vehicles/tracking/{spelling}", 400, "argument 'frames'") for spelling in (
        "?frames=abc", "?frames=1.5", '{"frames":[1]}', f"?frames={MAX_FRAMES_PER_CALL + 1}",
        "?frames=100000", "?frames=true", "?frames=false", "?frames=True",
    )],
    # an unknown sensor, algorithm, resource or data type
    ("/ei_algorithms/safety/detection/?video=nope", 404, "'nope'"),
    ("/ei_algorithms/safety/firearm_detection/?video=nope", 404, "'nope'"),
    ("/ei_algorithms/vehicles/tracking/?video=nope", 404, "'nope'"),
    ("/ei_algorithms/home/power_monitor/?meter=nope", 404, "'nope'"),
    ("/ei_algorithms/health/activity_recognition/?sensor=nope", 404, "'nope'"),
    ("/ei_algorithms/safety/missing/", 404, "'missing'"),
    ("/ei_data/realtime/ghost/", 404, "'ghost'"),
    ("/ei_data/historical/ghost/?start=0", 404, "'ghost'"),
    ("/nonsense", 400, "'nonsense'"),
    ("/ei_data/streaming/camera1/", 400, "'streaming'"),
    # a live sensor of a kind the algorithm does not read
    ("/ei_algorithms/safety/detection/?video=powermeter1", 400, "a PowerMeterSensor"),
    ("/ei_algorithms/safety/firearm_detection/?video=wearable1", 400, "a WearableIMUSensor"),
    ("/ei_algorithms/vehicles/tracking/?video=camera1", 400, "a CameraSensor"),
    ("/ei_algorithms/vehicles/tracking/?video=wearable1", 400, "a WearableIMUSensor"),
    ("/ei_algorithms/home/power_monitor/?meter=camera1", 400, "a CameraSensor"),
    ("/ei_algorithms/health/activity_recognition/?sensor=camera1", 400, "a CameraSensor"),
    # a window bound that is not a finite number (echoed back, it would not be JSON)
    *[(HISTORICAL + spelling, 400, "must be a finite number") for spelling in (
        "?start=abc", "?start=0&end=never", "{start=[1]}", "?start=nan", "?start=inf",
        "?start=-inf", "?start=1e999", "?start=0&end=NaN", "?start=0&end=Infinity",
        "?start=0&end=-inf", "?start=0&end=1e999",
    )],
]

def _stock(openei: OpenEI) -> OpenEI:
    register_all(openei, seed=0)
    for reading in CameraSensor(sensor_id=RECORDED, seed=3).stream(12):
        openei.data_store.record(reading)
    return openei


@pytest.fixture(scope="module")
def stock():
    fleet, served = (EdgeFleet.deploy(["raspberry-pi-4"]) for _ in range(2))
    deployments = [_stock(OpenEI.deploy("raspberry-pi-4"))]
    deployments += [_stock(f.instances[0].openei) for f in (fleet, served)]
    with FleetGateway(served) as gateway, closing(
        http.client.HTTPConnection(*gateway.address, timeout=5.0)
    ) as connection:
        yield SimpleNamespace(
            openei=deployments[0], fleet=fleet, connection=connection,
            counts=lambda: [Counter({s: ei.data_store.count(s) for s in ei.data_store.sensor_ids})
                            for ei in deployments],
        )


def _dispatched(target, paths):
    dispatcher = LibEIDispatcher(target)
    return [dispatcher.safe_handle_path(path) for path in paths]


def _error(status, exc):
    return [(status, {"status": "error", "error": str(exc)})]


def _listed(fleet, paths, ok):
    """The row's calls as one list, or its bad call after K - 1 good ones."""
    requests = [parse_path(path) for path in paths]
    calls = [request.args for request in requests] if ok else [{}] * (K - 1) + [requests[0].args]
    scenario, algorithm = requests[0].scenario, requests[0].algorithm
    try:
        results = fleet.call_algorithm_batch(scenario, algorithm, calls)
    except ResourceNotFoundError as exc:
        return _error(404, exc)
    except APIError as exc:
        return _error(400, exc)
    assert fleet.call_algorithm_batch(scenario, algorithm, []) == []
    envelope = {"status": "ok", "scenario": scenario, "algorithm": algorithm}
    return [(200, {**envelope, "result": result}) for result in results]


def _not_json(constant):
    raise AssertionError(f"{constant} in a response body is not JSON")


def _fetched(connection, paths):
    answers = []
    for path in paths:
        connection.request("GET", quote(path, safe="/?&="))
        response = connection.getresponse()
        wire = response.read()
        body = json.loads(wire, parse_constant=_not_json)
        assert wire == json.dumps(body).encode()
        answers.append((response.status, body))
    return answers


def _holds(got, fragment):
    """``got`` has every key of a dict ``fragment``, exactly the items of a
    list one, and equals anything else; ``...`` stands for any value."""
    if fragment is ...:
        return True
    if isinstance(fragment, dict):
        return isinstance(got, dict) and all(
            key in got and _holds(got[key], value) for key, value in fragment.items()
        )
    if isinstance(fragment, list):
        return (isinstance(got, list) and len(got) == len(fragment)
                and all(map(_holds, got, fragment)))
    return got == fragment


def _comparable(body):
    """``body`` minus what differs between two correct runs: wall clock and routing."""
    result = body.get("result")
    if not isinstance(result, dict):
        return body
    result = {key: value for key, value in result.items() if key != "served_by"}
    if "observed_alem" in result:
        result["observed_alem"] = {
            key: value for key, value in result["observed_alem"].items() if key != "latency_s"
        }
    return {**body, "result": result}


def _assert_same(got, want, where):
    """``got`` is ``want`` (decoded JSON) type for type; floats agree to 1e-9."""
    if isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for index, (item, expected) in enumerate(zip(got, want)):
            _assert_same(item, expected, f"{where}[{index}]")
    elif isinstance(want, dict):
        assert type(got) is dict and got.keys() == want.keys(), where
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    else:
        assert type(got) is type(want), f"{where}: {type(got).__name__}, not {type(want).__name__}"
        assert abs(got - want) <= 1e-9 if type(want) is float else got == want, where


def _paths(path, status):
    """The single calls a row makes on ``openei`` and ``http``."""
    if isinstance(path, tuple):
        return list(path)
    return [path] * (K if path.startswith(ALGORITHMS) and status == 200 else 1)


@pytest.mark.parametrize(
    "path,status,expected", ROWS,
    ids=[path if isinstance(path, str) else " then ".join(path) for path, _, _ in ROWS],
)
def test_a_row_answers_alike_on_every_transport(stock, path, status, expected):
    paths = _paths(path, status)
    before = stock.counts()
    answers = {
        "openei": _dispatched(stock.openei, paths),
        "fleet": (_listed(stock.fleet, paths, status == 200) if paths[0].startswith(ALGORITHMS)
                  else _dispatched(stock.fleet, paths)),
        "http": _fetched(stock.connection, paths),
    }
    statuses = {name: [code for code, _ in pairs] for name, pairs in answers.items()}
    assert statuses == {name: [status] * len(paths) for name in answers}
    # the readings each deployment consumed for this row
    read = [after - earlier for after, earlier in zip(stock.counts(), before)]
    assert read[0] == read[1] == read[2]
    if status != 200:
        assert not read[0]
        for pairs in answers.values():
            assert [body["status"] for _, body in pairs] == ["error"]
            assert expected in pairs[0][1]["error"]
        return
    reference = answers.pop("http")
    assert _holds(reference[0][1], expected), reference[0][1]
    if path == "/ei_status":
        # a single OpenEI describes itself, a fleet the fleet
        assert answers.pop("openei")[0][1]["openei"]["device"] == "raspberry-pi-4"
    for name, pairs in answers.items():
        for index, ((_, got), (_, want)) in enumerate(zip(pairs, reference)):
            _assert_same(_comparable(got), _comparable(want), f"{name}[{index}]")


def test_every_registered_algorithm_has_a_row(stock):
    registered = {(s, a) for s, names in stock.openei.algorithms().items() for a in names}
    good = [parse_path(_paths(path, status)[0]) for path, status, _ in ROWS if status == 200]
    rows = {(r.scenario, r.algorithm) for r in good if r.resource_type == "ei_algorithms"}
    assert registered == rows
