"""Handler contract tests for the four scenario apps.

Each app registers ONE handler per algorithm, over a list of calls (see
:meth:`repro.core.openei.OpenEI.register_algorithm`): the list's inputs
are stacked into a single engine / vectorized call, and a single request
is a list of one.  The contract under test is stacked-vs-unstacked
parity — a list of N requests must produce the same answers, request by
request, as N single calls against an identically-seeded deployment.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import (
    ActivityRecognizer,
    register_connected_health,
    register_connected_vehicles,
    register_public_safety,
    register_smart_home,
)
from repro.apps import register_all
from repro.apps.connected_vehicles import MAX_FRAMES_PER_CALL, ObjectTracker
from repro.core import OpenEI
from repro.exceptions import APIError
from repro.serving import LibEIClient, LibEIDispatcher, LibEIServer


def _deploy(register, **kwargs):
    openei = OpenEI.deploy("raspberry-pi-4")
    register(openei, seed=0, **kwargs)
    return openei


def _strip_latency(result):
    """Latency is wall-clock and cannot match across runs; compare the rest."""
    cleaned = dict(result)
    observed = dict(cleaned.pop("observed_alem", {}))
    observed.pop("latency_s", None)
    if observed:
        cleaned["observed_alem"] = observed
    return cleaned


def _assert_deep_close(got, expected, path=""):
    if isinstance(expected, dict):
        assert set(got) == set(expected), path
        for key in expected:
            _assert_deep_close(got[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, (list, tuple)):
        assert len(got) == len(expected), path
        for index, (g, e) in enumerate(zip(got, expected)):
            _assert_deep_close(g, e, f"{path}[{index}]")
    elif isinstance(expected, float):
        assert got == pytest.approx(expected, abs=1e-9), path
    else:
        assert got == expected, path


def _assert_results_match(batched, singles):
    assert len(batched) == len(singles)
    for got, expected in zip(batched, singles):
        _assert_deep_close(_strip_latency(got), _strip_latency(expected))


@pytest.mark.parametrize("scenario,name", [
    ("safety", "detection"),
    ("safety", "firearm_detection"),
])
def test_public_safety_batch_matches_per_request(scenario, name):
    batched_ei = _deploy(register_public_safety)
    single_ei = _deploy(register_public_safety)
    calls = [{} for _ in range(5)]
    batched = batched_ei.call_algorithm_batch(scenario, name, calls)
    singles = [single_ei.call_algorithm(scenario, name, args) for args in calls]
    _assert_results_match(batched, singles)
    assert all("observed_alem" in result for result in batched)


def test_smart_home_batch_matches_per_request():
    batched_ei = _deploy(register_smart_home)
    single_ei = _deploy(register_smart_home)
    calls = [{} for _ in range(6)]
    batched = batched_ei.call_algorithm_batch("home", "power_monitor", calls)
    singles = [single_ei.call_algorithm("home", "power_monitor", args) for args in calls]
    _assert_results_match(batched, singles)
    # accuracy is still reported per request
    assert all(0.0 <= r["observed_alem"]["accuracy"] <= 1.0 for r in batched)


def test_connected_health_batch_matches_per_request():
    recognizer = ActivityRecognizer(seed=0)
    recognizer.train(samples=120, epochs=4, seed=0)
    batched_ei = _deploy(register_connected_health, recognizer=recognizer)
    single_ei = _deploy(register_connected_health, recognizer=recognizer)
    calls = [{} for _ in range(5)]
    batched = batched_ei.call_algorithm_batch("health", "activity_recognition", calls)
    singles = [single_ei.call_algorithm("health", "activity_recognition", args) for args in calls]
    _assert_results_match(batched, singles)


def test_connected_vehicles_batch_matches_per_request():
    """The stateful tracker must fold batched requests in arrival order."""
    batched_ei = _deploy(register_connected_vehicles)
    single_ei = _deploy(register_connected_vehicles)
    calls = [{"frames": 2}, {"frames": 1}, {"frames": 3}, {}]
    batched = batched_ei.call_algorithm_batch("vehicles", "tracking", calls)
    singles = [single_ei.call_algorithm("vehicles", "tracking", args) for args in calls]
    _assert_results_match(batched, singles)


def test_mixed_shape_micro_batch_does_not_raise():
    """Requests naming differently-sized cameras in one micro-batch must be
    answered (per-reading path), not explode after consuming the readings."""
    from repro.data.sensors import CameraSensor

    openei = _deploy(register_public_safety)
    openei.data_store.register_sensor(CameraSensor(sensor_id="camera2", frame_size=16, seed=1))
    calls = [{"video": "camera1"}, {"video": "camera2"}, {"video": "camera1"}]
    results = openei.call_algorithm_batch("safety", "detection", calls)
    assert len(results) == 3
    assert {r["sensor_id"] for r in results} == {"camera1", "camera2"}
    assert all("detections" in r for r in results)


def test_recognize_batch_matches_recognize():
    recognizer = ActivityRecognizer(seed=0)
    recognizer.train(samples=120, epochs=4, seed=0)
    windows = np.random.default_rng(3).standard_normal((6, recognizer.steps, recognizer.channels))
    batch = recognizer.recognize_batch(windows)
    for i, result in enumerate(batch):
        single = recognizer.recognize(windows[i])
        assert result["activity"] == single["activity"]
        assert result["probabilities"] == pytest.approx(single["probabilities"])


def test_measure_batch_matches_measure():
    rng = np.random.default_rng(5)
    frames = rng.random((7, 12, 12))
    frames[3] = 0.5  # constant frame: exercises the empty-mask quantile fallback
    batch = ObjectTracker.measure_batch(frames)
    for i, frame in enumerate(frames):
        np.testing.assert_allclose(batch[i], ObjectTracker.measure(frame), atol=1e-9)


# -- the edges of a call list, and the one argument the apps convert ---------------

@pytest.fixture(scope="module")
def stock_openei():
    openei = OpenEI.deploy("raspberry-pi-4")
    register_all(openei, seed=0)
    return openei


@pytest.mark.parametrize("scenario,name", [
    ("safety", "detection"),
    ("safety", "firearm_detection"),
    ("vehicles", "tracking"),
    ("home", "power_monitor"),
    ("health", "activity_recognition"),
])
def test_an_empty_call_list_answers_empty(stock_openei, scenario, name):
    assert stock_openei.call_algorithm_batch(scenario, name, []) == []


@pytest.mark.parametrize("segment", [
    "?frames=abc",                    # not a number at all
    "?frames=1.5",                    # a number, not an integer
    "%7B%22frames%22:[1]%7D",         # the JSON-brace form: {"frames":[1]}
    f"?frames={MAX_FRAMES_PER_CALL + 1}",
    "?frames=100000",
])
def test_bad_frames_argument_is_a_400_and_consumes_no_reading(stock_openei, segment):
    dispatcher = LibEIDispatcher(stock_openei)
    assert dispatcher.safe_handle_path("/ei_algorithms/vehicles/tracking/")[0] == 200
    captured = len(stock_openei.data_store.historical("vehiclecam1", 0.0))
    status, body = dispatcher.safe_handle_path(f"/ei_algorithms/vehicles/tracking/{segment}")
    assert status == 400, body
    assert "frames" in body["error"]
    assert len(stock_openei.data_store.historical("vehiclecam1", 0.0)) == captured


def test_frames_bounds_clamp_low_and_admit_the_maximum(stock_openei):
    for frames, expected in ((-3, 1), (0, 1), (2, 2), (MAX_FRAMES_PER_CALL, MAX_FRAMES_PER_CALL)):
        result = stock_openei.call_algorithm("vehicles", "tracking", {"frames": frames})
        assert len(result["track"]) == expected


def test_bad_frames_argument_over_http(stock_openei):
    with LibEIServer(stock_openei) as server, LibEIClient(server.address) as client:
        for frames in ("abc", 100000):
            with pytest.raises(APIError, match=r"\(400\).*frames"):
                client.call_algorithm("vehicles", "tracking", {"frames": frames})
        # the server is unharmed and a good value still answers
        body = client.call_algorithm("vehicles", "tracking", {"frames": 2})
        assert len(body["result"]["track"]) == 2
