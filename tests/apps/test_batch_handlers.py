"""Handler kernel cases for the four scenario apps.

Each app registers ONE handler per algorithm, over a list of calls (see
:meth:`repro.core.openei.OpenEI.register_algorithm`): the list's inputs
are stacked into a single engine / vectorized call, and a single request
is a list of one.  That a list of N answers what N single calls answer,
on every stock algorithm and transport, is a row of the libei
conformance table (``tests/serving/test_conformance.py``); the cases
here are the kernels' own edges: lists that cannot be stacked, a
recorded-only camera, the batch kernels against their single forms, and
the ``frames`` clamp.  Results agree to 1e-9 (:func:`_assert_deep_close`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import ActivityRecognizer, register_connected_vehicles, register_public_safety
from repro.apps.connected_vehicles import MAX_FRAMES_PER_CALL, ObjectTracker
from repro.core import OpenEI


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


def test_a_list_naming_a_recorded_only_camera_stacks_its_newest_frame():
    """32 calls to a camera with no live sensor answer its newest frame 32 times,
    even though that frame is a row of a 32-row block of other frames."""
    from repro.apps._batching import capture_readings
    from repro.data.sensors import CameraSensor

    openei = _deploy(register_public_safety)
    recorded = CameraSensor(sensor_id="recorded", seed=5).read_batch(32)
    for reading in recorded:
        openei.data_store.record(reading)
    calls = [{"video": "recorded"} for _ in range(32)]
    readings, frames = capture_readings(openei, calls, "video", "camera1", (CameraSensor,))
    assert all(reading is recorded[-1] for reading in readings)
    assert frames.shape == recorded.block.shape
    assert all(np.array_equal(frame, recorded[-1].payload) for frame in frames)
    results = openei.call_algorithm_batch("safety", "detection", calls)
    single = openei.call_algorithm("safety", "detection", {"video": "recorded"})
    _assert_results_match(results, [single] * 32)
    assert openei.data_store.count("camera1") == 0


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


def test_frames_bounds_clamp_low_and_admit_the_maximum():
    openei = _deploy(register_connected_vehicles)
    for frames, expected in ((-3, 1), (0, 1), (2, 2), (MAX_FRAMES_PER_CALL, MAX_FRAMES_PER_CALL)):
        result = openei.call_algorithm("vehicles", "tracking", {"frames": frames})
        assert len(result["track"]) == expected
