"""Tests for the four application scenarios (Section V)."""

import numpy as np
import pytest

from repro.apps import (
    ActivityRecognizer,
    BlobDetector,
    ObjectTracker,
    PowerMonitor,
    register_all,
)
from repro.apps.public_safety import flag_suspicious, mask_private_regions
from repro.core import OpenEI
from repro.data import (
    activity_recognition_workload,
    appliance_power_workload,
    object_detection_workload,
    trajectory_workload,
)
from repro.exceptions import ConfigurationError


# -- public safety ------------------------------------------------------------

def test_blob_detector_finds_synthetic_objects():
    workload = object_detection_workload(frames=20, frame_size=24, seed=0)
    detector = BlobDetector()
    map_score = detector.evaluate(workload.frames, workload.boxes)
    assert map_score > 0.5


def test_blob_detector_empty_frame_returns_nothing():
    detector = BlobDetector()
    assert detector.detect(np.zeros((16, 16, 1))) == []


def test_blob_detector_batch_and_validation():
    workload = object_detection_workload(frames=3, seed=1)
    detections = BlobDetector().detect_batch(workload.frames)
    assert len(detections) == 3
    with pytest.raises(ConfigurationError):
        BlobDetector(min_area=0)


def test_privacy_masking_blanks_regions():
    frame = np.ones((10, 10))
    masked = mask_private_regions(frame, [(2, 2, 5, 5)])
    assert masked[3, 3] == 0.0 and masked[0, 0] == 1.0
    assert frame[3, 3] == 1.0  # original untouched


def test_flag_suspicious_filters_small_or_dim_objects():
    from repro.apps.public_safety import Detection

    big_bright = Detection(box=(0, 0, 10, 10), score=0.9)
    small = Detection(box=(0, 0, 2, 2), score=0.9)
    dim = Detection(box=(0, 0, 10, 10), score=0.1)
    assert flag_suspicious([big_bright, small, dim]) == [big_bright]


# -- connected vehicles -------------------------------------------------------------

def test_tracker_follows_ground_truth():
    workload = trajectory_workload(frames=60, frame_size=32, seed=0)
    tracker = ObjectTracker()
    estimates = np.array([tracker.update(frame).position.copy() for frame in workload.frames])
    errors = estimates[5:] - workload.positions[5:]
    rmse = float(np.sqrt(np.mean(np.sum(errors**2, axis=1))))
    assert rmse < 4.0  # within a few pixels after settling


def test_tracker_prediction_extrapolates_velocity():
    tracker = ObjectTracker()
    workload = trajectory_workload(frames=10, seed=1)
    for frame in workload.frames:
        tracker.update(frame)
    state = tracker.state
    prediction = state.predict(2)
    np.testing.assert_allclose(prediction, state.position + 2 * state.velocity)
    tracker.reset()
    assert tracker.state is None


def test_tracker_validation():
    with pytest.raises(ConfigurationError):
        ObjectTracker(alpha=0.0)


# -- smart home ------------------------------------------------------------------------

def test_power_monitor_recovers_appliance_states():
    workload = appliance_power_workload(samples=60, seed=0)
    monitor = PowerMonitor()
    accuracy = monitor.accuracy(workload.power_w, workload.appliance_states)
    assert accuracy > 0.9


def test_power_monitor_single_measurements():
    monitor = PowerMonitor()
    idle, heater_on = monitor.infer_batch(np.array([80.0, 80.0 + 1500.0]))
    assert not idle.any()
    assert heater_on[monitor.appliance_names.index("heater")]
    assert monitor.estimated_energy_kwh(np.array([1000.0]), period_s=3600.0) == pytest.approx(1.0)


def test_power_monitor_table_matches_brute_force_enumeration():
    """The precomputed 2^A sum table must reproduce the subset scan, ties included."""
    from itertools import combinations

    monitor = PowerMonitor()

    def brute_force(total_watts):
        residual = total_watts - monitor.base_load_w
        best_combo = ()
        best_error = abs(residual)
        indices = range(len(monitor.appliance_names))
        for size in range(1, len(monitor.appliance_names) + 1):
            for combo in combinations(indices, size):
                error = abs(residual - monitor.appliance_watts[list(combo)].sum())
                if error < best_error:
                    best_error = error
                    best_combo = combo
        states = [False] * len(monitor.appliance_names)
        for index in best_combo:
            states[index] = True
        return tuple(states)

    rng = np.random.default_rng(2)
    sweep = np.concatenate([
        rng.uniform(0.0, 4500.0, 200),
        # exact ties: heater+washer == oven (2000 W), and midpoints between sums
        np.array([80.0, 2080.0, 80.0 + 310.0, 80.0 + (120.0 + 500.0) / 2, 0.0, 9999.0]),
    ])
    batch = monitor.infer_batch(sweep)
    for watts, states in zip(sweep, batch):
        assert tuple(bool(s) for s in states) == brute_force(float(watts))


def test_power_monitor_validation():
    with pytest.raises(ConfigurationError):
        PowerMonitor(appliance_names=("a",), appliance_watts=(1.0, 2.0))
    with pytest.raises(ConfigurationError):
        PowerMonitor(appliance_names=(), appliance_watts=())
    monitor = PowerMonitor()
    with pytest.raises(ConfigurationError):
        monitor.accuracy(np.zeros(3), np.zeros((2, 4), dtype=bool))


# -- connected health ---------------------------------------------------------------------

def test_activity_recognizer_trains_and_recognizes():
    recognizer = ActivityRecognizer(steps=20, channels=6, hidden_size=12, seed=0)
    accuracy = recognizer.train(samples=240, epochs=12, seed=0)
    assert accuracy > 0.7
    workload = activity_recognition_workload(samples=10, steps=20, channels=6, seed=9)
    result = recognizer.recognize(workload.windows[0])
    assert result["activity_name"] in recognizer.activity_names
    assert abs(sum(result["probabilities"].values()) - 1.0) < 1e-6


def test_activity_recognizer_requires_training_before_use():
    recognizer = ActivityRecognizer(seed=0)
    with pytest.raises(ConfigurationError):
        recognizer.recognize(np.zeros((20, 6)))
    with pytest.raises(ConfigurationError):
        ActivityRecognizer(steps=0)


# -- registration through OpenEI ---------------------------------------------------------------

@pytest.fixture(scope="module")
def openei_with_apps():
    openei = OpenEI.deploy("raspberry-pi-4")
    register_all(openei, seed=0)
    return openei


def test_power_monitor_handler_matches_ground_truth_often(openei_with_apps):
    matches = 0
    trials = 10
    for _ in range(trials):
        response = openei_with_apps.call_algorithm("home", "power_monitor", {})
        matches += sum(
            1
            for name in response["appliances"]
            if response["appliances"][name] == response["ground_truth"][name]
        ) / len(response["appliances"])
    assert matches / trials > 0.8
