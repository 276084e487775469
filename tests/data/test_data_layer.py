"""Tests for sensor simulators, the data store and workload generators."""

import hashlib
import json

import numpy as np
import pytest

from repro.data import (
    SCENARIO_ALGORITHMS,
    CameraSensor,
    EdgeDataStore,
    PowerMeterSensor,
    VehicleCameraSensor,
    WearableIMUSensor,
    activity_recognition_workload,
    appliance_power_workload,
    object_detection_workload,
    scenario_request_stream,
    trajectory_workload,
)
from repro.data.sensors import PayloadList
from repro.exceptions import ConfigurationError, ResourceNotFoundError


# -- sensors ------------------------------------------------------------------

def test_camera_frames_and_boxes_within_bounds():
    camera = CameraSensor(frame_size=24, seed=0)
    for reading in camera.stream(10):
        assert reading.payload.shape == (24, 24, 1)
        for x1, y1, x2, y2 in reading.annotations["boxes"]:
            assert 0 <= x1 < x2 <= 24 and 0 <= y1 < y2 <= 24
        assert reading.nbytes == reading.payload.nbytes


def test_camera_timestamps_monotone_and_deterministic():
    first = [r.timestamp for r in CameraSensor(seed=1).stream(5)]
    second = [r.timestamp for r in CameraSensor(seed=1).stream(5)]
    assert first == second
    assert all(b > a for a, b in zip(first, first[1:]))


def test_wearable_activity_labels_valid():
    sensor = WearableIMUSensor(steps=16, channels=4, seed=0)
    for reading in sensor.stream(10):
        assert reading.payload.shape == (16, 4)
        assert 0 <= reading.annotations["activity"] < len(WearableIMUSensor.ACTIVITIES)
        assert reading.annotations["activity_name"] in WearableIMUSensor.ACTIVITIES


def test_power_meter_consistent_with_states():
    meter = PowerMeterSensor(seed=0)
    for reading in meter.stream(20):
        states = np.array(reading.annotations["appliance_states"])
        expected = meter.base_load_w + np.sum(np.array(meter.APPLIANCE_WATTS) * states)
        assert abs(float(reading.payload[0]) - expected) < 30.0


def test_vehicle_camera_positions_smooth():
    camera = VehicleCameraSensor(frame_size=32, seed=0)
    positions = np.array([r.annotations["position"] for r in camera.stream(30)])
    step_sizes = np.linalg.norm(np.diff(positions, axis=0), axis=1)
    assert np.all(step_sizes < 4.0)
    assert np.all((positions >= 0) & (positions <= 32))


#: sha256 of the first 64 readings of each simulator, taken at the commit
#: before ``sensors.py`` stopped rebuilding its constants per reading.  The
#: simulators may get cheaper; the streams the apps, the benchmark's
#: ``data_read`` pin and every seeded test consume may not move by a byte.
SENSOR_STREAM_DIGESTS = {
    (CameraSensor, 0): "aa038e42f1ec1b99fc77ef0ff04b2cca00daebc2c3e10e4628db370e9387116e",
    (CameraSensor, 3): "25e8035bcdad23951433048dfca6e5bcb9dbe50df0949b7156909f4d5df0923b",
    (WearableIMUSensor, 0): "b91d40378933b7266eab6346a0668651fe20d50c9ba25f4d9513cf5a2e88f98b",
    (WearableIMUSensor, 3): "093d5b505207559ae7fdc0d10df8f91a705534c7532618ad8ce5b280d186da60",
    (PowerMeterSensor, 0): "535254017bff3610a5e92f221d8bc38728c132ecbccd8dbe0eb15936d52cd410",
    (PowerMeterSensor, 3): "58215f009f3dbf91656accd7a86eeb533be14e75e5c1b58b235ce071f01e32c9",
    (VehicleCameraSensor, 0): "b12939ed0c0e1cb1835b1b89418c95668ca03e2a2aeeb56122f38513648245fa",
    (VehicleCameraSensor, 3): "6ab39be141c85108994820b8d6e17ebf693c8223121287454539772487203e8b",
}


@pytest.mark.parametrize(
    "sensor_class,seed", list(SENSOR_STREAM_DIGESTS),
    ids=[f"{cls.__name__}-seed{seed}" for cls, seed in SENSOR_STREAM_DIGESTS],
)
def test_sensor_streams_are_byte_identical_to_the_pinned_digests(sensor_class, seed):
    digest = hashlib.sha256()
    for reading in sensor_class(seed=seed).stream(64):
        digest.update(repr(reading.timestamp).encode())
        digest.update(reading.payload.tobytes())
        digest.update(str(reading.payload.dtype).encode())
        digest.update(repr(reading.payload.shape).encode())
        digest.update(repr(reading.annotations).encode())
    assert digest.hexdigest() == SENSOR_STREAM_DIGESTS[(sensor_class, seed)]


@pytest.mark.parametrize(
    "sensor_class,seed", list(SENSOR_STREAM_DIGESTS),
    ids=[f"{cls.__name__}-seed{seed}" for cls, seed in SENSOR_STREAM_DIGESTS],
)
def test_read_batch_equals_reading_one_at_a_time(sensor_class, seed):
    """A block of readings is the readings ``read()`` would have made, in order."""
    one_at_a_time = list(sensor_class(seed=seed).stream(64))
    sensor = sensor_class(seed=seed)
    chunks = [sensor.read_batch(count) for count in (1, 7, 32, 24)]
    captured = [reading for chunk in chunks for reading in chunk]
    assert len(captured) == len(one_at_a_time) == 64
    for got, want in zip(captured, one_at_a_time):
        assert repr(got.timestamp) == repr(want.timestamp)
        assert got.payload.tobytes() == want.payload.tobytes()
        assert got.payload.dtype == want.payload.dtype
        assert got.payload.shape == want.payload.shape
        assert repr(got.annotations) == repr(want.annotations)
    for chunk in chunks:
        block = chunk.block
        assert block.shape == (len(chunk), *chunk[0].payload.shape)
        with pytest.raises(ValueError, match="read-only"):
            block[...] = 0.0
        for row, reading in zip(block, chunk):
            assert reading.payload.base is block
            assert np.array_equal(reading.payload, row)
            with pytest.raises(ValueError, match="read-only"):
                reading.payload[...] = 0.0


@pytest.mark.parametrize(
    "sensor_class", [CameraSensor, VehicleCameraSensor, WearableIMUSensor, PowerMeterSensor]
)
def test_a_reading_is_read_only_and_keeps_its_payload_json(sensor_class):
    """The kept text is only right while the payload never changes."""
    for reading in sensor_class(seed=0).stream(3):
        with pytest.raises(ValueError, match="read-only"):
            reading.payload[...] = 0.0
        values = PayloadList(reading)
        assert values == reading.payload.tolist()
        first = reading.payload_json(values)
        assert first == json.dumps(reading.payload.tolist())
        assert reading._payload_json is None  # asked for once: nothing kept
        text = reading.payload_json(values)
        assert text == first
        assert reading.payload_json(values) is text  # asked for again: kept


def test_sensor_invalid_period():
    with pytest.raises(ConfigurationError):
        CameraSensor(period_s=0.0)
    with pytest.raises(ConfigurationError):
        CameraSensor(frame_size=4)
    with pytest.raises(ConfigurationError):
        VehicleCameraSensor(frame_size=7)


# -- store -----------------------------------------------------------------------

def test_store_capture_and_realtime():
    store = EdgeDataStore()
    store.register_sensor(CameraSensor(sensor_id="cam", seed=0))
    readings = store.realtime_batch(["cam"] * 3)
    assert len(readings) == 3
    newest = store.realtime("cam")
    assert newest.timestamp > readings[-1].timestamp - 1e-9
    assert store.count("cam") == 4
    assert "cam" in store.sensor_ids


def test_store_historical_window():
    store = EdgeDataStore()
    sensor = CameraSensor(sensor_id="cam", seed=0)
    for reading in sensor.stream(10):
        store.record(reading)
    window = store.historical("cam", start=0.0, end=sensor.period_s * 4)
    assert 4 <= len(window) <= 5
    everything = store.historical("cam", start=0.0)
    assert len(everything) == 10
    assert store.total_bytes("cam") > 0 and store.total_bytes() >= store.total_bytes("cam")


def test_store_retention_evicts_oldest():
    store = EdgeDataStore(retention=5)
    sensor = CameraSensor(sensor_id="cam", seed=0)
    for reading in sensor.stream(12):
        store.record(reading)
    assert store.count("cam") == 5
    assert store.historical("cam", start=0.0)[0].timestamp > 0


def test_store_series_is_a_bounded_deque_and_capture_respects_retention():
    store = EdgeDataStore(retention=4)
    store.register_sensor(PowerMeterSensor(sensor_id="meter", seed=0))
    captured = store.realtime_batch(["meter"] * 7)
    assert store.count("meter") == 4
    assert store.historical("meter", start=0.0) == captured[-4:]
    assert store.realtime("meter").timestamp == captured[-1].timestamp + 60.0
    assert store.total_bytes("meter") == 4 * captured[0].nbytes


def test_realtime_batch_reads_in_order_and_is_all_or_nothing():
    store = EdgeDataStore()
    store.register_sensor(PowerMeterSensor(sensor_id="live", seed=0))
    recorded = next(PowerMeterSensor(sensor_id="recorded", seed=1).stream(1))
    store.record(recorded)
    with pytest.raises(ResourceNotFoundError, match="ghost"):
        store.realtime_batch(["live", "recorded", "live", "ghost"])
    assert store.count("live") == 0            # nothing was pulled before the raise
    first, kept, second = store.realtime_batch(["live", "recorded", "live"])
    assert (first.timestamp, second.timestamp) == (0.0, 60.0)
    assert kept is recorded                     # no live sensor: the newest recorded reading
    assert store.count("live") == 2 and store.count("recorded") == 1
    assert store.realtime_batch([]) == []


def test_realtime_batch_reads_each_run_of_an_id_as_one_block():
    store = EdgeDataStore()
    store.register_sensor(CameraSensor(sensor_id="cam", seed=0))
    store.register_sensor(WearableIMUSensor(sensor_id="imu", seed=0))
    captured = store.realtime_batch(["cam", "imu", "cam", "cam"])
    cams = list(CameraSensor(sensor_id="cam", seed=0).stream(3))
    imu = next(WearableIMUSensor(sensor_id="imu", seed=0).stream(1))
    assert [reading.sensor_id for reading in captured] == ["cam", "imu", "cam", "cam"]
    for got, want in zip(captured, [cams[0], imu, cams[1], cams[2]]):
        assert got.timestamp == want.timestamp
        assert got.payload.tobytes() == want.payload.tobytes()
    assert captured.block is None                # two sensors: no one array holds the list
    assert store.historical("cam", start=0.0) == [captured[0], *captured[2:]]
    assert store.historical("imu", start=0.0) == [captured[1]]
    run = store.realtime_batch(["cam"] * 4)
    assert run.block is not None and run.block.shape == (4, 32, 32, 1)
    assert all(reading.payload.base is run.block for reading in run)
    assert [r.timestamp for r in run] == [c.timestamp for c in CameraSensor(seed=0).stream(7)][3:]


def test_a_recorded_only_run_repeats_its_newest_reading_and_has_no_block():
    """The newest recorded reading may be a row of a block; that block is not the answer."""
    store = EdgeDataStore()
    recorded = CameraSensor(sensor_id="cam", seed=0).read_batch(32)
    for reading in recorded:
        store.record(reading)
    captured = store.realtime_batch(["cam"] * 32)
    assert all(reading is recorded[-1] for reading in captured)
    assert captured.block is None
    assert recorded[-1].payload.base is recorded.block


def test_store_readers_walk_a_snapshot_of_the_series():
    """A handler thread records beside ``/ei_data/historical`` readers, and a
    deque refuses to be iterated while it changes.  The interleaving is made
    deterministic here: one stored reading records another when it is looked at."""
    store = EdgeDataStore()
    meter = PowerMeterSensor(sensor_id="meter", seed=0)

    class RecordsWhenRead:
        sensor_id = "meter"

        @property
        def timestamp(self):
            store.record(meter.read())
            return -1.0

        @property
        def nbytes(self):
            store.record(meter.read())
            return 8

    store.record(RecordsWhenRead())
    store.register_sensor(meter)
    store.realtime_batch(["meter"] * 3)
    assert len(store.historical("meter", start=0.0)) == 3
    assert store.total_bytes("meter") == 5 * 8
    assert store.total_bytes() == 6 * 8
    assert store.count("meter") == 7


def test_store_unknown_sensor_raises():
    store = EdgeDataStore()
    with pytest.raises(ResourceNotFoundError):
        store.realtime("ghost")
    with pytest.raises(ResourceNotFoundError):
        store.historical("ghost", 0.0)


# -- workloads ---------------------------------------------------------------------

def test_object_detection_workload_shapes():
    workload = object_detection_workload(frames=12, frame_size=24, seed=0)
    assert workload.frames.shape == (12, 24, 24, 1)
    assert len(workload.boxes) == 12
    assert workload.total_bytes == workload.frames.nbytes


def test_activity_workload_labels_and_classes():
    workload = activity_recognition_workload(samples=30, steps=10, channels=3, seed=0)
    assert workload.windows.shape == (30, 10, 3)
    assert workload.labels.shape == (30,)
    assert workload.num_classes == 3


def test_power_workload_alignment():
    workload = appliance_power_workload(samples=40, seed=0)
    assert workload.power_w.shape == (40,)
    assert workload.appliance_states.shape == (40, len(workload.appliance_names))


def test_trajectory_workload_alignment():
    workload = trajectory_workload(frames=25, frame_size=24, seed=0)
    assert workload.frames.shape[0] == workload.positions.shape[0] == 25


def test_workloads_reject_non_positive_sizes():
    with pytest.raises(ConfigurationError):
        object_detection_workload(frames=0)
    with pytest.raises(ConfigurationError):
        activity_recognition_workload(samples=0)
    with pytest.raises(ConfigurationError):
        appliance_power_workload(samples=0)
    with pytest.raises(ConfigurationError):
        trajectory_workload(frames=0)
    with pytest.raises(ConfigurationError):
        list(scenario_request_stream(requests_per_scenario=0))


# -- streaming traffic ---------------------------------------------------------


def test_scenario_stream_interleaves_all_four_scenarios():
    requests = list(scenario_request_stream(requests_per_scenario=5, seed=0))
    assert len(requests) == 20
    # strict round-robin interleaving, matching register_all's URL names
    assert [r.scenario for r in requests[:4]] == ["safety", "vehicles", "home", "health"]
    assert [r.algorithm for r in requests[:4]] == [
        SCENARIO_ALGORITHMS[s] for s in ("safety", "vehicles", "home", "health")
    ]
    assert all(r.args["seq"] == i // 4 for i, r in enumerate(requests))


def test_scenario_stream_paths_and_overrides():
    request = next(iter(scenario_request_stream(
        requests_per_scenario=1, algorithms={"safety": "classify"}
    )))
    assert request.algorithm == "classify"
    assert request.path == "/ei_algorithms/safety/classify/?seq=0"


def test_scenario_stream_payloads_are_json_serializable():
    import json

    requests = list(scenario_request_stream(requests_per_scenario=2, include_payload=True))
    for request in requests:
        assert isinstance(request.args["payload"], list)
        json.dumps(request.args)
        # payloads never leak into the URL path
        assert "payload" not in request.path


def test_scenario_stream_same_seed_is_byte_identical():
    """Regression for the determinism contract: two streams from the same
    explicit seed must be byte-identical — including payload bytes — so a
    recorded trace replays exactly by persisting only generator arguments."""
    first = list(scenario_request_stream(
        requests_per_scenario=4, seed=123, include_payload=True
    ))
    second = list(scenario_request_stream(
        requests_per_scenario=4, seed=123, include_payload=True
    ))
    assert [(r.scenario, r.algorithm, r.path) for r in first] == [
        (r.scenario, r.algorithm, r.path) for r in second
    ]
    assert [r.args for r in first] == [r.args for r in second]


def test_scenario_stream_different_seed_changes_payload_bytes():
    first = list(scenario_request_stream(
        requests_per_scenario=4, seed=123, include_payload=True
    ))
    other = list(scenario_request_stream(
        requests_per_scenario=4, seed=124, include_payload=True
    ))
    assert [r.args for r in first] != [r.args for r in other]


def test_scenario_stream_rejects_non_int_seed():
    with pytest.raises(ConfigurationError, match="explicit int"):
        list(scenario_request_stream(requests_per_scenario=1, seed=1.5))
