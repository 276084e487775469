"""Tests for libei request micro-batching (BatchingDispatcher + batch handlers)."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import OpenEI
from repro.exceptions import APIError, ConfigurationError, ResourceNotFoundError
from repro.serving import (
    BatchingConfig,
    BatchingDispatcher,
    EdgeFleet,
    LibEIClient,
    LibEIServer,
)


class RecordingTarget:
    """A LibEITarget stub that records how its algorithm surface is called."""

    def __init__(self) -> None:
        self.single_calls = 0
        self.batch_sizes = []
        self.lock = threading.Lock()

    def describe(self):
        return {"target": "recording"}

    def call_algorithm(self, scenario, name, args=None):
        with self.lock:
            self.single_calls += 1
        return {"scenario": scenario, "name": name, "x": (args or {}).get("x")}

    def call_algorithm_batch(self, scenario, name, args_list):
        with self.lock:
            self.batch_sizes.append(len(args_list))
        return [
            {"scenario": scenario, "name": name, "x": (args or {}).get("x")}
            for args in args_list
        ]

    def get_realtime_data(self, sensor_id):
        return {"sensor_id": sensor_id}

    def get_historical_data(self, sensor_id, start, end=None):
        return {"sensor_id": sensor_id, "start": start, "end": end}


def _fanout(dispatcher, count, workers=16):
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(dispatcher.call_algorithm, "home", "echo", {"x": i})
            for i in range(count)
        ]
        return [f.result(timeout=10.0) for f in futures]


# -- coalescing behavior ----------------------------------------------------------

def test_concurrent_calls_coalesce_into_batches():
    target = RecordingTarget()
    dispatcher = BatchingDispatcher(
        target, BatchingConfig(max_batch_size=8, flush_window_s=0.05)
    )
    results = _fanout(dispatcher, 32)
    # every caller got the answer for its own args, in submission order
    assert [r["x"] for r in results] == list(range(32))
    assert sum(target.batch_sizes) == 32
    assert len(target.batch_sizes) < 32, "no coalescing happened"
    assert dispatcher.stats.requests == 32
    assert dispatcher.stats.batches == len(target.batch_sizes)


def test_max_batch_size_is_respected():
    target = RecordingTarget()
    dispatcher = BatchingDispatcher(
        target, BatchingConfig(max_batch_size=4, flush_window_s=0.2)
    )
    _fanout(dispatcher, 16)
    assert max(target.batch_sizes) <= 4
    assert dispatcher.stats.max_batch <= 4
    assert dispatcher.stats.flushed_full >= 1


def test_flush_window_flushes_a_lone_request():
    target = RecordingTarget()
    window = 0.05
    dispatcher = BatchingDispatcher(
        target, BatchingConfig(max_batch_size=64, flush_window_s=window)
    )
    start = time.monotonic()
    result = dispatcher.call_algorithm("home", "echo", {"x": 1})
    elapsed = time.monotonic() - start
    assert result["x"] == 1
    # a batch of one flushes once its window closes, not at max_batch_size
    assert elapsed >= window * 0.5
    assert target.batch_sizes == [1]
    assert dispatcher.stats.flushed_window == 1


def test_result_deinterleaving_under_contention():
    target = RecordingTarget()
    dispatcher = BatchingDispatcher(
        target, BatchingConfig(max_batch_size=8, flush_window_s=0.02)
    )
    seen = {}
    lock = threading.Lock()

    def call(i):
        result = dispatcher.call_algorithm("home", "echo", {"x": i})
        with lock:
            seen[i] = result["x"]

    threads = [threading.Thread(target=call, args=(i,)) for i in range(40)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
    assert seen == {i: i for i in range(40)}


def test_batch_size_one_passes_straight_through():
    target = RecordingTarget()
    dispatcher = BatchingDispatcher(
        target, BatchingConfig(max_batch_size=1, flush_window_s=0.5)
    )
    start = time.monotonic()
    result = dispatcher.call_algorithm("home", "echo", {"x": 3})
    assert result["x"] == 3
    assert time.monotonic() - start < 0.25, "pass-through must not wait for a window"


def test_errors_propagate_to_every_caller_when_isolation_also_fails():
    class FailingTarget(RecordingTarget):
        def call_algorithm_batch(self, scenario, name, args_list):
            raise ResourceNotFoundError("no such algorithm")

        def call_algorithm(self, scenario, name, args=None):
            raise ResourceNotFoundError("no such algorithm")

    dispatcher = BatchingDispatcher(
        FailingTarget(), BatchingConfig(max_batch_size=8, flush_window_s=0.05)
    )
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [
            pool.submit(dispatcher.call_algorithm, "home", "echo", {"x": i})
            for i in range(4)
        ]
        for future in futures:
            with pytest.raises(ResourceNotFoundError):
                future.result(timeout=10.0)


def test_one_poisoned_request_does_not_fail_its_batch_neighbors():
    """A failing batch is retried per request: only the bad caller sees the error."""

    class PoisonableTarget(RecordingTarget):
        def call_algorithm(self, scenario, name, args=None):
            if (args or {}).get("x") == 2:
                raise ResourceNotFoundError("bad request")
            return super().call_algorithm(scenario, name, args)

        def call_algorithm_batch(self, scenario, name, args_list):
            with self.lock:
                self.batch_sizes.append(len(args_list))
            return [self.call_algorithm(scenario, name, args) for args in args_list]

    target = PoisonableTarget()
    dispatcher = BatchingDispatcher(
        target, BatchingConfig(max_batch_size=8, flush_window_s=0.05)
    )
    with ThreadPoolExecutor(max_workers=6) as pool:
        futures = [
            pool.submit(dispatcher.call_algorithm, "home", "echo", {"x": i})
            for i in range(6)
        ]
        outcomes = []
        for future in futures:
            try:
                outcomes.append(future.result(timeout=10.0)["x"])
            except ResourceNotFoundError:
                outcomes.append("error")
    # exactly the poisoned request failed; its neighbors got their answers
    assert outcomes == [0, 1, "error", 3, 4, 5]


def test_wrong_length_batch_results_surface_as_api_error():
    class ShortTarget(RecordingTarget):
        def call_algorithm_batch(self, scenario, name, args_list):
            return []

    dispatcher = BatchingDispatcher(
        ShortTarget(), BatchingConfig(max_batch_size=4, flush_window_s=0.01)
    )
    with pytest.raises(APIError):
        dispatcher.call_algorithm("home", "echo", {"x": 0})


def test_broken_batch_handler_fails_loudly_instead_of_being_retried():
    """A contract violation (wrong result count) must reach every caller,
    not be silently papered over by the per-request isolation retry."""
    from repro.exceptions import BatchContractError

    class ShortTarget(RecordingTarget):
        def call_algorithm_batch(self, scenario, name, args_list):
            return [{"x": 0}] * (len(args_list) - 1)

    target = ShortTarget()
    dispatcher = BatchingDispatcher(
        target, BatchingConfig(max_batch_size=8, flush_window_s=0.05)
    )
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [
            pool.submit(dispatcher.call_algorithm, "home", "echo", {"x": i})
            for i in range(4)
        ]
        for future in futures:
            with pytest.raises(BatchContractError):
                future.result(timeout=10.0)
    assert target.single_calls == 0, "contract violations must not trigger retries"


def test_fleet_request_counters_stay_exact_when_a_batch_fails():
    """A failed batch is retried per request; each request is counted once."""
    fleet = EdgeFleet.deploy(["raspberry-pi-4", "jetson-tx2"])

    def flaky(ei, args):
        if args.get("x") == 2:
            raise ResourceNotFoundError("poisoned")
        return {"x": args.get("x")}

    def flaky_batch(ei, calls):
        return [flaky(ei, args) for args in calls]

    fleet.register_algorithm("home", "flaky", batch_handler=flaky_batch)
    dispatcher = BatchingDispatcher(
        fleet, BatchingConfig(max_batch_size=8, flush_window_s=0.05)
    )
    with ThreadPoolExecutor(max_workers=6) as pool:
        futures = [
            pool.submit(dispatcher.call_algorithm, "home", "flaky", {"x": i})
            for i in range(6)
        ]
        outcomes = 0
        for future in futures:
            try:
                future.result(timeout=10.0)
                outcomes += 1
            except ResourceNotFoundError:
                pass
    assert outcomes == 5
    assert sum(instance.requests_served for instance in fleet) == 6


def test_batching_config_validation():
    with pytest.raises(ConfigurationError):
        BatchingConfig(max_batch_size=0)
    with pytest.raises(ConfigurationError):
        BatchingConfig(flush_window_s=-0.1)


def test_describe_and_data_calls_pass_through():
    dispatcher = BatchingDispatcher(RecordingTarget(), BatchingConfig())
    description = dispatcher.describe()
    assert description["target"] == "recording"
    assert description["batching"]["max_batch_size"] == BatchingConfig().max_batch_size
    assert dispatcher.get_realtime_data("cam")["sensor_id"] == "cam"
    assert dispatcher.get_historical_data("cam", 0.0, 5.0)["end"] == 5.0


# -- batch-capable invocation on OpenEI / EdgeFleet -------------------------------

def _echo(ei, args):
    return {"x": args.get("x")}


def _echo_batch(ei, calls):
    return [{"x": args.get("x")} for args in calls]


def test_openei_call_algorithm_batch_uses_batch_handler():
    openei = OpenEI(device_name="raspberry-pi-4")
    invocations = []

    def batch(ei, calls):
        invocations.append(len(calls))
        return _echo_batch(ei, calls)

    openei.register_algorithm("home", "echo", batch_handler=batch)
    results = openei.call_algorithm_batch("home", "echo", [{"x": 1}, {"x": 2}, None])
    assert [r["x"] for r in results] == [1, 2, None]
    assert invocations == [3]


def test_openei_call_algorithm_batch_falls_back_to_loop():
    openei = OpenEI(device_name="raspberry-pi-4")
    openei.register_algorithm("home", "echo", _echo)
    results = openei.call_algorithm_batch("home", "echo", [{"x": 1}, {"x": 2}])
    assert [r["x"] for r in results] == [1, 2]
    # per-request and batched answers agree
    assert results[0] == openei.call_algorithm("home", "echo", {"x": 1})


def test_openei_batch_handler_length_mismatch_raises():
    openei = OpenEI(device_name="raspberry-pi-4")
    openei.register_algorithm("home", "echo", batch_handler=lambda ei, calls: [{}])
    with pytest.raises(APIError):
        openei.call_algorithm_batch("home", "echo", [{"x": 1}, {"x": 2}])


def test_openei_batch_unknown_algorithm_raises():
    openei = OpenEI(device_name="raspberry-pi-4")
    with pytest.raises(ResourceNotFoundError):
        openei.call_algorithm_batch("home", "missing", [{}])


def test_fleet_register_algorithm_takes_exactly_one_handler():
    fleet = EdgeFleet.deploy(["raspberry-pi-4", "jetson-tx2"])
    with pytest.raises(ConfigurationError):
        fleet.register_algorithm("home", "echo", _echo, batch_handler=_echo_batch)
    with pytest.raises(ConfigurationError):
        fleet.register_algorithm("home", "echo")
    # one positional handler still works, and serves lists too
    fleet.register_algorithm("home", "echo", _echo)
    assert fleet.call_algorithm("home", "echo", {"x": 4})["x"] == 4
    assert [r["x"] for r in fleet.call_algorithm_batch("home", "echo", [{"x": 1}, {"x": 2}])] == [1, 2]


class _Counting:
    """Overrides both public calls the way ``bench/servebench/traced.py`` does."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.seen = []

    def call_algorithm(self, scenario, name, args=None):
        self.seen.append("single")
        return super().call_algorithm(scenario, name, args)

    def call_algorithm_batch(self, scenario, name, args_list):
        self.seen.append(f"batch{len(args_list)}")
        return super().call_algorithm_batch(scenario, name, args_list)


class _CountingOpenEI(_Counting, OpenEI):
    pass


class _CountingFleet(_Counting, EdgeFleet):
    pass


@pytest.mark.parametrize("registration", [
    {"handler": _echo}, {"batch_handler": _echo_batch},
])
def test_neither_public_call_reaches_the_handler_through_the_other(registration):
    """A subclass that wraps both methods (spans, counters) must see exactly
    one of them per call, on the fleet and on the replica it enters."""
    fleet = _CountingFleet()
    replica = _CountingOpenEI(device_name="raspberry-pi-4")
    fleet.add_instance(replica)
    fleet.register_algorithm("home", "echo", **registration)

    assert fleet.call_algorithm("home", "echo", {"x": 1})["x"] == 1
    assert (fleet.seen, replica.seen) == (["single"], ["single"])

    results = fleet.call_algorithm_batch("home", "echo", [{"x": 1}, {"x": 2}, {"x": 3}])
    assert [r["x"] for r in results] == [1, 2, 3]
    assert (fleet.seen, replica.seen) == (["single", "batch3"], ["single", "batch3"])

    # a list of one is still a list call, a single still a single
    fleet.call_algorithm_batch("home", "echo", [{"x": 9}])
    assert (fleet.seen[-1], replica.seen[-1]) == ("batch1", "batch1")


def test_a_bad_frames_argument_fails_only_its_own_request_in_a_batch():
    """``frames`` is validated before any reading is consumed, so the
    isolation retry answers the neighbours and 400s only the offender."""
    from repro.apps import register_connected_vehicles

    openei = OpenEI(device_name="raspberry-pi-4")
    register_connected_vehicles(openei)
    dispatcher = BatchingDispatcher(
        openei, BatchingConfig(max_batch_size=4, flush_window_s=2.0)
    )
    frames = [1, "abc", 2, 100000]
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [
            pool.submit(dispatcher.call_algorithm, "vehicles", "tracking", {"frames": f})
            for f in frames
        ]
        outcomes = []
        for future in futures:
            try:
                outcomes.append(len(future.result(timeout=10.0)["track"]))
            except APIError as exc:
                outcomes.append(type(exc))
    assert outcomes == [1, APIError, 2, APIError]
    assert dispatcher.stats.max_batch == 4, "the four calls were meant to coalesce"


def test_fleet_routes_whole_batch_to_one_instance():
    fleet = EdgeFleet.deploy(["raspberry-pi-4", "jetson-tx2", "edge-server"])
    fleet.register_algorithm("home", "echo", batch_handler=_echo_batch)
    results = fleet.call_algorithm_batch("home", "echo", [{"x": i} for i in range(5)])
    assert [r["x"] for r in results] == list(range(5))
    served_by = {r["served_by"] for r in results}
    assert len(served_by) == 1, "a micro-batch must land on a single replica"
    assert sum(i.requests_served for i in fleet) == 5


# -- end-to-end through the HTTP server -------------------------------------------

def test_server_with_batching_round_trip():
    openei = OpenEI(device_name="raspberry-pi-4")
    openei.register_algorithm("home", "echo", batch_handler=_echo_batch)
    with LibEIServer(
        openei, batching=BatchingConfig(max_batch_size=4, flush_window_s=0.01)
    ) as server:
        client = LibEIClient(server.address)
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(client.call_algorithm, "home", "echo", {"x": i})
                for i in range(8)
            ]
            bodies = [f.result(timeout=10.0) for f in futures]
        assert all(body["status"] == "ok" for body in bodies)
        assert sorted(body["result"]["x"] for body in bodies) == list(range(8))
        status = client.status()
    batching = status["openei"]["batching"]
    assert batching["requests"] == 8
    assert server.batching is not None
    assert server.batching.stats.requests == 8


def test_server_rejects_batching_over_prebuilt_dispatcher():
    from repro.serving import LibEIDispatcher

    openei = OpenEI(device_name="raspberry-pi-4")
    with pytest.raises(ConfigurationError):
        LibEIServer(LibEIDispatcher(openei), batching=BatchingConfig())
