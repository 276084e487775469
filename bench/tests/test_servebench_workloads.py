"""Schedule determinism per seed, traffic pins, and the response validators."""

import pytest

from servebench import validate
from servebench.workloads import (
    BATCH,
    DEFAULT_SEED,
    PINS,
    STOCK,
    WORKLOADS,
    BatchPlan,
    MixPlan,
    OpenPlan,
    check_pin,
)

IDS = {"edge-0@raspberry-pi-4", "edge-1@jetson-tx2"}


def test_same_seed_same_schedule_other_seed_other_schedule():
    first, again, other = OpenPlan(5, 3.0), OpenPlan(5, 3.0), OpenPlan(6, 3.0)
    assert first.schedule == again.schedule and first.digest() == again.digest()
    assert first.digest() != other.digest()
    # a shorter run replays the beginning of the same pinned trace ...
    short = OpenPlan(5, 1.0)
    assert short.digest() == first.digest()
    assert [r for _, r in short.schedule] == [r for _, r in first.schedule[: len(short.schedule)]]
    # ... and every seed offers exactly rate x seconds arrivals inside the run
    assert len(short.schedule) == 200 and len(first.schedule) == len(other.schedule) == 600
    stamps = [at_s for at_s, _ in first.schedule]
    assert stamps == sorted(stamps) and 0.0 <= stamps[0] and stamps[-1] < 3.0


def test_closed_loop_requests_are_a_function_of_seed_sender_and_step():
    plan, again = MixPlan(9, senders=2), MixPlan(9, senders=2)
    steps = [(s, k) for s in range(2) for k in range(50)]
    assert [plan.request(s, k) for s, k in steps] == [again.request(s, k) for s, k in steps]
    # ids never collide across senders, so client and server spans join one to one
    assert len({plan.request(s, k).rid for s, k in steps}) == len(steps)
    managed = MixPlan(9, senders=2, classify_every=5)
    kinds = [managed.request(0, k).algorithm for k in range(10)]
    assert kinds[4] == kinds[9] == "classify" and "classify" not in kinds[:4]


def test_batch_plan_visits_every_scenario_once_per_cycle():
    plan = BatchPlan(3)
    for cycle in range(5):
        batches = [plan.batch(cycle * 4 + slot) for slot in range(4)]
        assert sorted((s, a) for s, a, _ in batches) == sorted(STOCK)
        assert all(len(args) == BATCH for _, _, args in batches)
    assert BatchPlan(3).digest() == plan.digest() != BatchPlan(4).digest()


def test_default_seed_traffic_is_pinned_and_drift_fails_loudly():
    workload = WORKLOADS["mixed_open"]
    digest = OpenPlan(DEFAULT_SEED, 1.0).digest()
    assert check_pin(workload, DEFAULT_SEED, digest) == "pinned"
    assert check_pin(workload, DEFAULT_SEED + 1, "anything") == "unpinned-seed"
    with pytest.raises(AssertionError, match="traffic changed"):
        check_pin(workload, DEFAULT_SEED, digest, pins={**PINS, "mixed_open": "0" * 64})
    assert set(PINS) == set(WORKLOADS) and all(len(pin) == 64 for pin in PINS.values())


def _good_body():
    return {
        "status": "ok", "scenario": "home", "algorithm": "power_monitor",
        "result": {
            "sensor_id": "powermeter1", "timestamp": 0.0, "total_watts": 1.0,
            "appliances": {}, "ground_truth": {}, "observed_alem": {"latency_s": 1e-4},
            "served_by": "edge-1@jetson-tx2",
        },
    }


def test_algorithm_validator_accepts_a_stock_body_and_names_each_defect():
    check = lambda body: validate.check_algorithm_body(body, "home", "power_monitor", IDS)  # noqa: E731
    assert check(_good_body()) is None
    assert "not an object" in check([1, 2])
    assert "status" in check({**_good_body(), "status": "error", "error": "boom"})
    assert "echoed" in check({**_good_body(), "scenario": "health"})
    stranger = _good_body()
    stranger["result"]["served_by"] = "edge-9@nowhere"
    assert "served_by" in check(stranger)
    thin = _good_body()
    del thin["result"]["total_watts"]
    assert "total_watts" in check(thin)
    assert "result" in check({k: v for k, v in _good_body().items() if k != "result"})


def test_data_validators_compare_bodies_exactly():
    frames = [[[0.1], [0.2]], [[0.3], [0.4]]]
    stamps = [0.0, 1.0 / 15.0]
    realtime = {"status": "ok", "data": {"sensor_id": "cam", "timestamp": stamps[1],
                                         "payload": frames[1]}}
    assert validate.check_realtime_body(realtime, "cam", stamps[1], frames[1]) is None
    assert "payload" in validate.check_realtime_body(realtime, "cam", stamps[1], frames[0])
    assert "timestamp" in validate.check_realtime_body(realtime, "cam", stamps[0], frames[1])
    assert "sensor_id" in validate.check_realtime_body(realtime, "other", stamps[1], frames[1])
    window = {"status": "ok", "data": {"sensor_id": "cam", "count": 2,
                                       "timestamps": stamps, "payloads": frames}}
    assert validate.check_historical_body(window, "cam", stamps, frames) is None
    assert "count" in validate.check_historical_body(window, "cam", stamps[:1], frames[:1])
    assert "payloads" in validate.check_historical_body(window, "cam", stamps, frames[::-1])
    assert "data" in validate.check_historical_body({"status": "ok"}, "cam", stamps, frames)


def test_twin_comparison_tolerates_an_ulp_and_nothing_else():
    single = {"activity": 2, "probabilities": {"running": 0.8779439892288337},
              "observed_alem": {"latency_s": 3e-4, "accuracy": 1.0}, "served_by": "a"}
    batched = {"activity": 2, "probabilities": {"running": 0.8779439892288334},
               "observed_alem": {"latency_s": 9e-6, "accuracy": 1.0}, "served_by": "b"}
    same = lambda a, b: validate.first_difference(validate.comparable(a), validate.comparable(b))  # noqa: E731
    assert same(batched, single) is None
    assert ".activity" in same({**batched, "activity": 1}, single)
    assert ".probabilities.running" in same(
        {**batched, "probabilities": {"running": 0.8779}}, single)
    assert "keys differ" in same({**batched, "extra": 1}, single)
    assert "[1]" in validate.first_difference([1, 2], [1, 3])
    assert validate.first_difference(1, 1.0) is not None  # an int is not a float
