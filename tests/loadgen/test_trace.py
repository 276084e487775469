"""Tests for replayable arrival-time traces: generators, determinism, persistence."""

import pytest

from repro.data.workloads import SCENARIO_ALGORITHMS
from repro.exceptions import ConfigurationError
from repro.loadgen import (
    FAULT_ACTIONS,
    FaultSpec,
    TimedRequest,
    Trace,
    constant_trace,
    poisson_trace,
)

GENERATORS = [
    lambda seed: constant_trace(duration_s=4.0, rps=10.0, seed=seed),
    lambda seed: poisson_trace(duration_s=4.0, mean_rps=10.0, seed=seed),
]


# -- determinism -------------------------------------------------------------------

@pytest.mark.parametrize("generate", GENERATORS)
def test_same_seed_reproduces_the_exact_schedule(generate):
    first, second = generate(7), generate(7)
    assert first.fingerprint() == second.fingerprint()
    assert [r.as_dict() for r in first.requests] == [r.as_dict() for r in second.requests]


@pytest.mark.parametrize("generate", GENERATORS)
def test_different_seed_changes_the_schedule(generate):
    assert generate(7).fingerprint() != generate(8).fingerprint()


def test_fingerprint_covers_faults_but_not_descriptive_fields():
    base = constant_trace(duration_s=2.0, rps=5.0, seed=0)
    faulted = base.with_faults([FaultSpec(at_s=1.0, action="kill-gateway", target=0)])
    assert faulted.fingerprint() != base.fingerprint()
    renamed = Trace(name="other", requests=list(base.requests), meta={"extra": 1})
    assert renamed.fingerprint() == base.fingerprint()


def test_with_faults_leaves_the_original_untouched():
    base = constant_trace(duration_s=2.0, rps=5.0, seed=0)
    faulted = base.with_faults([FaultSpec(at_s=0.5, action="slowdown", factor=2.0)])
    assert base.faults == []
    assert len(faulted.faults) == 1
    assert faulted.requests == base.requests


# -- schedule shape ----------------------------------------------------------------

@pytest.mark.parametrize("generate", GENERATORS)
def test_arrivals_are_sorted_and_inside_the_window(generate):
    trace = generate(3)
    offsets = [r.at_s for r in trace.requests]
    assert offsets == sorted(offsets)
    assert all(0.0 <= at <= 4.0 for at in offsets)
    assert len(trace) == len(trace.requests) > 0


def test_per_scenario_seq_numbers_are_dense_and_increasing():
    trace = poisson_trace(duration_s=6.0, mean_rps=20.0, seed=1)
    counters = {}
    for request in trace.requests:
        expected = counters.get(request.scenario, 0)
        assert request.args["seq"] == expected
        counters[request.scenario] = expected + 1
    assert set(counters) == set(SCENARIO_ALGORITHMS)


def test_scenario_mix_restricts_and_weights_assignment():
    trace = poisson_trace(
        duration_s=6.0, mean_rps=30.0, seed=2,
        scenario_mix={"safety": 3.0, "home": 1.0},
    )
    assert set(trace.scenarios()) == {"safety", "home"}
    counts = {s: sum(1 for r in trace.requests if r.scenario == s)
              for s in trace.scenarios()}
    assert counts["safety"] > counts["home"]


def test_algorithm_override_applies_to_every_request():
    trace = constant_trace(
        duration_s=2.0, rps=5.0, seed=0,
        scenario_mix={"safety": 1.0}, algorithms={"safety": "classify"},
    )
    assert all(r.algorithm == "classify" for r in trace.requests)
    assert trace.requests[0].path.startswith("/ei_algorithms/safety/classify/")


def test_duration_covers_the_last_event_request_or_fault():
    trace = constant_trace(duration_s=2.0, rps=5.0, seed=0)
    late_fault = trace.with_faults([FaultSpec(at_s=9.0, action="kill-gateway")])
    assert late_fault.duration_s == 9.0
    assert trace.duration_s == trace.requests[-1].at_s


# -- persistence -------------------------------------------------------------------

def test_save_load_round_trip_replays_identically(tmp_path):
    trace = poisson_trace(duration_s=5.0, mean_rps=15.0, seed=11).with_faults(
        [FaultSpec(at_s=2.5, action="slowdown", target="edge-0", factor=3.0)]
    )
    path = trace.save(tmp_path / "trace.json")
    loaded = Trace.load(path)
    assert loaded.fingerprint() == trace.fingerprint()
    assert loaded.name == trace.name
    assert loaded.meta == trace.meta
    assert loaded.faults == trace.faults


def test_load_rejects_newer_schema_versions(tmp_path):
    trace = constant_trace(duration_s=1.0, rps=2.0, seed=0)
    data = trace.as_dict()
    data["schema_version"] = 99
    with pytest.raises(ConfigurationError, match="schema_version"):
        Trace.from_dict(data)


# -- validation --------------------------------------------------------------------

def test_generator_argument_validation():
    with pytest.raises(ConfigurationError):
        constant_trace(duration_s=0.0, rps=5.0)
    with pytest.raises(ConfigurationError):
        poisson_trace(duration_s=2.0, mean_rps=-1.0)
    with pytest.raises(ConfigurationError):
        constant_trace(duration_s=2.0, rps=5.0, scenario_mix={})
    with pytest.raises(ConfigurationError):
        constant_trace(duration_s=2.0, rps=5.0, scenario_mix={"safety": -1.0})


def test_fault_spec_validation():
    with pytest.raises(ConfigurationError, match="unknown fault action"):
        FaultSpec(at_s=0.0, action="unplug-the-building")
    with pytest.raises(ConfigurationError):
        FaultSpec(at_s=-1.0, action="kill-gateway")
    with pytest.raises(ConfigurationError):
        FaultSpec(at_s=0.0, action="slowdown", factor=0.0)
    assert set(FAULT_ACTIONS) == {
        "kill-gateway", "restart-gateway", "slowdown", "malformed-request"
    }


def test_timed_request_round_trips_through_dict():
    request = TimedRequest(at_s=1.5, scenario="safety", algorithm="classify",
                           args={"seq": 3})
    assert TimedRequest.from_dict(request.as_dict()) == request
