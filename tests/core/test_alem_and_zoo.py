"""Tests for the ALEM tuple, requirements and the model zoo."""

import numpy as np
import pytest

from repro.core import ALEM, ALEMRequirement, ModelZoo, OptimizationTarget
from repro.eialgorithms import build_mlp
from repro.exceptions import ConfigurationError


def _alem(accuracy=0.9, latency=0.1, energy=0.5, memory=50.0):
    return ALEM(accuracy=accuracy, latency_s=latency, energy_j=energy, memory_mb=memory)


# -- ALEM ----------------------------------------------------------------------

def test_alem_validation():
    with pytest.raises(ConfigurationError):
        ALEM(accuracy=1.5, latency_s=0.1, energy_j=0.1, memory_mb=1.0)
    with pytest.raises(ConfigurationError):
        ALEM(accuracy=0.5, latency_s=-0.1, energy_j=0.1, memory_mb=1.0)


def test_alem_as_dict_round_trip():
    tuple_ = _alem()
    as_dict = tuple_.as_dict()
    assert as_dict == {"accuracy": 0.9, "latency_s": 0.1, "energy_j": 0.5, "memory_mb": 50.0}


def test_alem_objective_values_for_all_targets():
    tuple_ = _alem()
    assert tuple_.objective_value(OptimizationTarget.LATENCY) == 0.1
    assert tuple_.objective_value(OptimizationTarget.ENERGY) == 0.5
    assert tuple_.objective_value(OptimizationTarget.MEMORY) == 50.0
    assert tuple_.objective_value(OptimizationTarget.ACCURACY) == -0.9


def test_alem_improvement_factors():
    optimized = _alem(accuracy=0.88, latency=0.01, energy=0.05, memory=10.0)
    baseline = _alem(accuracy=0.9, latency=0.2, energy=1.0, memory=200.0)
    factors = optimized.improvement_over(baseline)
    assert factors["latency"] == pytest.approx(20.0)
    assert factors["energy"] == pytest.approx(20.0)
    assert factors["memory"] == pytest.approx(20.0)
    assert factors["accuracy"] < 1.0


def test_alem_improvement_over_zero_valued_axes():
    # zero-valued axes must map to +inf factors, not ZeroDivisionError
    free = _alem(accuracy=0.5, latency=0.0, energy=0.0, memory=0.0)
    costly = _alem(accuracy=0.5, latency=0.2, energy=1.0, memory=100.0)
    factors = free.improvement_over(costly)
    assert factors["latency"] == float("inf")
    assert factors["energy"] == float("inf")
    assert factors["memory"] == float("inf")
    assert factors["accuracy"] == pytest.approx(1.0)
    # a zero-accuracy baseline is also an infinite relative improvement
    zero_accuracy = _alem(accuracy=0.0)
    assert free.improvement_over(zero_accuracy)["accuracy"] == float("inf")


def test_alem_improvement_over_exact_ties_are_unity():
    point = _alem()
    factors = point.improvement_over(_alem())
    assert factors == {
        "accuracy": pytest.approx(1.0),
        "latency": pytest.approx(1.0),
        "energy": pytest.approx(1.0),
        "memory": pytest.approx(1.0),
    }


# -- requirements --------------------------------------------------------------------

def test_requirement_satisfaction_and_violations():
    requirement = ALEMRequirement(min_accuracy=0.8, max_latency_s=0.2, max_energy_j=1.0, max_memory_mb=100.0)
    assert requirement.satisfied_by(_alem())
    failing = _alem(accuracy=0.7, latency=0.5, energy=2.0, memory=200.0)
    assert not requirement.satisfied_by(failing)
    violations = requirement.violations(failing)
    assert set(violations) == {"accuracy", "latency", "energy", "memory"}
    assert requirement.violations(_alem()) == {}


def test_unconstrained_requirement_accepts_anything():
    assert ALEMRequirement().satisfied_by(_alem(accuracy=0.0, latency=100.0, energy=1e6, memory=1e6))


def test_violation_magnitudes_are_exact_excess():
    # the adaptive controller keys its decisions off these magnitudes
    requirement = ALEMRequirement(
        min_accuracy=0.8, max_latency_s=0.2, max_energy_j=1.0, max_memory_mb=100.0
    )
    failing = _alem(accuracy=0.7, latency=0.5, energy=2.5, memory=260.0)
    violations = requirement.violations(failing)
    assert violations["accuracy"] == pytest.approx(0.1)
    assert violations["latency"] == pytest.approx(0.3)
    assert violations["energy"] == pytest.approx(1.5)
    assert violations["memory"] == pytest.approx(160.0)


def test_violations_exact_boundary_is_satisfied():
    # sitting exactly on every constraint violates nothing (<=/>= semantics)
    requirement = ALEMRequirement(
        min_accuracy=0.9, max_latency_s=0.1, max_energy_j=0.5, max_memory_mb=50.0
    )
    assert requirement.satisfied_by(_alem())
    assert requirement.violations(_alem()) == {}
    # one axis unconstrained (None) never appears in the violation map
    partial = ALEMRequirement(max_latency_s=0.05)
    assert set(partial.violations(_alem())) == {"latency"}


# -- model zoo ------------------------------------------------------------------------

def test_zoo_register_get():
    zoo = ModelZoo()
    model = build_mlp(4, 2, hidden=(4,), seed=0, name="tiny")
    entry = zoo.register("tiny", model, task="tabular", input_shape=(4,), optimizations=("int8",))
    assert "tiny" in zoo and len(zoo) == 1
    assert zoo.get("tiny") is entry
    assert entry.optimizations == ("int8",)


def test_zoo_filters_by_task_and_scenario():
    zoo = ModelZoo()
    zoo.register("a", build_mlp(4, 2, seed=0), task="tabular", input_shape=(4,), scenario="home")
    zoo.register("b", build_mlp(4, 2, seed=1), task="image", input_shape=(4,), scenario="safety")
    assert [e.name for e in zoo.entries(task="tabular")] == ["a"]
    assert [e.name for e in zoo.entries(scenario="safety")] == ["b"]
    assert zoo.names == ["a", "b"]


def test_zoo_bytes_per_param_from_metadata():
    zoo = ModelZoo()
    model = build_mlp(4, 2, seed=0)
    model.metadata["bytes_per_param"] = 1.0
    entry = zoo.register("quantized", model, task="tabular", input_shape=(4,))
    assert entry.bytes_per_param == 1.0


def test_zoo_unknown_and_invalid_names():
    zoo = ModelZoo()
    with pytest.raises(ConfigurationError):
        zoo.get("missing")
    with pytest.raises(ConfigurationError):
        zoo.register("", build_mlp(4, 2, seed=0), task="t", input_shape=(4,))
