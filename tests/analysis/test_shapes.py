"""The static shape/dtype checker and its publish/deploy gates."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.shapes import check_model, main, model_corpus, validate_model
from repro.apps import register_all
from repro.core import ALEMRequirement, ModelRegistry, ModelZoo
from repro.exceptions import AnalysisError
from repro.nn.layers import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    ReLU,
    SimpleRNN,
    Softmax,
)
from repro.nn.model import Sequential
from repro.serving import (
    ALEMTelemetry,
    EdgeFleet,
    RolloutController,
    RolloutPolicy,
)


def test_every_corpus_model_passes_with_a_fully_native_plan():
    corpus = model_corpus()
    assert len(corpus) == 10
    for name, model, shape in corpus:
        report = check_model(model, shape)
        assert report.ok, (name, [f.render() for f in report.findings])
        assert report.fallback_layers == [], name
        assert report.native_steps > 0, name


def test_wrong_dense_fan_in_names_the_offending_layer():
    model = Sequential(
        [Dense(16, 8, seed=0), ReLU(), Dense(9, 4, seed=1)], name="bad-mlp"
    )
    report = check_model(model, (16,))
    assert not report.ok
    assert [f.index for f in report.findings] == [2]
    assert "expects 9 input features, got 8" in report.findings[0].message


def test_channel_mismatched_conv_stack_is_rejected():
    model = Sequential(
        [
            Conv2D(1, 4, kernel_size=3, padding="same", seed=0),
            ReLU(),
            Conv2D(8, 8, kernel_size=3, padding="same", seed=1),
            Flatten(),
            Dense(16 * 16 * 8, 4, seed=2),
        ],
        name="bad-conv",
    )
    report = check_model(model, (16, 16, 1))
    assert [f.index for f in report.findings] == [2]
    assert "expects 8 channels, got 4" in report.findings[0].message


def test_recurrent_feature_mismatch_is_a_named_finding():
    model = Sequential(
        [SimpleRNN(input_size=6, hidden_size=8, seed=0), Dense(8, 4, seed=1), Softmax()],
        name="bad-rnn",
    )
    report = check_model(model, (20, 9))
    assert [f.index for f in report.findings] == [0]
    assert "consumes 6-feature steps" in report.findings[0].message
    assert "9 features" in report.findings[0].message


def test_pool_divisibility_is_checked_statically():
    model = Sequential(
        [Conv2D(1, 4, kernel_size=3, padding="same", seed=0), MaxPool2D(3)],
        name="bad-pool",
    )
    report = check_model(model, (16, 16, 1))
    assert len(report.findings) == 1  # one finding per violated layer, naming both axes
    assert "divisible by 3; got (16, 16)" in report.findings[0].message
    assert {f.index for f in report.findings} == {1}


def test_non_float64_parameters_are_rejected():
    dense = Dense(4, 2, seed=0)
    dense.params["W"] = dense.params["W"].astype(np.float32)
    report = check_model(Sequential([dense], name="stale"), (4,))
    assert not report.ok
    assert "parameter 'W' is float32" in report.findings[0].message


def test_validate_model_raises_with_context_and_layer():
    model = Sequential(
        [Dense(16, 8, seed=0), ReLU(), Dense(9, 4, seed=1)], name="bad-mlp"
    )
    validated = validate_model(
        Sequential([Dense(16, 4, seed=0)], name="ok"), (16,)
    )
    assert validated.ok
    with pytest.raises(AnalysisError) as excinfo:
        validate_model(model, (16,), context="publish")
    message = str(excinfo.value)
    assert "shape check failed at publish time" in message
    assert "'bad-mlp'" in message
    assert "layer 2" in message


def test_shapes_cli_sweeps_the_corpus(capsys):
    assert main(["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert len(payload["models"]) == 10
    assert all(entry["fallback_layers"] == [] for entry in payload["models"])


# -- the gates ---------------------------------------------------------------

SCENARIO, ALGORITHM, MODEL = "safety", "classify", "safety-classifier"


def _good_model(seed=0):
    return Sequential(
        [Dense(6, 8, seed=seed), ReLU(), Dense(8, 3, seed=seed + 1), Softmax()],
        name=MODEL,
    )


def _broken_model(seed=0):
    # internally inconsistent: the 8-wide hidden layer feeds a Dense(9, ...)
    return Sequential(
        [Dense(6, 8, seed=seed), ReLU(), Dense(9, 3, seed=seed + 1), Softmax()],
        name=MODEL,
    )


def test_publish_gate_rejects_broken_architectures():
    registry = ModelRegistry()
    with pytest.raises(AnalysisError, match="publish time"):
        registry.publish(MODEL, _broken_model(), task="t", input_shape=(6,))
    assert MODEL not in registry  # nothing was stored

    # mismatched declared input shape is caught too
    with pytest.raises(AnalysisError, match="expects 6 input features"):
        registry.publish(MODEL, _good_model(), task="t", input_shape=(11,))

    # the explicit opt-out archives the artifact anyway
    entry = registry.publish(
        MODEL, _broken_model(), task="t", input_shape=(6,), validate=False
    )
    assert entry.version == 1


def _fleet_controller(registry):
    fleet = EdgeFleet.deploy(
        ["raspberry-pi-4", "jetson-tx2"],
        zoo=ModelZoo(),
        telemetry=ALEMTelemetry(window_size=16),
    )
    for instance in fleet:
        register_all(instance.openei, seed=0)
    return RolloutController(fleet, registry)


def test_deploy_gate_revalidates_unvalidated_artifacts():
    registry = ModelRegistry()
    registry.publish(
        MODEL, _broken_model(), task="t", input_shape=(6,),
        scenario=SCENARIO, validate=False,
    )
    controller = _fleet_controller(registry)
    with pytest.raises(AnalysisError, match="deploy time"):
        controller.deploy(SCENARIO, ALGORITHM, MODEL)
    # nothing was registered for serving
    from repro.exceptions import ResourceNotFoundError

    with pytest.raises(ResourceNotFoundError):
        controller.serving(SCENARIO, ALGORITHM)


def test_begin_gate_records_canary_failed_and_releases_the_claim():
    registry = ModelRegistry()
    registry.publish(
        MODEL, _good_model(), task="t", input_shape=(6,), scenario=SCENARIO
    )
    controller = _fleet_controller(registry)
    controller.deploy(SCENARIO, ALGORITHM, MODEL)
    registry.publish(
        MODEL, _broken_model(seed=7), task="t", input_shape=(6,),
        scenario=SCENARIO, validate=False,
    )

    policy = RolloutPolicy(
        requirement=ALEMRequirement(min_accuracy=0.5), min_samples=3, healthy_checks=2
    )
    with pytest.raises(AnalysisError, match="deploy time"):
        controller.begin(SCENARIO, ALGORITHM, version=2, policy=policy)

    event = controller.events[-1]
    assert event.kind == "canary-failed"
    assert "AnalysisError" in event.error
    assert controller.stats.failures == 1
    # the claim was released: a second attempt fails on the gate again,
    # not on "a rollout is already in flight"
    with pytest.raises(AnalysisError):
        controller.begin(SCENARIO, ALGORITHM, version=2, policy=policy)
