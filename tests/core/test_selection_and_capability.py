"""Tests for the capability evaluator, the Eq. (1) selector and the RL selector."""

import pytest

from repro.core import (
    ALEMRequirement,
    CapabilityEvaluator,
    ModelSelector,
    OptimizationTarget,
    RLModelSelector,
)
from repro.exceptions import ModelSelectionError
from repro.hardware import get_device, make_profiler


@pytest.fixture(scope="module")
def candidates(image_zoo, images_dataset):
    evaluator = CapabilityEvaluator(image_zoo, make_profiler("openei-lite"))
    return evaluator.evaluate_all(
        get_device("raspberry-pi-3"),
        task="image-classification",
        x_test=images_dataset.x_test,
        y_test=images_dataset.y_test,
    )


# -- capability evaluation ------------------------------------------------------

def test_evaluate_all_produces_full_alem_points(candidates):
    assert len(candidates) == 3
    for candidate in candidates:
        assert 0.0 <= candidate.alem.accuracy <= 1.0
        assert candidate.alem.latency_s > 0
        assert candidate.alem.energy_j > 0
        assert candidate.alem.memory_mb > 0
        assert candidate.device_name == "raspberry-pi-3"
        assert set(candidate.as_dict()) >= {"model", "device", "package", "accuracy"}


def test_accuracy_cache_and_injection(image_zoo, images_dataset):
    evaluator = CapabilityEvaluator(image_zoo)
    entry = image_zoo.get("lenet")
    first = evaluator.measure_accuracy(entry, images_dataset.x_test, images_dataset.y_test)
    second = evaluator.measure_accuracy(entry, images_dataset.x_test[:1], images_dataset.y_test[:1])
    assert first == second  # cached, second call ignores the tiny split
    evaluator.set_accuracy("lenet", 0.42)
    candidate = evaluator.evaluate(entry, get_device("raspberry-pi-4"))
    assert candidate.alem.accuracy == pytest.approx(0.42)


def test_evaluate_grid_covers_packages_and_devices(image_zoo, images_dataset):
    evaluator = CapabilityEvaluator(image_zoo)
    devices = [get_device("raspberry-pi-3"), get_device("jetson-tx2")]
    profilers = [make_profiler("openei-lite"), make_profiler("cloud-framework")]
    grid = evaluator.evaluate_grid(
        devices, profilers, task="image-classification",
        x_test=images_dataset.x_test, y_test=images_dataset.y_test,
    )
    assert len(grid) == len(image_zoo) * len(devices) * len(profilers)
    packages = {point.package_name for point in grid}
    assert packages == {"openei-lite", "cloud-framework"}


def test_vgg_slower_than_mobilenet_on_pi(candidates):
    by_name = {c.model_name: c for c in candidates}
    assert by_name["vgg-0.5x"].alem.latency_s > by_name["mobilenet-0.5x"].alem.latency_s


# -- Eq. (1) selector --------------------------------------------------------------

def test_selector_minimizes_latency_subject_to_accuracy(candidates):
    selector = ModelSelector()
    result = selector.select(candidates, ALEMRequirement(min_accuracy=0.5))
    feasible_latencies = [c.alem.latency_s for c in result.feasible]
    assert result.selected.alem.latency_s == min(feasible_latencies)
    assert result.target is OptimizationTarget.LATENCY


def test_selector_matches_brute_force_for_every_target(candidates):
    selector = ModelSelector()
    requirement = ALEMRequirement(min_accuracy=0.3)
    for target in OptimizationTarget:
        result = selector.select(candidates, requirement, target=target)
        brute = min(
            (c for c in candidates if requirement.satisfied_by(c.alem) and c.fits_in_memory),
            key=lambda c: c.alem.objective_value(target),
        )
        assert result.selected.alem.objective_value(target) == pytest.approx(
            brute.alem.objective_value(target)
        )


def test_selector_accuracy_target_picks_most_accurate(candidates):
    result = ModelSelector().select(candidates, target=OptimizationTarget.ACCURACY)
    assert result.selected.alem.accuracy == max(c.alem.accuracy for c in candidates)


def test_selector_memory_constraint_excludes_big_models(candidates):
    tight = ALEMRequirement(max_memory_mb=min(c.alem.memory_mb for c in candidates) + 0.01)
    result = ModelSelector().select(candidates, tight)
    assert result.selected.alem.memory_mb <= tight.max_memory_mb
    assert len(result.infeasible) >= 1


def test_selector_raises_when_nothing_feasible(candidates):
    impossible = ALEMRequirement(min_accuracy=1.1 if False else 0.99999, max_latency_s=1e-9)
    with pytest.raises(ModelSelectionError):
        ModelSelector().select(candidates, impossible)
    with pytest.raises(ModelSelectionError):
        ModelSelector().select([], ALEMRequirement())


def test_selector_partitions_duplicate_alem_candidates_by_identity(candidates):
    # regression: the infeasible partition used dataclass value-equality
    # (`c not in feasible`), so two distinct candidates sharing an ALEM
    # point both vanished from `infeasible` when one was feasible
    import dataclasses

    slow = candidates[0]
    twin_a = dataclasses.replace(slow, model_name="twin-a", fits_in_memory=False)
    twin_b = dataclasses.replace(slow, model_name="twin-a", fits_in_memory=False)
    assert twin_a == twin_b and twin_a is not twin_b
    result = ModelSelector().select([slow, twin_a, twin_b], ALEMRequirement())
    assert result.selected is slow
    assert len(result.feasible) + len(result.infeasible) == 3
    assert result.infeasible == [twin_a, twin_b]


# -- RL selector ---------------------------------------------------------------------

def test_rl_selector_converges_to_exact_optimum(candidates):
    requirement = ALEMRequirement(min_accuracy=0.5)
    exact = ModelSelector().select(candidates, requirement).selected
    learner = RLModelSelector(candidates, requirement, epsilon=0.2, seed=3)
    learned = learner.train(episodes=300)
    assert learner.regret_against(exact) <= exact.alem.objective_value(OptimizationTarget.LATENCY) * 0.5
    assert learned.model_name in {c.model_name for c in candidates}


def test_rl_greedy_step_exploits_best_played_arm(candidates):
    # regression: the greedy branch used np.where(counts > 0, values, +inf),
    # so an unplayed arm (score +inf) always won the argmax and the
    # "greedy" step was pure exploration forever
    learner = RLModelSelector(candidates, epsilon=0.0, noise_scale=0.0, seed=7)
    first = learner.step()          # nothing played yet: a uniform pick
    # with epsilon=0 every later step must re-play the best *played* arm
    for _ in range(10):
        arm = learner.step()
        assert learner._counts[arm] > 1
    played = [i for i, count in enumerate(learner._counts) if count > 0]
    assert len(played) <= 2         # first random pick + at most one greedy arm
    assert first in played
    best_value = max(learner._values[i] for i in played)
    assert learner._values[arm] == pytest.approx(best_value)


def test_rl_greedy_never_selects_unplayed_arm_over_positive_arm(candidates):
    # an arm with observed positive value must beat unplayed arms (whose
    # estimates are initialized to 0) under the greedy policy
    import numpy as np

    learner = RLModelSelector(candidates, epsilon=0.0, seed=1)
    learner._counts[1] = 5
    learner._values[1] = 12.5        # the only played arm, clearly good
    arm = learner.step()
    assert arm == 1
    assert learner.best() is learner.candidates[1]
    assert np.sum(learner._counts > 0) == 1


def test_rl_selector_statistics_and_validation(candidates):
    learner = RLModelSelector(candidates, seed=0)
    learner.train(episodes=30)
    assert len(learner._counts) == len(candidates)
    assert learner._counts.sum() == 30
    with pytest.raises(ModelSelectionError):
        RLModelSelector([], seed=0)
    with pytest.raises(ModelSelectionError):
        RLModelSelector(candidates, epsilon=2.0)
    with pytest.raises(ModelSelectionError):
        RLModelSelector(candidates).train(episodes=0)
    with pytest.raises(ModelSelectionError):
        RLModelSelector(candidates).best()
