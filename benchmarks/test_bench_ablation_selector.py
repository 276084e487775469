"""Ablation A1 — is the model selector actually needed?

The paper offers the Selecting Algorithm (Eq. (1), ``core/model_selector.py``
in docs/ARCHITECTURE.md's package map) as the answer to its
"mismatch between edge platform and AI algorithms" challenge.  This
ablation replaces it with the naive policies a system without OpenEI
would use — always deploy the most accurate model, always deploy the
smallest model, or pick at random — and compares the resulting ALEM
profile on a constrained edge.

Expected shape: "always most accurate" violates the latency budget on the
weak edge; "always smallest/random" sacrifices accuracy or feasibility;
only the Eq. (1) selector meets the accuracy constraint at minimal latency
on every device.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import print_table
from repro.core import ALEMRequirement, CapabilityEvaluator, ModelSelector, OptimizationTarget
from repro.exceptions import ModelSelectionError
from repro.hardware import get_device, make_profiler

DEVICES = ("raspberry-pi-3", "jetson-tx2")


def _policies(candidates, requirement):
    """Return {policy name: chosen candidate or None} for one device's candidates."""
    selector = ModelSelector()
    rng = np.random.default_rng(0)
    chosen = {}
    try:
        chosen["openei-selector"] = selector.select(
            candidates, requirement, target=OptimizationTarget.LATENCY
        ).selected
    except ModelSelectionError:
        chosen["openei-selector"] = None
    chosen["always-most-accurate"] = max(candidates, key=lambda c: c.alem.accuracy)
    chosen["always-smallest"] = min(candidates, key=lambda c: c.profile.cost.params)
    chosen["random"] = candidates[int(rng.integers(0, len(candidates)))]
    return chosen


def test_ablation_selector_vs_naive_policies(benchmark, vision_zoo, vision_dataset):
    requirement = ALEMRequirement(min_accuracy=0.9, max_latency_s=0.004)

    def evaluate_policies():
        results = {}
        for device_name in DEVICES:
            evaluator = CapabilityEvaluator(vision_zoo, make_profiler("openei-lite"))
            candidates = evaluator.evaluate_all(
                get_device(device_name), task="image-classification",
                x_test=vision_dataset.x_test, y_test=vision_dataset.y_test,
            )
            results[device_name] = _policies(candidates, requirement)
        return results

    results = benchmark.pedantic(evaluate_policies, rounds=1, iterations=1)

    rows = []
    for device_name, policies in results.items():
        for policy, candidate in policies.items():
            if candidate is None:
                rows.append(f"{device_name:<16s} {policy:<22s} {'infeasible':<22s}")
                continue
            meets = requirement.satisfied_by(candidate.alem)
            rows.append(
                f"{device_name:<16s} {policy:<22s} {candidate.model_name:<22s} "
                f"{candidate.alem.accuracy:>6.3f} {candidate.alem.latency_s * 1e3:>9.2f} "
                f"{'yes' if meets else 'NO':>6s}"
            )
    print_table(
        "Ablation A1 — selection policy vs ALEM requirement (min acc 0.90, max 4 ms)",
        f"{'device':<16s} {'policy':<22s} {'model':<22s} {'acc':>6s} {'lat(ms)':>9s} {'ok':>6s}",
        rows,
    )

    for device_name in DEVICES:
        policies = results[device_name]
        selected = policies["openei-selector"]
        assert selected is not None
        assert requirement.satisfied_by(selected.alem)
        # The selector is never slower than the naive accuracy-first policy while
        # still meeting the accuracy constraint.
        accurate = policies["always-most-accurate"]
        assert selected.alem.latency_s <= accurate.alem.latency_s + 1e-12
    # On the weak edge the accuracy-first policy blows the latency budget, which is
    # exactly the mismatch problem the selector exists to solve.
    pi_accurate = results["raspberry-pi-3"]["always-most-accurate"]
    pi_selected = results["raspberry-pi-3"]["openei-selector"]
    assert pi_selected.alem.latency_s <= pi_accurate.alem.latency_s
