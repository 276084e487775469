"""The ALEM tuple: ⟨Accuracy, Latency, Energy, Memory footprint⟩.

The paper defines every EI capability as this four-element tuple:
Accuracy is task-specific (classification accuracy, mAP, BLEU), Latency
is per-inference wall-clock time, Energy is the extra joules drawn during
inference, and Memory footprint is resident megabytes while the model runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.exceptions import ConfigurationError


class OptimizationTarget(enum.Enum):
    """Which ALEM attribute Eq. (1) optimizes (the other three become constraints)."""

    LATENCY = "latency"
    ACCURACY = "accuracy"
    ENERGY = "energy"
    MEMORY = "memory"


@dataclass(frozen=True)
class ALEM:
    """One measured EI capability point.

    Attributes
    ----------
    accuracy:
        Task metric in ``[0, 1]`` (higher is better).
    latency_s:
        Seconds per inference (lower is better).
    energy_j:
        Extra joules per inference (lower is better).
    memory_mb:
        Resident megabytes during inference (lower is better).
    """

    accuracy: float
    latency_s: float
    energy_j: float
    memory_mb: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy <= 1.0:
            raise ConfigurationError("accuracy must lie in [0, 1]")
        if self.latency_s < 0 or self.energy_j < 0 or self.memory_mb < 0:
            raise ConfigurationError("latency, energy and memory must be non-negative")

    def as_dict(self) -> Dict[str, float]:
        """Plain dictionary view (used by libei and reports)."""
        return {
            "accuracy": self.accuracy,
            "latency_s": self.latency_s,
            "energy_j": self.energy_j,
            "memory_mb": self.memory_mb,
        }

    def objective_value(self, target: OptimizationTarget) -> float:
        """Scalar to *minimize* for the given optimization target."""
        if target is OptimizationTarget.LATENCY:
            return self.latency_s
        if target is OptimizationTarget.ENERGY:
            return self.energy_j
        if target is OptimizationTarget.MEMORY:
            return self.memory_mb
        return -self.accuracy

    def improvement_over(self, other: "ALEM") -> Dict[str, float]:
        """Multiplicative improvement factors versus another measurement.

        Used by the "order of magnitude improvement" benchmark (S1):
        values above 1 mean this tuple is better on that axis.
        """
        def ratio(better_low: float, worse_low: float) -> float:
            return worse_low / better_low if better_low > 0 else float("inf")

        return {
            "accuracy": self.accuracy / other.accuracy if other.accuracy > 0 else float("inf"),
            "latency": ratio(self.latency_s, other.latency_s),
            "energy": ratio(self.energy_j, other.energy_j),
            "memory": ratio(self.memory_mb, other.memory_mb),
        }


@dataclass(frozen=True)
class ALEMRequirement:
    """The constraint side of Eq. (1).

    ``min_accuracy`` is the application's A_req; ``max_energy_j`` and
    ``max_memory_mb`` are the E_pro / M_pro the edge provides;
    ``max_latency_s`` becomes a constraint when the optimization target
    is not latency.  ``None`` means unconstrained.
    """

    min_accuracy: Optional[float] = None
    max_latency_s: Optional[float] = None
    max_energy_j: Optional[float] = None
    max_memory_mb: Optional[float] = None

    def satisfied_by(self, measurement: ALEM) -> bool:
        """Whether a measured ALEM point meets every stated constraint."""
        if self.min_accuracy is not None and measurement.accuracy < self.min_accuracy:
            return False
        if self.max_latency_s is not None and measurement.latency_s > self.max_latency_s:
            return False
        if self.max_energy_j is not None and measurement.energy_j > self.max_energy_j:
            return False
        if self.max_memory_mb is not None and measurement.memory_mb > self.max_memory_mb:
            return False
        return True

    def violations(self, measurement: ALEM) -> Dict[str, float]:
        """Map of constraint name -> magnitude of violation (empty when satisfied)."""
        violations: Dict[str, float] = {}
        if self.min_accuracy is not None and measurement.accuracy < self.min_accuracy:
            violations["accuracy"] = self.min_accuracy - measurement.accuracy
        if self.max_latency_s is not None and measurement.latency_s > self.max_latency_s:
            violations["latency"] = measurement.latency_s - self.max_latency_s
        if self.max_energy_j is not None and measurement.energy_j > self.max_energy_j:
            violations["energy"] = measurement.energy_j - self.max_energy_j
        if self.max_memory_mb is not None and measurement.memory_mb > self.max_memory_mb:
            violations["memory"] = measurement.memory_mb - self.max_memory_mb
        return violations
