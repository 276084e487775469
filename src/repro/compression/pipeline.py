"""Compression pipeline and reporting.

Chains individual techniques and measures, for each resulting model, the
quantities Table I reasons about: size reduction, accuracy delta and
inference speedup on a reference edge device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.catalog import get_device
from repro.hardware.device import DeviceSpec
from repro.hardware.profiler import ALEMProfiler
from repro.nn.flops import model_cost
from repro.nn.model import Sequential

CompressionFn = Callable[[Sequential], Sequential]


@dataclass
class CompressionStep:
    """A named compression technique applied to a model."""

    name: str
    apply: CompressionFn
    family: str = "parameter sharing and pruning"


@dataclass
class CompressionReport:
    """Size/accuracy/latency comparison of compressed variants against a baseline."""

    baseline_name: str
    baseline_accuracy: float
    baseline_size_mb: float
    baseline_latency_s: float
    rows: List[Dict[str, object]] = field(default_factory=list)

    def add(self, name: str, family: str, accuracy: float, size_mb: float, latency_s: float) -> None:
        """Record one compressed variant."""
        self.rows.append(
            {
                "technique": name,
                "family": family,
                "accuracy": accuracy,
                "accuracy_delta": accuracy - self.baseline_accuracy,
                "size_mb": size_mb,
                "size_reduction_x": self.baseline_size_mb / size_mb if size_mb else float("inf"),
                "latency_s": latency_s,
                "speedup_x": self.baseline_latency_s / latency_s if latency_s else float("inf"),
            }
        )

    def as_table(self) -> str:
        """Text table matching the structure of the paper's Table I."""
        header = (
            f"{'technique':<22s} {'family':<30s} {'acc':>6s} {'Δacc':>7s} "
            f"{'size(MB)':>9s} {'xsmaller':>9s} {'xfaster':>8s}"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row['technique']:<22s} {row['family']:<30s} "
                f"{row['accuracy']:>6.3f} {row['accuracy_delta']:>+7.3f} "
                f"{row['size_mb']:>9.3f} {row['size_reduction_x']:>9.1f} {row['speedup_x']:>8.2f}"
            )
        return "\n".join(lines)


def compress_and_report(
    model: Sequential,
    steps: Sequence[CompressionStep],
    x_test: np.ndarray,
    y_test: np.ndarray,
    input_shape: Tuple[int, ...],
    device: Optional[DeviceSpec] = None,
    profiler: Optional[ALEMProfiler] = None,
) -> Tuple[CompressionReport, Dict[str, Sequential]]:
    """Apply each compression step to ``model`` and summarize the trade-offs.

    Returns the report plus the compressed model per technique so callers
    (e.g. the model zoo) can register the variants.
    """
    device = device or get_device("raspberry-pi-4")
    profiler = profiler or ALEMProfiler()
    baseline_cost = model_cost(model, input_shape)
    baseline_profile = profiler.profile(model, input_shape, device)
    baseline_accuracy = model.evaluate(x_test, y_test)[1]
    report = CompressionReport(
        baseline_name=model.name,
        baseline_accuracy=baseline_accuracy,
        baseline_size_mb=baseline_cost.size_mb,
        baseline_latency_s=baseline_profile.latency_s,
    )
    variants: Dict[str, Sequential] = {}
    for step in steps:
        compressed = step.apply(model)
        compressed.name = f"{model.name}-{step.name}"
        cost = model_cost(
            compressed, input_shape, bytes_per_param=float(compressed.metadata.get("bytes_per_param", 4.0))
        )
        profile = profiler.profile(
            compressed,
            input_shape,
            device,
            bytes_per_param=float(compressed.metadata.get("bytes_per_param", 4.0)),
        )
        accuracy = compressed.evaluate(x_test, y_test)[1]
        report.add(step.name, step.family, accuracy, cost.size_mb, profile.latency_s)
        variants[step.name] = compressed
    return report, variants
