"""Roofline-style latency model.

Latency of running a model on a device is the larger of its compute time
(FLOPs / effective throughput) and its memory time (bytes moved /
bandwidth), plus a fixed dispatch overhead.  A *package efficiency*
factor models how well the deployed deep-learning package exploits the
hardware — the lever the paper's package manager optimizations pull.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.hardware.device import DeviceSpec
from repro.nn.flops import ModelCost


@dataclass(frozen=True)
class LatencyModel:
    """Analytical single-inference latency estimator.

    Parameters
    ----------
    dispatch_overhead_s:
        Fixed per-inference overhead (interpreter dispatch, memory
        allocation).  Lightweight edge packages reduce this.
    flops_per_mac:
        FLOPs charged per multiply-accumulate (2 for multiply + add).
    """

    dispatch_overhead_s: float = 0.002
    flops_per_mac: float = 2.0

    def __post_init__(self) -> None:
        if self.dispatch_overhead_s < 0 or self.flops_per_mac <= 0:
            raise ConfigurationError("latency model parameters must be positive")

    def inference_seconds(
        self,
        cost: ModelCost,
        device: DeviceSpec,
        package_efficiency: float = 0.35,
        batch_size: int = 1,
    ) -> float:
        """Estimated wall-clock seconds for one batch of inference.

        ``package_efficiency`` in (0, 1] scales the device's peak
        throughput down to what the deployed package actually achieves.
        """
        if not 0.0 < package_efficiency <= 1.0:
            raise ConfigurationError("package_efficiency must lie in (0, 1]")
        if batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        flops = cost.flops * self.flops_per_mac * batch_size
        compute_time = flops / (device.peak_gflops * 1e9 * package_efficiency)
        bytes_moved = (cost.size_bytes + cost.activation_bytes * batch_size)
        memory_time = bytes_moved / (device.memory_bandwidth_gbps * 1e9)
        return self.dispatch_overhead_s + max(compute_time, memory_time)

    def training_seconds(
        self,
        cost: ModelCost,
        device: DeviceSpec,
        samples: int,
        epochs: int = 1,
        package_efficiency: float = 0.35,
    ) -> float:
        """Estimated time to (re)train on ``samples`` examples for ``epochs`` epochs.

        A backward+update pass costs roughly three times
        the forward pass, the standard rule of thumb the local-training
        path of the package manager uses.
        """
        if samples <= 0 or epochs <= 0:
            raise ConfigurationError("samples and epochs must be positive")
        per_sample = self.inference_seconds(cost, device, package_efficiency) - self.dispatch_overhead_s
        return self.dispatch_overhead_s + per_sample * 3.0 * samples * epochs
