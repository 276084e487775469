"""Catalog of edge devices named in the paper.

Numbers are order-of-magnitude figures from public datasheets; the
reproduction only relies on their *relative* ordering (MCU ≪ Pi ≪ phone ≪
Jetson ≪ edge server ≪ cloud), which is what the model selector and the
Fig. 5 grid experiment exercise.
"""

from __future__ import annotations

from typing import Dict

from repro.exceptions import ConfigurationError
from repro.hardware.device import DeviceSpec

#: Every catalog device, weakest first.
_DEVICES = (
    # An Arduino-UNO-class microcontroller (the ProtoNN/Bonsai target).
    DeviceSpec(
        name="arduino-class-mcu",
        peak_gflops=0.001,
        memory_bandwidth_gbps=0.01,
        memory_mb=0.002,  # 2 kB of SRAM, as in the paper's ProtoNN reference
        idle_power_w=0.05,
        active_power_w=0.25,
        storage_mb=0.032,
        tags=("mcu", "battery"),
    ),
    # Raspberry Pi 3B: the paper's canonical 'weak edge'.
    DeviceSpec(
        name="raspberry-pi-3",
        peak_gflops=6.0,
        memory_bandwidth_gbps=2.0,
        memory_mb=1024.0,
        idle_power_w=1.4,
        active_power_w=3.7,
        storage_mb=16384.0,
        tags=("sbc",),
    ),
    # Raspberry Pi 4 (4 GB).
    DeviceSpec(
        name="raspberry-pi-4",
        peak_gflops=13.5,
        memory_bandwidth_gbps=4.0,
        memory_mb=4096.0,
        idle_power_w=2.7,
        active_power_w=6.4,
        storage_mb=32768.0,
        tags=("sbc",),
    ),
    # A mid-range smartphone SoC (CPU-only inference).
    DeviceSpec(
        name="mobile-phone",
        peak_gflops=40.0,
        memory_bandwidth_gbps=15.0,
        memory_mb=6144.0,
        idle_power_w=0.8,
        active_power_w=4.5,
        storage_mb=65536.0,
        tags=("mobile", "battery"),
    ),
    # Intel Movidius-style USB vision accelerator.
    DeviceSpec(
        name="intel-movidius",
        peak_gflops=100.0,
        memory_bandwidth_gbps=8.0,
        memory_mb=512.0,
        idle_power_w=0.5,
        active_power_w=2.5,
        storage_mb=512.0,
        tags=("accelerator", "vision"),
    ),
    # NVIDIA Jetson TX2: the paper's GPU-equipped edge board.
    DeviceSpec(
        name="jetson-tx2",
        peak_gflops=650.0,
        memory_bandwidth_gbps=58.0,
        memory_mb=8192.0,
        idle_power_w=5.0,
        active_power_w=15.0,
        storage_mb=32768.0,
        tags=("gpu", "sbc"),
    ),
    # NVIDIA Jetson AGX Xavier (Section IV.D of the paper).
    DeviceSpec(
        name="jetson-agx-xavier",
        peak_gflops=5500.0,
        memory_bandwidth_gbps=137.0,
        memory_mb=16384.0,
        idle_power_w=10.0,
        active_power_w=30.0,
        storage_mb=32768.0,
        tags=("gpu", "sbc"),
    ),
    # A small on-premise edge server with a workstation GPU.
    DeviceSpec(
        name="edge-server",
        peak_gflops=12000.0,
        memory_bandwidth_gbps=448.0,
        memory_mb=65536.0,
        idle_power_w=80.0,
        active_power_w=350.0,
        storage_mb=1048576.0,
        tags=("gpu", "server"),
    ),
    # Datacenter-class accelerator pool used by the cloud simulator.
    DeviceSpec(
        name="cloud-datacenter",
        peak_gflops=120000.0,
        memory_bandwidth_gbps=2000.0,
        memory_mb=524288.0,
        idle_power_w=500.0,
        active_power_w=3000.0,
        storage_mb=10485760.0,
        is_cloud=True,
        tags=("gpu", "cloud"),
    ),
)

#: Mapping of device name to spec.
DEVICE_CATALOG: Dict[str, DeviceSpec] = {spec.name: spec for spec in _DEVICES}


def get_device(name: str) -> DeviceSpec:
    """Look up a device by name.

    Raises
    ------
    ConfigurationError
        If the device is not in the catalog.
    """
    try:
        return DEVICE_CATALOG[name]
    except KeyError as exc:
        raise ConfigurationError(
        f"unknown device {name!r}; choose from {sorted(DEVICE_CATALOG)}"
        ) from exc
