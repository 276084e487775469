"""Tests for device specs, the catalog, and the latency/energy/memory models."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.hardware import (
    DEVICE_CATALOG,
    DeviceSpec,
    EnergyModel,
    LatencyModel,
    MemoryModel,
    NetworkLink,
    get_device,
)
from repro.hardware.device import CELLULAR_LINK, LAN_LINK, WAN_LINK
from repro.nn.flops import ModelCost


def _cost(flops=1_000_000, params=10_000):
    return ModelCost(params=params, flops=flops, size_bytes=params * 4.0,
                     activation_bytes=4096.0)


def test_device_spec_validation():
    with pytest.raises(ConfigurationError):
        DeviceSpec("bad", peak_gflops=0, memory_bandwidth_gbps=1, memory_mb=1,
                   idle_power_w=1, active_power_w=2)
    with pytest.raises(ConfigurationError):
        DeviceSpec("bad", peak_gflops=1, memory_bandwidth_gbps=1, memory_mb=1,
                   idle_power_w=5, active_power_w=2)


def test_device_dynamic_power_and_describe():
    device = get_device("raspberry-pi-3")
    assert device.dynamic_power_w == pytest.approx(device.active_power_w - device.idle_power_w)
    description = device.describe()
    assert description["name"] == "raspberry-pi-3"
    assert isinstance(description["tags"], list)


def test_catalog_contains_paper_devices_and_ordering():
    for name in ("raspberry-pi-3", "jetson-tx2", "mobile-phone", "edge-server", "cloud-datacenter"):
        assert name in DEVICE_CATALOG
    assert get_device("raspberry-pi-3").peak_gflops < get_device("jetson-tx2").peak_gflops
    assert get_device("jetson-tx2").peak_gflops < get_device("edge-server").peak_gflops
    assert get_device("arduino-class-mcu").memory_mb < 1.0


def test_get_device_unknown_raises():
    with pytest.raises(ConfigurationError):
        get_device("quantum-edge")


def test_network_link_transfer_time_scales_with_payload():
    assert WAN_LINK.transfer_seconds(2_000_000) > WAN_LINK.transfer_seconds(1_000_000)
    assert WAN_LINK.transfer_seconds(0) == pytest.approx(WAN_LINK.latency_ms / 1000.0)
    assert LAN_LINK.transfer_seconds(1_000_000) < WAN_LINK.transfer_seconds(1_000_000)
    assert CELLULAR_LINK.loss_rate > 0


def test_network_link_validation():
    with pytest.raises(ConfigurationError):
        NetworkLink("bad", bandwidth_mbps=0, latency_ms=1)
    with pytest.raises(ConfigurationError):
        NetworkLink("bad", bandwidth_mbps=1, latency_ms=1, loss_rate=1.0)
    with pytest.raises(ConfigurationError):
        WAN_LINK.transfer_seconds(-1)


def test_latency_slower_device_is_slower():
    model = LatencyModel()
    cost = _cost(flops=50_000_000)
    pi = model.inference_seconds(cost, get_device("raspberry-pi-3"))
    tx2 = model.inference_seconds(cost, get_device("jetson-tx2"))
    assert pi > tx2


def test_latency_monotone_in_flops_and_efficiency():
    model = LatencyModel()
    device = get_device("raspberry-pi-3")
    assert model.inference_seconds(_cost(flops=10_000_000), device) < model.inference_seconds(
        _cost(flops=100_000_000), device
    )
    assert model.inference_seconds(_cost(), device, package_efficiency=0.9) <= model.inference_seconds(
        _cost(), device, package_efficiency=0.2
    )


def test_latency_training_exceeds_inference():
    model = LatencyModel()
    device = get_device("raspberry-pi-4")
    inference = model.inference_seconds(_cost(), device)
    training = model.training_seconds(_cost(), device, samples=100, epochs=2)
    assert training > inference


def test_latency_invalid_arguments():
    model = LatencyModel()
    device = get_device("raspberry-pi-3")
    with pytest.raises(ConfigurationError):
        model.inference_seconds(_cost(), device, package_efficiency=0.0)
    with pytest.raises(ConfigurationError):
        model.inference_seconds(_cost(), device, batch_size=0)
    with pytest.raises(ConfigurationError):
        model.training_seconds(_cost(), device, samples=0)
    with pytest.raises(ConfigurationError):
        LatencyModel(dispatch_overhead_s=-1)


def test_energy_proportional_to_latency_and_power():
    energy = EnergyModel()
    pi = get_device("raspberry-pi-3")
    server = get_device("edge-server")
    assert energy.inference_joules(0.2, pi) == pytest.approx(2 * energy.inference_joules(0.1, pi))
    assert energy.inference_joules(0.1, server) > energy.inference_joules(0.1, pi)
    assert energy.idle_joules(10, pi) == pytest.approx(10 * pi.idle_power_w)


def test_energy_battery_lifetime_decreases_with_rate():
    energy = EnergyModel()
    phone = get_device("mobile-phone")
    idle_life = energy.battery_lifetime_hours(phone, battery_wh=10, inferences_per_hour=0, latency_seconds=0.1)
    busy_life = energy.battery_lifetime_hours(phone, battery_wh=10, inferences_per_hour=3600, latency_seconds=0.1)
    assert busy_life < idle_life


def test_energy_invalid_arguments():
    energy = EnergyModel()
    with pytest.raises(ConfigurationError):
        EnergyModel(utilization=0.0)
    with pytest.raises(ConfigurationError):
        energy.inference_joules(-1, get_device("raspberry-pi-3"))


def test_memory_footprint_includes_overhead_and_fits():
    memory = MemoryModel(runtime_overhead_mb=10.0)
    cost = _cost(params=1_000_000)
    footprint = memory.footprint_mb(cost)
    assert footprint > 10.0
    assert memory.fits(cost, get_device("edge-server"))
    assert not memory.fits(cost, get_device("arduino-class-mcu"))


def test_memory_invalid_arguments():
    with pytest.raises(ConfigurationError):
        MemoryModel(runtime_overhead_mb=-1)
    with pytest.raises(ConfigurationError):
        MemoryModel().footprint_mb(_cost(), batch_size=0)
