"""Edge data layer: simulated sensors, the realtime/historical store, and workloads.

The paper's libei exposes data via two URL families —
``/ei_data/realtime/<sensor>/{timestamp}`` and
``/ei_data/historical/<sensor>/{start,end}``.  This package provides the
sensor simulators that generate that data (cameras, wearable IMUs,
appliance power meters, vehicle cameras) and the store the URLs read.
"""

from repro.data.sensors import (
    CameraSensor,
    PowerMeterSensor,
    SensorReading,
    VehicleCameraSensor,
    WearableIMUSensor,
)
from repro.data.store import EdgeDataStore
from repro.data.workloads import (
    SCENARIO_ALGORITHMS,
    StreamRequest,
    activity_recognition_workload,
    appliance_power_workload,
    object_detection_workload,
    scenario_request_stream,
    trajectory_workload,
)

__all__ = [
    "CameraSensor",
    "EdgeDataStore",
    "PowerMeterSensor",
    "SCENARIO_ALGORITHMS",
    "SensorReading",
    "StreamRequest",
    "VehicleCameraSensor",
    "WearableIMUSensor",
    "activity_recognition_workload",
    "appliance_power_workload",
    "object_detection_workload",
    "scenario_request_stream",
    "trajectory_workload",
]
