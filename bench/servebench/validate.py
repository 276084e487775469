"""Output correctness checks.

Each validator returns ``None`` for a correct body or a one-line reason;
a failed or malformed response counts as a failed operation and misses
every limit.  They run on the first responses before any timing and on
every response during it.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Mapping, Optional, Sequence, Tuple

#: Keys a stock handler's ``result`` must carry, per (scenario, algorithm).
RESULT_KEYS: Dict[Tuple[str, str], Tuple[str, ...]] = {
    ("safety", "detection"): ("sensor_id", "timestamp", "detections",
                              "ground_truth_boxes", "observed_alem"),
    ("vehicles", "tracking"): ("sensor_id", "track", "ground_truth",
                               "predicted_next", "observed_alem"),
    ("home", "power_monitor"): ("sensor_id", "timestamp", "total_watts",
                                "appliances", "ground_truth", "observed_alem"),
    ("health", "activity_recognition"): ("sensor_id", "timestamp", "activity",
                                         "activity_name", "probabilities",
                                         "ground_truth", "observed_alem"),
    ("safety", "classify"): ("model", "version", "canary", "observed_alem"),
}


def check_algorithm_body(
    body: object, scenario: str, algorithm: str, instance_ids: Collection[str]
) -> Optional[str]:
    """An ``/ei_algorithms`` response: ok, echoed route, known replica, result keys."""
    if not isinstance(body, Mapping):
        return f"body is {type(body).__name__}, not an object"
    if body.get("status") != "ok":
        return f"status {body.get('status')!r}: {body.get('error')!r}"
    if body.get("scenario") != scenario or body.get("algorithm") != algorithm:
        return (f"echoed {body.get('scenario')}/{body.get('algorithm')}, "
                f"sent {scenario}/{algorithm}")
    return check_result(body.get("result"), scenario, algorithm, instance_ids)


def check_result(
    result: object, scenario: str, algorithm: str, instance_ids: Collection[str]
) -> Optional[str]:
    """The ``result`` object alone (what the in-process fleet returns)."""
    if not isinstance(result, Mapping):
        return "result is missing or not an object"
    if result.get("served_by") not in instance_ids:
        return f"served_by {result.get('served_by')!r} is not a fleet instance"
    missing = [key for key in RESULT_KEYS[(scenario, algorithm)] if key not in result]
    if missing:
        return f"{scenario}/{algorithm} result lacks {missing}"
    return None


def _data_of(body: object, sensor_id: str) -> Tuple[Optional[Mapping], Optional[str]]:
    if not isinstance(body, Mapping):
        return None, f"body is {type(body).__name__}, not an object"
    if body.get("status") != "ok":
        return None, f"status {body.get('status')!r}: {body.get('error')!r}"
    data = body.get("data")
    if not isinstance(data, Mapping):
        return None, "data is missing or not an object"
    if data.get("sensor_id") != sensor_id:
        return None, f"sensor_id {data.get('sensor_id')!r}, asked for {sensor_id!r}"
    return data, None


def check_realtime_body(
    body: object, sensor_id: str, timestamp: float, payload: List
) -> Optional[str]:
    """A realtime read must be the newest recorded reading, float for float."""
    data, error = _data_of(body, sensor_id)
    if data is None:
        return error
    if data.get("timestamp") != timestamp:
        return f"timestamp {data.get('timestamp')!r}, recorded {timestamp!r}"
    if data.get("payload") != payload:
        return "payload differs from the recorded reading"
    return None


def check_historical_body(
    body: object, sensor_id: str, timestamps: Sequence[float], payloads: Sequence[List]
) -> Optional[str]:
    """A historical read must be exactly the window's recorded readings, in order."""
    data, error = _data_of(body, sensor_id)
    if data is None:
        return error
    if data.get("count") != len(timestamps):
        return f"count {data.get('count')!r}, window holds {len(timestamps)}"
    if data.get("timestamps") != list(timestamps):
        return "timestamps differ from the recorded window"
    if data.get("payloads") != list(payloads):
        return "payloads differ from the recorded window"
    return None


def comparable(result: Mapping[str, object]) -> Dict[str, object]:
    """A result minus what legitimately differs between two correct runs.

    ``served_by`` depends on routing and ``observed_alem.latency_s`` is
    wall-clock derived; everything else must match between a batched
    call and the per-request calls it stands for (:func:`first_difference`).
    """
    kept = {k: v for k, v in result.items() if k != "served_by"}
    observed = kept.get("observed_alem")
    if isinstance(observed, Mapping):
        kept["observed_alem"] = {k: v for k, v in observed.items() if k != "latency_s"}
    return kept


def first_difference(got: object, expected: object, tol: float = 1e-9, path: str = "") -> Optional[str]:
    """Where two results first differ, or ``None`` when they match.

    Structure, keys, strings, ints and bools must be equal; floats must
    agree to ``tol`` — a stacked matmul rounds its last ulp differently
    from a single-row one, and 1e-9 is the tolerance the repo's own
    batch-handler contract tests (``tests/apps/test_batch_handlers.py``)
    hold the handlers to.
    """
    if isinstance(expected, Mapping):
        if not isinstance(got, Mapping) or set(got) != set(expected):
            return f"{path or '.'}: keys differ"
        for key in expected:
            found = first_difference(got[key], expected[key], tol, f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(expected, (list, tuple)):
        if not isinstance(got, (list, tuple)) or len(got) != len(expected):
            return f"{path or '.'}: lengths differ"
        for index, (g, e) in enumerate(zip(got, expected)):
            found = first_difference(g, e, tol, f"{path}[{index}]")
            if found is not None:
                return found
        return None
    if isinstance(expected, float) and isinstance(got, float):
        return None if abs(got - expected) <= tol else f"{path}: {got!r} vs {expected!r}"
    return None if got == expected and type(got) is type(expected) else f"{path}: {got!r} vs {expected!r}"
