"""URL grammar and dispatcher for libei (Fig. 6).

The grammar has four fields after the host: resource type
(``ei_algorithms`` or ``ei_data``), then either scenario + algorithm or
data type + sensor id, followed by an optional argument segment.  The
argument segment accepts both the figure's ``{key=value}`` style and a
query string, so the exact example URLs from the paper parse unchanged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, runtime_checkable
from urllib.parse import parse_qsl, unquote, urlparse

from repro.data.sensors import PayloadList
from repro.exceptions import APIError, ResourceNotFoundError


@runtime_checkable
class LibEITarget(Protocol):
    """Anything libei requests can be dispatched against.

    Both a single deployed :class:`~repro.core.openei.OpenEI` instance and
    a whole :class:`~repro.serving.fleet.EdgeFleet` implement this
    surface, which is what lets one dispatcher/server code path serve
    either — the gateway is just a :class:`LibEIServer` whose target
    happens to route.
    """

    def describe(self) -> Dict[str, object]:
        """Status summary for ``/ei_status``."""

    def call_algorithm(
        self, scenario: str, name: str, args: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        """Run ``/ei_algorithms/<scenario>/<name>``."""

    def call_algorithm_batch(
        self, scenario: str, name: str, args_list: Sequence[Optional[Dict[str, object]]]
    ) -> List[Dict[str, object]]:
        """Run one algorithm over many calls: one result per call, in call order."""

    def get_realtime_data(self, sensor_id: str) -> Dict[str, object]:
        """Serve ``/ei_data/realtime/<sensor_id>``."""

    def get_historical_data(
        self, sensor_id: str, start: float, end: Optional[float] = None
    ) -> Dict[str, object]:
        """Serve ``/ei_data/historical/<sensor_id>``."""


@dataclass
class ParsedRequest:
    """A parsed libei URL."""

    resource_type: str            # "ei_algorithms" | "ei_data" | "ei_status"
    scenario: Optional[str] = None
    algorithm: Optional[str] = None
    data_type: Optional[str] = None       # "realtime" | "historical"
    sensor_id: Optional[str] = None
    args: Dict[str, object] = field(default_factory=dict)


def _parse_args(segment: str, query: str) -> Dict[str, object]:
    """Parse the trailing argument segment plus any query string."""
    args: Dict[str, object] = {}
    segment = unquote(segment).strip()
    if segment:
        body = segment[1:-1] if segment.startswith("{") and segment.endswith("}") else segment
        if body:
            try:
                args.update(json.loads("{" + body + "}"))
            except json.JSONDecodeError:
                for part in body.split(","):
                    if not part:
                        continue
                    key, _, value = part.partition("=")
                    args[key.strip()] = _coerce(value.strip())
    for key, value in parse_qsl(query):
        args[key] = _coerce(value)
    return args


def _coerce(value: str) -> object:
    """Best-effort conversion of a string argument to int/float/bool."""
    lowered = value.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def parse_path(path: str) -> ParsedRequest:
    """Parse a libei URL path into a :class:`ParsedRequest`.

    Raises
    ------
    APIError
        If the path does not follow the Fig. 6 grammar.
    """
    parsed = urlparse(path)
    segments = [s for s in parsed.path.split("/") if s]
    if not segments:
        raise APIError("empty request path")
    resource = segments[0]
    if resource == "ei_status":
        return ParsedRequest(resource_type="ei_status", args=_parse_args("", parsed.query))
    if resource == "ei_algorithms":
        if len(segments) < 3:
            raise APIError(
                "algorithm calls follow /ei_algorithms/<scenario>/<algorithm>/{args}"
            )
        args_segment = segments[3] if len(segments) > 3 else ""
        return ParsedRequest(
            resource_type="ei_algorithms",
            scenario=segments[1],
            algorithm=segments[2],
            args=_parse_args(args_segment, parsed.query),
        )
    if resource == "ei_data":
        if len(segments) < 3:
            raise APIError("data calls follow /ei_data/<realtime|historical>/<sensor>/{args}")
        data_type = segments[1]
        if data_type not in ("realtime", "historical"):
            raise APIError(f"unknown data type {data_type!r}; use 'realtime' or 'historical'")
        args_segment = segments[3] if len(segments) > 3 else ""
        return ParsedRequest(
            resource_type="ei_data",
            data_type=data_type,
            sensor_id=segments[2],
            args=_parse_args(args_segment, parsed.query),
        )
    raise APIError(f"unknown resource type {resource!r}")


def _numeric_arg(args: Dict[str, object], key: str, default: Optional[float]) -> Optional[float]:
    """Read a numeric request argument, mapping bad values to a 400-class APIError."""
    value = args.get(key, default)
    if value is None:
        # an explicit JSON null means "not provided", same as an absent key
        return default
    try:
        number = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        # nan / inf / 1e999 parse as floats but json.dumps would echo them
        # as bare NaN / Infinity, which is not JSON
        raise APIError(
            f"argument {key!r} must be a finite number, got {value!r} "
            f"(e.g. /ei_data/historical/<sensor>/?start=0&end=10)"
        )
    return number


def encode_body(body: Dict[str, object]) -> bytes:
    """A libei response body as sent: ``json.dumps(body).encode()``, byte for byte.

    Every body is one ``json.dumps`` except a data body (``/ei_data``):
    each :class:`~repro.data.sensors.PayloadList` in it is spliced in as
    its reading's :meth:`~repro.data.sensors.SensorReading.payload_json`,
    so a reading served again and again has its floats encoded twice in
    all, and one served once keeps no text.
    """
    if isinstance(body.get("data"), dict):
        return _splice(body).encode("utf-8")
    return json.dumps(body).encode("utf-8")


def _splice(value: object) -> str:
    """``json.dumps(value)``, reusing each payload's cached text."""
    if isinstance(value, PayloadList):
        return value.reading.payload_json(value)
    if type(value) is dict and all(type(key) is str for key in value):
        return "{" + ", ".join(
            f"{json.dumps(key)}: {_splice(item)}" for key, item in value.items()
        ) + "}"
    if type(value) is list and any(isinstance(item, PayloadList) for item in value):
        return "[" + ", ".join(map(_splice, value)) + "]"
    return json.dumps(value)


class LibEIDispatcher:
    """Dispatch parsed requests against any :class:`LibEITarget`.

    The dispatcher is target-agnostic: a single OpenEI instance and an
    :class:`~repro.serving.fleet.EdgeFleet` share this exact handler path,
    so URL grammar, error mapping and response shapes cannot drift between
    single-device servers and the fleet gateway.
    """

    def __init__(self, target: LibEITarget) -> None:
        self.target = target

    def handle_path(self, path: str) -> Dict[str, object]:
        """Parse and dispatch a URL path, returning a JSON-serializable response."""
        return self.handle(parse_path(path))

    def handle(self, request: ParsedRequest) -> Dict[str, object]:
        """Dispatch a parsed request."""
        if request.resource_type == "ei_status":
            return {"status": "ok", "openei": self.target.describe()}
        if request.resource_type == "ei_algorithms":
            assert request.scenario is not None and request.algorithm is not None
            result = self.target.call_algorithm(request.scenario, request.algorithm, request.args)
            return {"status": "ok", "scenario": request.scenario, "algorithm": request.algorithm,
                    "result": result}
        if request.resource_type == "ei_data":
            assert request.sensor_id is not None
            if request.data_type == "realtime":
                data = self.target.get_realtime_data(request.sensor_id)
            else:
                start = _numeric_arg(request.args, "start", default=0.0)
                end = _numeric_arg(request.args, "end", default=None)
                data = self.target.get_historical_data(request.sensor_id, start, end)
            return {"status": "ok", "data": data}
        raise APIError(f"unhandled resource type {request.resource_type!r}")

    def safe_handle_path(self, path: str) -> tuple:
        """Like :meth:`handle_path` but returning ``(http_status, body_dict)``."""
        try:
            return 200, self.handle_path(path)
        except ResourceNotFoundError as exc:
            return 404, {"status": "error", "error": str(exc)}
        except APIError as exc:
            return 400, {"status": "error", "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - the server must not crash on handler bugs
            return 500, {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
