"""Benchmark-owned subclasses that time each layer from outside.

The traced pass composes the system from these through the public
composition points — ``LibEIServer(target=<LibEIDispatcher subclass>)``,
``EdgeFleet(router=..., telemetry=...)``, ``fleet.add_instance(<OpenEI
subclass>)``, a ``ControlPlaneJournal`` subclass — so every layer
boundary gets a span without ``src/`` being edited or patched.  The
measured pass uses none of this: end-to-end numbers come from the system
exactly as shipped.

Span names are the stage table's layer names; a span's *self* time is
what the layer itself spent (see :mod:`servebench.spans`).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.core.openei import OpenEI
from repro.core.wal import ControlPlaneJournal
from repro.serving import ALEMTelemetry, EdgeFleet, LibEIDispatcher, RoundRobinRouter
from repro.serving.api import ParsedRequest, parse_path

from servebench.spans import SpanRecorder
from servebench.workloads import CLASSIFY, request_id


class TracedDispatcher(LibEIDispatcher):
    """``api``: parse + dispatch spans, and the response-encode estimate."""

    def __init__(self, target, recorder: SpanRecorder) -> None:
        super().__init__(target)
        self.recorder = recorder
        self.body_bytes: List[int] = []

    def handle_path(self, path: str) -> Dict[str, object]:
        # the same two public calls the parent makes, with a span between them
        with self.recorder.span("api.parse"):
            request = parse_path(path)
        self.recorder.set_rid(
            request_id(request.scenario or request.data_type, request.args.get("seq"))
        )
        return self.handle(request)

    def safe_handle_path(self, path: str) -> tuple:
        with self.recorder.span("api.dispatch") as root:
            status, body = super().safe_handle_path(path)
        # the HTTP handler encodes the body after this returns, where no
        # wrapper can reach; encoding it once more here estimates that cost
        # (and is itself tracing overhead, so it gets its own row)
        with self.recorder.span("trace.encode_est", rid=root.rid):
            payload = json.dumps(body).encode("utf-8")
        self.body_bytes.append(len(payload))
        return status, body


class TracedRouter(RoundRobinRouter):
    """``router``: one span per routing decision."""

    def __init__(self, recorder: SpanRecorder) -> None:
        super().__init__()
        self.recorder = recorder

    def choose(self, instances: Sequence, request: Optional[ParsedRequest] = None):
        with self.recorder.span("router.choose"):
            return super().choose(instances, request)


class TracedFleet(EdgeFleet):
    """``fleet``: a span around each ``LibEITarget`` entry point."""

    def __init__(self, recorder: SpanRecorder, **kwargs) -> None:
        super().__init__(**kwargs)
        self.recorder = recorder

    def call_algorithm(self, scenario, name, args=None):
        with self.recorder.span("fleet"):
            return super().call_algorithm(scenario, name, args)

    def call_algorithm_batch(self, scenario, name, args_list):
        with self.recorder.span("fleet"):
            return super().call_algorithm_batch(scenario, name, args_list)

    def get_realtime_data(self, sensor_id):
        with self.recorder.span("fleet"):
            return super().get_realtime_data(sensor_id)

    def get_historical_data(self, sensor_id, start, end=None):
        with self.recorder.span("fleet"):
            return super().get_historical_data(sensor_id, start, end)


class TracedOpenEI(OpenEI):
    """``apps`` and ``data``: spans around handler calls and data reads.

    Also keeps each stock handler's *emulated* latency
    (``observed_alem.latency_s`` = nominal × ``runtime.slowdown``) so it
    can be reported in its own column, never mixed with host wall time.
    """

    def __init__(self, recorder: SpanRecorder, emulated: Dict[str, List[float]], **kwargs) -> None:
        super().__init__(**kwargs)
        self.recorder = recorder
        self.emulated = emulated

    def _keep_emulated(self, scenario: str, result: Dict[str, object]) -> None:
        observed = result.get("observed_alem")
        if isinstance(observed, dict) and "latency_s" in observed:
            self.emulated.setdefault(scenario, []).append(float(observed["latency_s"]))

    def call_algorithm(self, scenario, name, args=None):
        managed = (scenario, name) == CLASSIFY
        with self.recorder.span("rollout.handler" if managed else f"apps.{scenario}"):
            result = super().call_algorithm(scenario, name, args)
        if not managed:
            self._keep_emulated(scenario, result)
        return result

    def call_algorithm_batch(self, scenario, name, args_list):
        with self.recorder.span(f"apps.{scenario}_batch{len(args_list)}"):
            results = super().call_algorithm_batch(scenario, name, args_list)
        for result in results:
            self._keep_emulated(scenario, result)
        return results

    def get_realtime_data(self, sensor_id):
        with self.recorder.span("data.realtime"):
            return super().get_realtime_data(sensor_id)

    def get_historical_data(self, sensor_id, start, end=None):
        with self.recorder.span("data.historical"):
            return super().get_historical_data(sensor_id, start, end)


class TracedTelemetry(ALEMTelemetry):
    """``telemetry``: one span per recorded observation."""

    def __init__(self, recorder: SpanRecorder, **kwargs) -> None:
        super().__init__(**kwargs)
        self.recorder = recorder

    def record(self, scenario, algorithm, replica, **axes):
        with self.recorder.span("telemetry.record"):
            super().record(scenario, algorithm, replica, **axes)


class TracedJournal(ControlPlaneJournal):
    """``wal``: one span per journal append, on whichever thread makes it."""

    def __init__(self, recorder: SpanRecorder, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.recorder = recorder

    def append(self, event_type, **fields):
        with self.recorder.span("wal.append"):
            return super().append(event_type, **fields)
