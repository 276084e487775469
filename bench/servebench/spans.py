"""In-memory spans for the traced pass, and the arithmetic over them.

A span is ``(sid, name, rid, parent, start_ns, end_ns)``.  Spans of one
request share ``rid`` — the ``seq`` argument that already travels
client → URL → ``ParsedRequest.args`` — so the generator's ``client.get``
span and the server subprocess's spans of the same request join after
the run without the two processes sharing a clock: only durations are
ever compared.  Nothing is written anywhere until the pass has ended.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from servebench.stats import percentile

#: ``(sid, name, rid, parent, start_ns, end_ns)``
Row = Tuple[int, str, Optional[str], Optional[int], int, int]


class Span:
    """One open or finished span; its own context manager."""

    __slots__ = ("recorder", "sid", "name", "rid", "parent", "start_ns", "end_ns")

    def __init__(self, recorder: "SpanRecorder", name: str, rid: Optional[str]) -> None:
        self.recorder = recorder
        self.sid = next(recorder._ids)
        self.name = name
        self.rid = rid
        self.parent: Optional[int] = None
        self.start_ns = 0
        self.end_ns = 0

    def __enter__(self) -> "Span":
        stack = self.recorder._stack()
        if stack:
            self.parent = stack[-1].sid
        stack.append(self)
        self.start_ns = self.recorder.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end_ns = self.recorder.clock()
        self.recorder._stack().pop()
        # kept as a flat tuple of ints and strings, which the cyclic GC stops
        # tracking: tens of thousands of live Span objects would make every
        # collection in the traced process slower as the pass goes on.
        # list.append is atomic under the GIL: handler threads share the list
        self.recorder.finished.append(
            (self.sid, self.name, self.rid, self.parent, self.start_ns, self.end_ns))


class SpanRecorder:
    """Collects spans from any number of threads; parents are per thread."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.finished: List[Row] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, rid: Optional[str] = None) -> Span:
        return Span(self, name, rid)

    def set_rid(self, rid: str) -> None:
        """Name the request the calling thread's outermost open span serves."""
        stack = self._stack()
        if stack:
            stack[0].rid = rid

    def rows(self) -> List[Row]:
        return list(self.finished)


def resolve_rids(rows: Sequence[Row]) -> List[Row]:
    """Give every span the request id of its nearest ancestor that has one."""
    by_sid = {row[0]: row for row in rows}
    resolved: Dict[int, Optional[str]] = {}

    def rid_of(sid: int) -> Optional[str]:
        if sid not in resolved:
            _, _, rid, parent, _, _ = by_sid[sid]
            if rid is None and parent is not None and parent in by_sid:
                rid = rid_of(parent)
            resolved[sid] = rid
        return resolved[sid]

    return [(sid, name, rid_of(sid), parent, start, end)
            for sid, name, _, parent, start, end in rows]


def graft(client_rows: Sequence[Row], server_rows: Sequence[Row]) -> List[Row]:
    """Hang the server's spans under the client span of the same request.

    Server span ids are shifted past the client's so the two recorders'
    counters cannot collide.  A server root whose request id no client
    span carries (warm-up traffic, background control-plane work) keeps
    ``parent=None`` and stays out of every per-request sum.
    """
    server_rows = resolve_rids(server_rows)
    offset = 1 + max((row[0] for row in client_rows), default=-1)
    root_of = {rid: sid for sid, _, rid, parent, _, _ in client_rows
               if parent is None and rid is not None}
    merged = list(client_rows)
    for sid, name, rid, parent, start, end in server_rows:
        if parent is not None:
            parent += offset
        elif rid in root_of:
            parent = root_of[rid]
        merged.append((sid + offset, name, rid, parent, start, end))
    return merged


def self_times(rows: Sequence[Row]) -> Dict[int, int]:
    """Each span's duration minus the part its direct children cover."""
    own = {sid: end - start for sid, _, _, _, start, end in rows}
    for _, _, _, parent, start, end in rows:
        if parent is not None and parent in own:
            own[parent] -= end - start
    return own


class LayerRow:
    """One line of the stage table: a layer's per-request self time."""

    __slots__ = ("name", "count", "p50_ms", "p95_ms", "total_ms", "share")

    def __init__(self, name: str, samples_ns: Sequence[int], root_total_ns: int) -> None:
        self.name = name
        self.count = len(samples_ns)
        self.p50_ms = percentile(samples_ns, 50.0) / 1e6
        self.p95_ms = percentile(samples_ns, 95.0) / 1e6
        self.total_ms = sum(samples_ns) / 1e6
        self.share = sum(samples_ns) / root_total_ns if root_total_ns else 0.0


class StageTable:
    """Per-request self times grouped by layer (= span name).

    ``layers`` holds one sample per request *that entered the layer* (a
    request's spans of one name are summed), so a layer only some
    requests reach — one scenario's handler, a WAL append on every
    eighth observation — reports what it costs when it runs, and
    ``expected_ms`` weights that by how often it runs.  Spans that belong
    to no request at all (the control plane's timer ticks) are in
    ``background``; spans of a request no root span carries (warm-up
    traffic) are dropped.
    """

    def __init__(self, rows: Sequence[Row], root_name: str) -> None:
        rows = resolve_rids(rows)
        own = self_times(rows)
        by_sid = {row[0]: row for row in rows}

        def root_of(sid: int) -> Optional[int]:
            while True:
                parent = by_sid[sid][3]
                if parent is None or parent not in by_sid:
                    return sid if by_sid[sid][1] == root_name else None
                sid = parent

        per_request: Dict[str, Dict[int, int]] = {}
        background: Dict[str, List[int]] = {}
        self.root_ns: List[int] = []
        for sid, name, rid, parent, start, end in rows:
            root = root_of(sid)
            if root is None:
                if rid is None:  # else: a request no root span carries (warm-up)
                    background.setdefault(name, []).append(end - start)
                continue
            if sid == root:
                self.root_ns.append(end - start)
            bucket = per_request.setdefault(name, {})
            bucket[root] = bucket.get(root, 0) + own[sid]
        self.root_name = root_name
        self.requests = len(self.root_ns)
        root_total = sum(self.root_ns)
        self.layers: Dict[str, LayerRow] = {
            name: LayerRow(name, list(bucket.values()), root_total)
            for name, bucket in per_request.items()
        }
        self.background: Dict[str, List[int]] = background

    @property
    def root_p50_ms(self) -> float:
        return percentile(self.root_ns, 50.0) / 1e6 if self.root_ns else 0.0

    def p50_ms(self, layer: str) -> float:
        row = self.layers.get(layer)
        return row.p50_ms if row is not None else 0.0

    def count(self, layer: str) -> int:
        row = self.layers.get(layer)
        return row.count if row is not None else 0

    def share(self, layer: str) -> float:
        row = self.layers.get(layer)
        return row.share if row is not None else 0.0

    def expected_ms(self) -> float:
        """Σ over layers of p50 self time × the share of requests entering it."""
        if not self.requests:
            return 0.0
        return sum(r.p50_ms * r.count / self.requests for r in self.layers.values())

    def sum_ratio(self) -> float:
        """``expected_ms`` over the root span's p50: 1.0 when the rows add up."""
        root = self.root_p50_ms
        return self.expected_ms() / root if root else 0.0

    def render(self, rename: Optional[Dict[str, str]] = None) -> List[str]:
        """The printed table: one row per layer, then the sum against the root."""
        rename = rename or {}
        lines = [f"{'layer':<28s} {'count':>7s} {'self p50 ms':>12s} "
                 f"{'self p95 ms':>12s} {'share':>7s}"]
        for row in sorted(self.layers.values(), key=lambda r: -r.total_ms):
            lines.append(
                f"{rename.get(row.name, row.name):<28s} {row.count:>7d} "
                f"{row.p50_ms:>12.4f} {row.p95_ms:>12.4f} {row.share:>7.3f}"
            )
        lines.append(
            f"{'sum of rows (p50 x reach)':<28s} {self.requests:>7d} "
            f"{self.expected_ms():>12.4f} {'':>12s} "
            f"{sum(r.share for r in self.layers.values()):>7.3f}"
        )
        lines.append(
            f"{self.root_name + ' p50':<28s} {self.requests:>7d} "
            f"{self.root_p50_ms:>12.4f} {'':>12s} {'ratio':>7s} {self.sum_ratio():.3f}"
        )
        for name, samples in sorted(self.background.items()):
            lines.append(
                f"{'(background) ' + name:<28s} {len(samples):>7d} "
                f"{percentile(samples, 50.0) / 1e6:>12.4f} "
                f"{percentile(samples, 95.0) / 1e6:>12.4f}"
            )
        return lines
