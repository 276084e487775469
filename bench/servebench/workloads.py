"""The five named workloads: what each sends, and why it exists.

Every workload is a pure function of ``--seed``: the system under test
only ever sees the generated requests.  The default seed's traffic is
*pinned* — :data:`PINS` holds the digest of each workload's request plan
and :func:`check_pin` compares before any timing — so an edit to
``repro.loadgen.trace`` or to a sensor that changes what is sent fails
loudly instead of quietly shifting the numbers.  Another seed skips the
pin and reports its own digest.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.data.sensors import CameraSensor, SensorReading
from repro.data.workloads import SCENARIO_ALGORITHMS
from repro.loadgen import poisson_trace

DEFAULT_SEED = 20190707

#: The fleet every workload serves from (the shipped example fleet).
DEVICES = ["raspberry-pi-4", "jetson-tx2", "raspberry-pi-4", "jetson-tx2"]

#: Sender threads / connections of the one generator process.  Two is this
#: box's ``nproc``; it is not raised on a bigger host, because the client
#: count is part of what the closed-loop workloads *are*.
SENDERS = min(2, os.cpu_count() or 1)

#: The four stock ``/ei_algorithms/<scenario>/<algorithm>`` calls.
STOCK: Tuple[Tuple[str, str], ...] = tuple(SCENARIO_ALGORITHMS.items())
#: The rollout-managed algorithm of ``managed_closed``.
CLASSIFY = ("safety", "classify")

OPEN_RPS = 200.0
#: ``mixed_open`` always generates (and pins) this much trace and replays
#: its beginning, so one pin covers every run length up to a minute.
TRACE_HORIZON_S = 75.0
BATCH = 32
#: Length of the seeded choice arrays the closed loops cycle through.
PLAN_LEN = 4096

CAM_ID = "bench-cam"
CAM_SEED = 3
CAM_FRAMES = 512
WINDOW_FRAMES = 8

#: Warm-up request ids start here so they can never collide with a timed one.
WARMUP_BASE = 10**9


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str       # "open" | "closed" | "inproc"
    why: str         # one line, copied into BENCHMARK.json
    warmup: int      # untimed operations before the clock starts
    managed: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "mixed_open", "open",
            "open-loop Poisson 200 rps over HTTP, four-scenario mix: transport is "
            "~75% of a request, so connection/handler-pool work and a tracing tax show here",
            warmup=200,
        ),
        Workload(
            "mixed_closed", "closed",
            "closed loop, 2 clients, same mix over HTTP: capacity of the single-GIL "
            "server process, moved by anything that removes server CPU per request",
            warmup=200,
        ),
        Workload(
            "batch_inproc", "inproc",
            "in-process call_algorithm_batch of 32, no HTTP: handlers and nn/engine do "
            "all the work, so a transport change must predict no change here",
            warmup=8,
        ),
        Workload(
            "data_read", "closed",
            "closed loop, 2 clients, 4 realtime (24 KB) + 1 historical (190 KB) reads: "
            "the data-sharing half, where bytes and JSON encode dominate, not round trips",
            warmup=40,
        ),
        Workload(
            "managed_closed", "closed",
            "closed loop with telemetry journaled to an on-disk WAL, both controllers "
            "ticking and a canary promoted mid-run: reads beside control-plane writes",
            warmup=200, managed=True,
        ),
    )
}


class Request(NamedTuple):
    """One generated operation and what its response must look like."""

    path: str
    rid: str                 # joins the client span to the server's spans
    kind: str                # "algorithm" | "realtime" | "historical"
    scenario: str = ""
    algorithm: str = ""
    window: int = -1         # first frame of a historical window


def request_id(group: Optional[str], seq: object) -> str:
    """The span-joining id both sides derive: URL group (scenario or data type) + seq."""
    return f"{group}:{seq}"


def camera_readings() -> List[SensorReading]:
    """The recorded series behind ``data_read``.

    The server ``record()``s exactly these on replica 0 and the
    generator rebuilds them to compare every response body against.
    """
    sensor = CameraSensor(sensor_id=CAM_ID, seed=CAM_SEED)
    return [sensor.read() for _ in range(CAM_FRAMES)]


class MixPlan:
    """Closed-loop algorithm traffic: the uniform four-scenario mix.

    Sender ``s`` sends operation ``k`` with ``seq = k * senders + s``;
    which stock call it is comes from a seeded choice array that the
    sequence cycles through.  With ``classify_every=5`` every fifth
    operation of a sender goes to ``safety/classify`` instead
    (``managed_closed``).
    """

    def __init__(self, seed: int, senders: int = SENDERS, classify_every: int = 0,
                 base: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self.choices = rng.integers(0, len(STOCK), size=PLAN_LEN)
        self.senders = senders
        self.classify_every = classify_every
        self.base = base
        self._prefix = [f"/ei_algorithms/{s}/{a}/?seq=" for s, a in STOCK]
        self._classify_prefix = f"/ei_algorithms/{CLASSIFY[0]}/{CLASSIFY[1]}/?seq="

    def digest(self) -> str:
        h = hashlib.sha256(self.choices.astype("<i8").tobytes())
        h.update(f"|{self.senders}|{self.classify_every}".encode())
        return h.hexdigest()

    def request(self, sender: int, k: int) -> Request:
        seq = self.base + k * self.senders + sender
        if self.classify_every and k % self.classify_every == self.classify_every - 1:
            scenario, algorithm = CLASSIFY
            path = self._classify_prefix + str(seq)
        else:
            index = int(self.choices[seq % PLAN_LEN])
            scenario, algorithm = STOCK[index]
            path = self._prefix[index] + str(seq)
        return Request(path, request_id(scenario, seq), "algorithm", scenario, algorithm)


class DataPlan:
    """``data_read``: per sender, 4 realtime reads then 1 historical window."""

    CYCLE = 5

    def __init__(self, seed: int, senders: int = SENDERS, base: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self.windows = rng.integers(0, CAM_FRAMES - WINDOW_FRAMES + 1, size=PLAN_LEN)
        self.senders = senders
        self.base = base
        self.readings = camera_readings()
        self.payloads = [r.payload.tolist() for r in self.readings]
        self.timestamps = [r.timestamp for r in self.readings]
        self._realtime = f"/ei_data/realtime/{CAM_ID}/?seq="

    def digest(self) -> str:
        h = hashlib.sha256(self.windows.astype("<i8").tobytes())
        h.update(f"|{self.senders}|".encode())
        for reading in self.readings:
            h.update(repr(reading.timestamp).encode())
            h.update(np.ascontiguousarray(reading.payload).tobytes())
        return h.hexdigest()

    def request(self, sender: int, k: int) -> Request:
        seq = self.base + k * self.senders + sender
        if k % self.CYCLE != self.CYCLE - 1:
            return Request(self._realtime + str(seq), request_id("realtime", seq), "realtime")
        first = int(self.windows[seq % PLAN_LEN])
        start = self.timestamps[first]
        end = self.timestamps[first + WINDOW_FRAMES - 1]
        path = f"/ei_data/historical/{CAM_ID}/?start={start!r}&end={end!r}&seq={seq}"
        return Request(path, request_id("historical", seq), "historical", window=first)


class BatchPlan:
    """``batch_inproc``: batches of 32, each cycle of four visiting every scenario.

    The seed decides the order within each cycle, never how often a
    scenario runs, so the work per cycle is the same on every seed.
    """

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.orders = np.stack([rng.permutation(len(STOCK)) for _ in range(PLAN_LEN // 4)])

    def digest(self) -> str:
        h = hashlib.sha256(self.orders.astype("<i8").tobytes())
        h.update(f"|{BATCH}".encode())
        return h.hexdigest()

    def batch(self, b: int) -> Tuple[str, str, List[Dict[str, object]]]:
        cycle, slot = divmod(b, len(STOCK))
        scenario, algorithm = STOCK[int(self.orders[cycle % len(self.orders)][slot])]
        return scenario, algorithm, [{"seq": b * BATCH + j} for j in range(BATCH)]


class OpenPlan:
    """``mixed_open``: ``repro.loadgen.poisson_trace`` at 200 rps, timed from arrival.

    The pinned trace is always generated over the full horizon; a run
    replays its first ``rate × seconds`` arrivals, with the interval
    before the next arrival rescaled to ``--seconds``.  Given where
    arrival ``n + 1`` falls, the ``n`` before it are uniform order
    statistics on that interval, so this is the Poisson process
    *conditioned on its count*: the arrival pattern stays Poisson while
    every seed offers exactly the same load — a seed changes how requests
    bunch up and which scenario each one calls, never how many there are.
    """

    def __init__(self, seed: int, seconds: float) -> None:
        trace = poisson_trace(TRACE_HORIZON_S, OPEN_RPS, seed=seed)
        self.fingerprint = trace.fingerprint()
        count = int(round(OPEN_RPS * seconds))
        if not 0 < count < len(trace.requests):
            raise ValueError(
                f"{seconds} s at {OPEN_RPS} rps needs {count} arrivals; the "
                f"{TRACE_HORIZON_S} s trace holds {len(trace.requests)}")
        scale = seconds / trace.requests[count].at_s
        self.schedule: List[Tuple[float, Request]] = [
            (r.at_s * scale, Request(r.path, request_id(r.scenario, r.args["seq"]),
                                     "algorithm", r.scenario, r.algorithm))
            for r in trace.requests[:count]
        ]

    def digest(self) -> str:
        return self.fingerprint


#: Digests of the default seed's request plans (see the module docstring).
PINS: Dict[str, str] = {
    "mixed_open": "2094ec3277867fd3a4c1d95a464d61b520d389b29177fac2083f0e04d7443b2f",
    "mixed_closed": "e038cefdcc1ad959bbf673461c023b31fa75a56ecde5926f0a519de9547af760",
    "batch_inproc": "bece0ff4c0b311fd09a0eb9fdd60f55d96cd2c86fcf121e1e3f2b976ee5ede8d",
    "data_read": "5e996ed0cd92b86f9f7f5ec18d8815390b94fc7c928c61c60eca0036c3a167f8",
    "managed_closed": "e1c6da979b2deb48bdcac027d86737d44fa8fc038d35bed6981873c926744494",
}


def build_plan(workload: Workload, seed: int, seconds: float):
    if workload.shape == "open":
        return OpenPlan(seed, seconds)
    if workload.shape == "inproc":
        return BatchPlan(seed)
    if workload.name == "data_read":
        return DataPlan(seed)
    return MixPlan(seed, classify_every=5 if workload.managed else 0)


def warmup_plan(workload: Workload, seed: int):
    """Untimed traffic of the workload's own shape, under ids no timed request uses."""
    if workload.name == "data_read":
        return DataPlan(seed, base=WARMUP_BASE)
    return MixPlan(seed, classify_every=5 if workload.managed else 0, base=WARMUP_BASE)


def check_pin(workload: Workload, seed: int, digest: str, pins: Optional[Dict[str, str]] = None) -> str:
    """``"pinned"`` when the default seed's traffic matches its pin; raises when it drifted."""
    if seed != DEFAULT_SEED:
        return "unpinned-seed"
    expected = (PINS if pins is None else pins)[workload.name]
    if digest != expected:
        raise AssertionError(
            f"{workload.name}: the default-seed traffic changed — digest {digest} "
            f"is not the pinned {expected}.  Something upstream of the benchmark "
            "(repro.loadgen.trace, a sensor, numpy's generator) now produces "
            "different requests; numbers before and after are not comparable."
        )
    return "pinned"
