"""One benchmark pass: set up, verify, warm up, time, reduce.

A *measured* pass runs the system as shipped — no benchmark wrapper is
anywhere in the request path — and reduces what the generator saw to the
six end-to-end metrics.  A *traced* pass first takes a short untraced
baseline, then serves the same traffic from the traced composition and
reduces the joined spans to the per-layer metrics.  The difference
between the two is reported as ``trace.overhead_ratio``.
"""

from __future__ import annotations

import shutil
import socket
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.apps import ActivityRecognizer
from repro.serving import LibEIClient

from servebench import validate
from servebench.loadgen import BENCH_DIR, Samples, ServerProcess, run_closed, run_open
from servebench.server import peak_rss_mb
from servebench.spans import SpanRecorder, StageTable, graft
from servebench.stack import build_fleet
from servebench.stats import (
    QUIET_QUARTILE,
    median,
    percentile,
    percentile_or_zero,
    windowed_percentile,
    windowed_rate,
)
from servebench.workloads import (
    BATCH,
    CAM_FRAMES,
    CAM_ID,
    SENDERS,
    STOCK,
    WINDOW_FRAMES,
    BatchPlan,
    DataPlan,
    Request,
    Workload,
    build_plan,
    check_pin,
    warmup_plan,
)

#: Set-ups per measured pass; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Share of a traced pass spent on the untraced baseline.
BASELINE_SHARE = 0.25
#: The managed workload stages its canary this far into the timed run.
CANARY_AT = 0.3
#: Scratch space for WAL/blob stores; inside the checkout, ignored by git, removed after.
WORK_ROOT = BENCH_DIR / ".work"

#: What one :func:`reference_kernel` call costs on this box when no neighbour is
#: slowing it: between two batches (caches cold) and back to back (warm).  The
#: constants only fix the unit ``batch_inproc`` reports in, so that normalised
#: and as-measured numbers agree on a quiet host; on another host every
#: normalised number shifts by one constant factor.
REFERENCE_KERNEL_S = 75e-6
REFERENCE_KERNEL_WARM_S = 60e-6
_KERNEL_MATRIX = np.random.default_rng(0).normal(size=(24, 24))

Metric = Tuple[float, str]


class PassFailed(RuntimeError):
    """A correctness check failed before timing; nothing was measured."""


def make_checker(plan, instance_ids) -> Callable[[Request, object], Optional[str]]:
    ids = frozenset(instance_ids)
    if isinstance(plan, DataPlan):
        newest = CAM_FRAMES - 1

        def check_data(request: Request, body: object) -> Optional[str]:
            if request.kind == "realtime":
                return validate.check_realtime_body(
                    body, CAM_ID, plan.timestamps[newest], plan.payloads[newest])
            first, last = request.window, request.window + WINDOW_FRAMES
            return validate.check_historical_body(
                body, CAM_ID, plan.timestamps[first:last], plan.payloads[first:last])

        return check_data

    def check_algorithm(request: Request, body: object) -> Optional[str]:
        return validate.check_algorithm_body(body, request.scenario, request.algorithm, ids)

    return check_algorithm


def _warm_up(address, warm, check, count: int) -> None:
    """``count`` untimed operations, each validated: the correctness gate before timing."""
    client = LibEIClient(address)
    for k in range(count):
        request = warm.request(k % SENDERS, k // SENDERS)
        reason = check(request, client.get(request.path))
        if reason is not None:
            raise PassFailed(f"before timing, {request.path}: {reason}")


def _response_header_bytes(address, path: str) -> int:
    """Bytes of HTTP status line + headers the server puts before a body."""
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(f"GET {path} HTTP/1.0\r\nHost: {address[0]}\r\n\r\n".encode("ascii"))
        received = b""
        while b"\r\n\r\n" not in received:
            chunk = sock.recv(65536)
            if not chunk:
                raise PassFailed("the server closed the connection before sending headers")
            received += chunk
        while sock.recv(65536):
            pass
    return received.index(b"\r\n\r\n") + 4


def _timed_run(workload: Workload, plan, warm, server: ServerProcess, seconds: float,
               recorder: Optional[SpanRecorder], result: "PassResult") -> Tuple[Samples, float, float]:
    """Warm up a ready server, time the workload against it, fold the outcome into ``result``.

    Returns the samples, the elapsed seconds, and the server's peak RSS
    as it stood after warm-up, before the first timed request.
    """
    check = make_checker(plan, server.instance_ids)
    _warm_up(server.address, warm, check, workload.warmup)
    rss_mb = float(server.ask("rss")["rss_mb"])
    if workload.shape == "open":
        samples, elapsed = run_open(server.address, plan.schedule, check, SENDERS, recorder)
    else:
        midway = None
        if workload.managed:
            midway = (CANARY_AT * seconds, lambda: server.command("canary"))
        samples, elapsed = run_closed(
            server.address, plan.request, check, seconds, SENDERS, recorder, midway)
    result.count(samples)
    if workload.managed:
        problem = _managed_verdict(server)
        if problem is not None:
            result.fail(problem)
    return samples, elapsed, rss_mb


def _managed_verdict(server: ServerProcess) -> Optional[str]:
    """After the run: exactly one promote, both controllers visible in ``/ei_status``."""
    status = LibEIClient(server.address).status()["openei"]
    if status.get("adaptive") is None or status.get("rollout") is None:
        return "/ei_status does not show both controllers"
    promotions = status["rollout"]["promotions"]
    if promotions != 1:
        return f"the run ended with {promotions} promotions, not exactly 1"
    versions = {e["version"] for entries in status["rollout"]["serving"].values() for e in entries}
    if len(versions) != 1:
        return f"after the promote the fleet serves {sorted(versions)}"
    return None


def _end_to_end(workload: Workload, samples: Samples, elapsed: float, seconds: float,
                setups: List[float], rss_mb: float) -> Dict[str, Metric]:
    """The six end-to-end metrics, latencies and rates reduced window by window.

    Over HTTP the quiet-quartile window speaks for the run (see
    ``stats``); in-process the median window does, because that run is
    normalised by its reference kernel instead and picking its fastest
    windows as well would correct for the host twice.
    """
    slow, fast = (50.0, 50.0) if workload.shape == "inproc" else (QUIET_QUARTILE, 100.0 - QUIET_QUARTILE)
    stamps, latencies = samples.stamp_s, samples.latency_s
    p50 = windowed_percentile(stamps, latencies, 50.0, span_s=seconds, across=slow)
    p95 = windowed_percentile(stamps, latencies, 95.0, span_s=seconds, across=slow)
    responses = items = None
    if workload.shape != "open":
        # an open loop completes what the schedule offers, so its rate is the
        # whole run's; a closed loop's rate is the system's, window by window
        responses = windowed_rate(samples.done_s, [1] * samples.succeeded, seconds, across=fast)
        items = windowed_rate(samples.done_s, samples.items, seconds, across=fast)
    if p50 is None or p95 is None:  # a run too short for one whole window
        p50, p95 = percentile(samples.latency_s, 50.0), percentile(samples.latency_s, 95.0)
    if responses is None:
        responses, items = samples.succeeded / elapsed, sum(samples.items) / elapsed
    return {
        "setup_s": (median(setups), "s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_p95w_ms": (p95 * 1e3, "ms"),
        "throughput_rps": (responses, "1/s"),
        "items_per_s": (items, "1/s"),
        "server_rss_mb": (rss_mb, "MB"),
    }


class PassResult:
    """What a pass hands back: the contract's four fields plus notes for the report."""

    def __init__(self, workload: Workload, seed: int, seconds: float, traced: bool) -> None:
        self.workload = workload.name
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, Metric] = {}
        self.notes: Dict[str, object] = {}
        self.table: Optional[StageTable] = None

    def fail(self, reason: str) -> None:
        self.correct = False
        self.notes.setdefault("problems", []).append(reason)

    def count(self, samples: Samples) -> None:
        self.attempted += samples.attempted
        self.failed += samples.failed
        if samples.failed:
            self.fail(f"{samples.failed} failed operations, e.g. {samples.errors}")

    def contract(self) -> Dict[str, object]:
        return {
            "correct": self.correct,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }


def _workdir(root: Path, workload: Workload, label: str) -> Optional[Path]:
    if not workload.managed:
        return None
    path = root / label
    path.mkdir()
    return path


@contextmanager
def _scratch() -> Iterator[Path]:
    """A temp dir under ``bench/.work`` that takes ``.work`` with it when it was the last."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="pass-", dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another pass is still using it


# -- HTTP workloads ------------------------------------------------------------

def _pinned_plan(workload: Workload, seed: int, seconds: float, result: "PassResult"):
    """The workload's request plan, its default-seed pin asserted and noted."""
    plan = build_plan(workload, seed, seconds)
    result.notes["traffic"] = {"digest": plan.digest(),
                               "pin": check_pin(workload, seed, plan.digest())}
    return plan


def measured_http(workload: Workload, seed: int, seconds: float) -> PassResult:
    result = PassResult(workload, seed, seconds, traced=False)
    plan = _pinned_plan(workload, seed, seconds, result)
    warm = warmup_plan(workload, seed)
    setups: List[float] = []
    with _scratch() as scratch:
        for attempt in range(SETUP_REPEATS):
            workdir = _workdir(scratch, workload, f"life-{attempt}")
            with ServerProcess(workload.name, traced=False, workdir=workdir) as server:
                server.wait_ready()
                # the first validated 200 OK ends set-up
                _warm_up(server.address, warm, make_checker(plan, server.instance_ids), 1)
                setups.append(time.perf_counter() - server.spawned_at)
                if attempt == SETUP_REPEATS - 1:
                    samples, elapsed, rss_mb = _timed_run(
                        workload, plan, warm, server, seconds, None, result)
                report = server.stop()
    result.metrics = _end_to_end(workload, samples, elapsed, seconds, setups, rss_mb)
    result.notes["rss_end_mb"] = report["rss_end_mb"]
    result.notes["setups_s"] = setups
    result.notes["succeeded"] = samples.succeeded
    if workload.shape == "open":
        result.notes["sent"] = len(plan.schedule)
        result.notes["generator_lag_ms_p99"] = percentile(samples.lag_s, 99.0) * 1e3
    return result


def traced_http(workload: Workload, seed: int, seconds: float) -> PassResult:
    result = PassResult(workload, seed, seconds, traced=True)
    base_s, traced_s = seconds * BASELINE_SHARE, seconds * (1.0 - BASELINE_SHARE)
    warm = warmup_plan(workload, seed)
    recorder = SpanRecorder()
    with _scratch() as scratch:
        plan = _pinned_plan(workload, seed, base_s, result)
        with ServerProcess(workload.name, False, _workdir(scratch, workload, "baseline")) as server:
            server.wait_ready()
            baseline, _, _ = _timed_run(workload, plan, warm, server, base_s, None, result)
            server.stop()
        plan = build_plan(workload, seed, traced_s)
        with ServerProcess(workload.name, True, _workdir(scratch, workload, "traced")) as server:
            server.wait_ready()
            header_bytes = _response_header_bytes(server.address, warm.request(0, 0).path)
            samples, _, _ = _timed_run(workload, plan, warm, server, traced_s, recorder, result)
            report = server.stop()
    rows = graft(recorder.rows(), [tuple(row) for row in report["spans"]])
    table = StageTable(rows, "client.get")
    result.table = table
    result.metrics = _layer_metrics(table, report, samples, header_bytes)
    result.metrics["trace.overhead_ratio"] = (
        _quiet_p50(samples, traced_s) / _quiet_p50(baseline, base_s), "ratio")
    return result


def _quiet_p50(samples: Samples, seconds: float) -> float:
    """Quiet-quartile window's p50 of send → response, for comparing two phases of one pass."""
    windowed = windowed_percentile(samples.stamp_s, samples.get_s, 50.0, span_s=seconds)
    return windowed if windowed is not None else percentile(samples.get_s, 50.0)


# -- the in-process workload ---------------------------------------------------

def _twin_check(plan: BatchPlan, fleet, twin, ids) -> Optional[str]:
    """First cycle: each batched result equals the per-request call it stands for.

    The twin fleet is identically seeded and has seen the identical
    calls so far, so replaying each batch's 32 requests one at a time on
    the twin's same replica must reproduce every result except routing
    and wall-clock fields (the batching parity contract).
    """
    for b in range(len(STOCK)):
        scenario, algorithm, args_list = plan.batch(b)
        results = fleet.call_algorithm_batch(scenario, algorithm, args_list)
        for result in results:
            reason = validate.check_result(result, scenario, algorithm, ids)
            if reason is not None:
                return f"{scenario}/{algorithm}: {reason}"
        replica = twin.instance(results[0]["served_by"]).openei
        for args, result in zip(args_list, results):
            single = replica.call_algorithm(scenario, algorithm, args)
            where = validate.first_difference(
                validate.comparable(result), validate.comparable(single))
            if where is not None:
                return (f"{scenario}/{algorithm} seq {args['seq']}: the batched result "
                        f"differs from the per-request result on the twin fleet at {where}")
    return None


def reference_kernel() -> float:
    """Seconds a fixed piece of pure-Python + numpy work (no repo code) took just now."""
    start = time.perf_counter()
    total = 0
    for i in range(400):
        total += i * i
    product = _KERNEL_MATRIX
    for _ in range(8):
        product = np.tanh(product @ _KERNEL_MATRIX)
    return time.perf_counter() - start


def _kernel_burst(count: int = 25) -> List[float]:
    """Reference-kernel timings taken around each in-process set-up."""
    return [reference_kernel() for _ in range(count)]


def _batch_loop(plan: BatchPlan, fleet, ids, first: int, seconds: float,
                recorder: Optional[SpanRecorder]) -> Tuple[Samples, float, float]:
    """Time batches for ``seconds``; also returns the host's speed during the run.

    This workload is one thread on one core, so its wall clock is that
    core's clock: on this host it swings ±30 % for seconds at a time with
    the neighbours' load, which no commit can answer for.  Once per cycle
    of four batches, between two timed calls, the same thread runs
    :func:`reference_kernel`; ``REFERENCE_KERNEL_S`` over the median
    kernel time is how fast the host ran compared with its undisturbed
    self (measured: it cuts this workload's run-to-run spread from
    15–20 % to 6–7 %).  The HTTP workloads have no such reference: two
    processes on two cores did not track any single-thread kernel.
    """
    out = Samples()
    kernel_s: List[float] = []
    t0 = time.perf_counter()
    deadline = t0 + seconds
    b = first
    while True:
        if b % len(STOCK) == 0:
            kernel_s.append(reference_kernel())
        start = time.perf_counter()
        if start >= deadline:
            break
        scenario, algorithm, args_list = plan.batch(b)
        if recorder is None:
            results = fleet.call_algorithm_batch(scenario, algorithm, args_list)
        else:
            with recorder.span("loadgen.call", rid=f"batch:{b}"):
                results = fleet.call_algorithm_batch(scenario, algorithm, args_list)
        done = time.perf_counter()
        b += 1
        reasons = [validate.check_result(r, scenario, algorithm, ids) for r in results]
        if len(results) != BATCH or any(reasons):
            out.fail(f"batch {b - 1} {scenario}/{algorithm}: "
                     f"{len(results)} results, {[r for r in reasons if r][:1]}")
            continue
        out.stamp_s.append(start - t0)
        out.done_s.append(done - t0)
        out.latency_s.append(done - start)
        out.get_s.append(done - start)
        out.items.append(len(results))
    return out, time.perf_counter() - t0, REFERENCE_KERNEL_S / median(kernel_s)


def _first_ok(fleet, ids) -> None:
    """The in-process stand-in for set-up's 'first 200 OK': one routed call."""
    scenario, algorithm = STOCK[0]
    reason = validate.check_result(
        fleet.call_algorithm(scenario, algorithm, {"seq": 0}), scenario, algorithm, ids)
    if reason is not None:
        raise PassFailed(f"before timing, {scenario}/{algorithm}: {reason}")


def measured_inproc(workload: Workload, seed: int, seconds: float) -> PassResult:
    result = PassResult(workload, seed, seconds, traced=False)
    plan = _pinned_plan(workload, seed, seconds, result)
    setups: List[float] = []
    kernel_s = _kernel_burst()
    fleet = twin = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        twin, fleet = fleet, build_fleet()
        ids = frozenset(i.instance_id for i in fleet)
        _first_ok(fleet, ids)
        setups.append(time.perf_counter() - start)
        kernel_s += _kernel_burst()
    setup_speed = REFERENCE_KERNEL_WARM_S / median(kernel_s)
    problem = _twin_check(plan, fleet, twin, ids)
    if problem is not None:
        raise PassFailed(f"before timing, {problem}")
    first = len(STOCK)
    for b in range(first, first + workload.warmup):
        fleet.call_algorithm_batch(*plan.batch(b))
    rss_mb = peak_rss_mb()
    samples, elapsed, host_speed = _batch_loop(
        plan, fleet, ids, first + workload.warmup, seconds, None)
    result.count(samples)
    raw = _end_to_end(workload, samples, elapsed, seconds, setups, rss_mb)
    # times as they would read at the host's reference speed; rates likewise
    result.metrics = dict(raw)
    result.metrics["setup_s"] = (raw["setup_s"][0] * setup_speed, "s")
    for name in ("latency_p50_ms", "latency_p95w_ms"):
        result.metrics[name] = (raw[name][0] * host_speed, "ms")
    for name in ("throughput_rps", "items_per_s"):
        result.metrics[name] = (raw[name][0] / host_speed, "1/s")
    result.notes["host_speed"] = {"setup": setup_speed, "run": host_speed}
    result.notes["as_measured"] = {name: raw[name][0] for name in raw if name != "server_rss_mb"}
    result.notes["rss_end_mb"] = peak_rss_mb()
    result.notes["setups_s"] = setups
    result.notes["succeeded"] = samples.succeeded
    return result


def traced_inproc(workload: Workload, seed: int, seconds: float) -> PassResult:
    result = PassResult(workload, seed, seconds, traced=True)
    base_s, traced_s = seconds * BASELINE_SHARE, seconds * (1.0 - BASELINE_SHARE)
    plan = _pinned_plan(workload, seed, seconds, result)
    fleet = build_fleet()
    ids = frozenset(i.instance_id for i in fleet)
    for b in range(workload.warmup):
        fleet.call_algorithm_batch(*plan.batch(b))
    baseline, _, base_speed = _batch_loop(plan, fleet, ids, workload.warmup, base_s, None)
    result.count(baseline)
    recorder = SpanRecorder()
    emulated: Dict[str, List[float]] = {}
    fleet = build_fleet(recorder, emulated=emulated)
    for b in range(workload.warmup):
        fleet.call_algorithm_batch(*plan.batch(b))
    warm_spans = len(recorder.finished)
    samples, _, traced_speed = _batch_loop(plan, fleet, ids, workload.warmup, traced_s, recorder)
    result.count(samples)
    rows = recorder.rows()[warm_spans:]
    table = StageTable(rows, "loadgen.call")
    result.table = table
    report = {"spans": rows, "body_bytes": [], "emulated": emulated}
    result.metrics = _layer_metrics(table, report, samples, header_bytes=0)
    # both phases at the host's reference speed, or the ratio reads the neighbours
    result.metrics["trace.overhead_ratio"] = (
        percentile(samples.get_s, 50.0) * traced_speed
        / (percentile(baseline.get_s, 50.0) * base_speed), "ratio")
    return result


# -- per-layer reduction -------------------------------------------------------

def engine_standalone() -> Dict[str, float]:
    """``nn/engine`` alone: the health recognizer's forward on handler-shaped inputs.

    Built and trained exactly as ``register_connected_health`` does, then
    ``Sequential.predict`` on one IMU window and ``predict_batch`` on a
    stack of 32, outside any handler, fleet or transport.
    """
    recognizer = ActivityRecognizer(seed=0)
    recognizer.train(samples=240, epochs=10, seed=0)
    model = recognizer.classifier.model
    rng = np.random.default_rng(0)
    one = rng.normal(size=(1, recognizer.steps, recognizer.channels))
    stack = rng.normal(size=(BATCH, recognizer.steps, recognizer.channels))

    def p50_ms(call, argument, repeats: int) -> float:
        call(argument)
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            call(argument)
            samples.append(time.perf_counter() - start)
        return percentile(samples, 50.0) * 1e3

    return {"predict1": p50_ms(model.predict, one, 200),
            "predict32": p50_ms(model.predict_batch, stack, 60)}


def _layer_metrics(table: StageTable, report: Dict[str, object], samples: Samples,
                   header_bytes: int) -> Dict[str, Metric]:
    """Every per-layer metric, 0 where the workload never enters the layer."""
    http = table.root_name == "client.get"
    rows = report["spans"]
    body_bytes = report["body_bytes"]
    emulated = report["emulated"]
    requests = max(1, table.requests)
    body_mean = sum(body_bytes) / len(body_bytes) if body_bytes else 0.0
    metrics: Dict[str, Metric] = {
        "transport.self_ms_p50": (table.p50_ms("client.get"), "ms"),
        "transport.self_share": (table.share("client.get"), "ratio"),
        "client.get_ms_p50": (table.root_p50_ms if http else 0.0, "ms"),
        "transport.bytes_per_resp": (body_mean + header_bytes if http else 0.0, "B"),
        "api.parse_ms_p50": (table.p50_ms("api.parse"), "ms"),
        "api.dispatch_self_ms_p50": (table.p50_ms("api.dispatch"), "ms"),
        "api.encode_est_ms_p50": (table.p50_ms("trace.encode_est"), "ms"),
        "api.body_bytes_mean": (body_mean, "B"),
        "fleet.self_ms_p50": (table.p50_ms("fleet"), "ms"),
        "router.choose_ms_p50": (table.p50_ms("router.choose"), "ms"),
        "router.calls": (table.count("router.choose"), "count"),
    }
    for scenario, _ in STOCK:
        metrics[f"apps.{scenario}_ms_p50"] = (table.p50_ms(f"apps.{scenario}"), "ms")
        metrics[f"apps.{scenario}_batch32_ms_p50"] = (
            table.p50_ms(f"apps.{scenario}_batch{BATCH}"), "ms")
        metrics[f"apps.{scenario}_emulated_ms_p50"] = (
            percentile_or_zero(emulated.get(scenario, []), 50.0) * 1e3, "ms")
    metrics["apps.self_share"] = (
        sum((row.share for name, row in table.layers.items() if name.startswith("apps.")), 0.0),
        "ratio")
    engine = engine_standalone()
    health_batch = table.p50_ms(f"apps.health_batch{BATCH}")
    metrics["engine.health_predict1_ms_p50"] = (engine["predict1"], "ms")
    metrics["engine.health_predict32_ms_p50"] = (engine["predict32"], "ms")
    metrics["engine.health_share"] = (
        engine["predict32"] / health_batch if health_batch else 0.0, "ratio")
    metrics["data.realtime_ms_p50"] = (table.p50_ms("data.realtime"), "ms")
    metrics["data.historical_ms_p50"] = (table.p50_ms("data.historical"), "ms")

    appends = [(end - start) / 1e6 for _, name, _, _, start, end in rows if name == "wal.append"]
    metrics["telemetry.record_ms_p50"] = (table.p50_ms("telemetry.record"), "ms")
    metrics["telemetry.records"] = (table.count("telemetry.record"), "count")
    metrics["wal.append_ms_p50"] = (percentile_or_zero(appends, 50.0), "ms")
    metrics["wal.appends"] = (len(appends), "count")
    metrics["wal.appends_per_request"] = (table.count("wal.append") / requests, "ratio")

    recovery = report.get("recovery") or {}
    metrics["adaptive.check_ms_p50"] = (
        percentile_or_zero(report.get("check_ns", []), 50.0) / 1e6, "ms")
    metrics["adaptive.checks"] = (len(report.get("check_ns", [])), "count")
    metrics["rollout.step_ms_p50"] = (
        percentile_or_zero(report.get("step_ns", []), 50.0) / 1e6, "ms")
    metrics["rollout.handler_ms_p50"] = (table.p50_ms("rollout.handler"), "ms")
    metrics["rollout.canary_to_promote_s"] = (float(report.get("canary_to_promote_s", 0.0)), "s")
    metrics["rollout.promotes"] = (int(report.get("promotes", 0)), "count")
    metrics["recovery.replay_ms"] = (float(recovery.get("replay_ms", 0.0)), "ms")
    metrics["recovery.events"] = (int(recovery.get("events", 0)), "count")

    metrics["loadgen.lag_ms_p99"] = (percentile_or_zero(samples.lag_s, 99.0) * 1e3, "ms")
    metrics["loadgen.raw_p99_ms"] = (percentile(samples.latency_s, 99.0) * 1e3, "ms")
    metrics["stage.sum_ratio"] = (table.sum_ratio(), "ratio")
    return metrics


def run_pass(workload: Workload, seed: int, seconds: float, traced: bool) -> PassResult:
    if workload.shape == "inproc":
        return (traced_inproc if traced else measured_inproc)(workload, seed, seconds)
    return (traced_http if traced else measured_http)(workload, seed, seconds)
