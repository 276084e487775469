"""Public surface that nothing uses must say why it stays.

A public def in ``src/`` (a module-level function, or a method of a
public module-level class) has to be referenced by name from some
*other* file under ``src/``, ``examples/``, ``bench/`` or
``benchmarks/``.  A public module-level class has to be, too, or be
used in its own module beyond its ``class`` line (a registry such as
``ROUTING_POLICIES`` listing it counts).  Tests do not count: surface
only tests reach is kept alive for its own sake.  Neither do imports
and ``__all__`` lists: a re-export is not a use.  Only code counts: a
name quoted in a docstring, comment or string is not a use either.
The exceptions are ``ALLOWED``, one reason each, naming the paper
artefact the entry reproduces or the mechanism outside tests that
reaches it; an entry whose def gains a caller (or goes away) fails too,
so the list cannot rot.
"""

from __future__ import annotations

import ast
import functools
import io
import re
import tokenize
from pathlib import Path
from typing import FrozenSet, Iterator

ROOT = Path(__file__).resolve().parents[1]
SCOPES = ("src", "examples", "bench", "benchmarks")
STRING_PREFIX = re.compile(r"[A-Za-z]*")

#: ``<path under src/>::<qualname>`` -> the paper artefact it reproduces,
#: or the mechanism outside tests that reaches it
ALLOWED = {
    # analysis tooling: helpers its own passes call
    "repro/analysis/callgraph.py::module_name_for": "names every indexed module; called by ProjectIndex._index_module",
    "repro/analysis/callgraph.py::ProjectIndex.mro": "method resolution for self./super() calls; called by resolve_method and guarded_for_class",
    "repro/analysis/interproc.py::blocking_reason": "the one blocking-call classifier; called by both halves of blocking-under-lock",
    "repro/analysis/lint.py::LintReport.warnings": "the CLI summary line counts warnings with it",
    "repro/analysis/lint.py::discover_files": "expands the CLI's paths; called by run_lint",
    "repro/analysis/lint.py::run_lint": "the engine `python -m repro.analysis.lint` runs (docs/STATIC_ANALYSIS.md); called by lint.main",
    "repro/analysis/lockwatch.py::LockWatch.find_cycle": "the lock-order half of assert_clean",
    "repro/analysis/lockwatch.py::LockWatch.hold_violations": "the hold-budget half of assert_clean",
    "repro/analysis/lockwatch.py::LockWatch.assert_clean": "lockwatch's verdict: raises LockContractError on a lock-order cycle or a hold-budget breach (docs/STATIC_ANALYSIS.md)",
    "repro/analysis/lockwatch.py::watched": "lockwatch's entry point (docs/STATIC_ANALYSIS.md): swaps in the instrumented Lock/RLock factories for one window",
    "repro/analysis/rules.py::LintContext.enclosing_function": "guarded-by exempts constructors through it",
    "repro/analysis/rules.py::attr_chain": "guarded-by's mutation-target walk",
    "repro/analysis/shapes.py::model_corpus": "the corpus `python -m repro.analysis.shapes` sweeps",
    "repro/analysis/shapes.py::check_model": "the shape walk validate_model gates publish and deploy on; shapes.main runs it per corpus model",
    "repro/analysis/shapes.py::ShapeReport.ok": "the verdict validate_model and shapes.main read",
    # the four Section V scenarios: what their libei handlers run
    "repro/apps/connected_health.py::ActivityRecognizer.recognize": "the health handler's per-window fallback for windows of unequal shape (Section V.D)",
    "repro/apps/connected_health.py::ActivityRecognizer.recognize_batch": "the health handler's stacked forward pass (Section V.D)",
    "repro/apps/connected_vehicles.py::ObjectTracker.measure_batch": "the vehicles handler's vectorized centroid measurement (Section V.B)",
    "repro/apps/connected_vehicles.py::ObjectTracker.fold": "the vehicles handler's in-order Kalman fold over a call's measurements (Section V.B)",
    "repro/apps/connected_vehicles.py::ObjectTracker.update_with_measurement": "the Kalman step ObjectTracker.update runs (Section V.B)",
    "repro/apps/public_safety.py::BlobDetector.detect_batch": "the safety handler's one-pass labeller; detect() and evaluate() wrap it (Section V.A)",
    "repro/apps/smart_home.py::PowerMonitor.infer_batch": "the home handler's vectorized disaggregation; accuracy() uses it (Section V.C)",
    # the clock seam
    "repro/clock.py::ManualClock": "the injectable time the one clock seam exists for; the bare-clock lint rule names it (repro.clock)",
    "repro/clock.py::ManualClock.advance": "moves the fake clock; ManualClock.sleep is built on it",
    # collaboration, compression and the EI algorithms
    "repro/collaboration/cloud_edge.py::CloudOffloadPlanner.round_trip_seconds": "transfer term of CloudOffloadPlanner.plan",
    "repro/compression/distillation.py::DistillationResult.accuracy_gap": "the teacher/student gap of Table I's distillation row",
    "repro/compression/low_rank.py::truncated_svd": "the factorization low_rank_compress_model applies per layer",
    "repro/compression/pipeline.py::CompressionReport.as_table": "renders the paper's Table I",
    "repro/eialgorithms/bonsai.py::BonsaiClassifier": "Bonsai, an EI algorithm of Section IV.A.2",
    "repro/eialgorithms/emirnn.py::EMIInferenceStats.computation_saving": "the early-exit saving of EMI-RNN (Section IV.A.2)",
    "repro/eialgorithms/protonn.py::ProtoNNClassifier": "ProtoNN, an EI algorithm of Section IV.A.2",
    # core: the paper's OpenEI components and the durable layer under them
    "repro/core/capability.py::CapabilityEvaluator.measure_accuracy": "the A of ALEM; called by CapabilityEvaluator.evaluate",
    "repro/core/openei.py::OpenEI.infer_with_selection": "the Section III.E processing flow",
    "repro/core/package_manager.py::PackageManager.install_from_registry": "dataflow 1 of Fig. 3: a cloud-published model installed on the edge",
    "repro/core/package_manager.py::PackageManager.unload_model": "install_from_registry swaps models out through it",
    "repro/core/package_manager.py::PackageManager.loaded_models": "PackageManager.describe reports it",
    "repro/core/package_manager.py::PackageManager.train_locally": "dataflow 3 of Fig. 3 (local personalization)",
    "repro/core/registry.py::ModelVersion.array_bytes": "the delta-able part ModelVersion.header_bytes subtracts",
    "repro/core/registry.py::ModelVersion.to_record": "the journaled form ModelRegistry.publish writes",
    "repro/core/registry.py::ModelVersion.from_record": "rebuilds journaled versions in ModelRegistry.recover",
    "repro/core/registry.py::ModelRegistry.pull_bytes": "the byte-level pull ModelRegistry.pull decodes",
    "repro/core/store.py::content_key": "the content address BlobStore.put writes under and BlobStore.get verifies",
    "repro/core/store.py::BlobStore.verify_all": "fault check: re-hashes every blob against its content address (docs/DURABILITY.md)",
    "repro/core/wal.py::encode_record": "the WAL's record framing; WriteAheadLog.append writes it",
    "repro/core/wal.py::decode_record": "fault check: the strict one-record reader that raises WALCorruptionError where scan_records tolerates a torn tail",
    "repro/core/wal.py::scan_records": "the torn-tail scan WriteAheadLog runs at open and on replay",
    "repro/data/workloads.py::trajectory_workload": "scenario_request_stream builds the vehicles scenario's frames from it (Section V.B)",
    # hardware, loadgen, nn, runtime
    "repro/hardware/energy.py::EnergyModel.idle_joules": "the idle term of battery_lifetime_hours",
    "repro/hardware/energy.py::EnergyModel.battery_lifetime_hours": "the E of ALEM turned into battery hours for the catalog's battery-tagged devices",
    "repro/hardware/profiler.py::ALEMProfiler.measure_latency": "the L of ALEM; called by ALEMProfiler.profile",
    "repro/loadgen/harness.py::client_sender": "OpenLoopHarness's carrier over LibEIClient, so replica failover is inside the measured latency",
    "repro/loadgen/harness.py::OpenLoopHarness": "the arrival-time trace replayer of docs/BENCHMARKS.md; FaultInjector's faults fire on its schedule",
    "repro/loadgen/trace.py::Trace.save": "writes the trace file format docs/BENCHMARKS.md documents; Trace.load reads it",
    "repro/loadgen/trace.py::constant_trace": "the fixed-rate arrival process of the trace format (docs/BENCHMARKS.md), beside bench's poisson_trace",
    "repro/loadgen/trace.py::Trace.with_faults": "joins a FaultSpec plan to the traffic it replays with; FaultInjector applies it",
    "repro/nn/engine.py::WorkspaceArena.buffer_count": "InferencePlan.describe reports it",
    "repro/nn/initializers.py::glorot_uniform": "Dense's default weight_init, looked up by name through initializers.get",
    "repro/nn/initializers.py::he_normal": "Conv2D's default weight_init, looked up by name through initializers.get",
    "repro/nn/layers/conv.py::col2im": "the convolutions' backward pass",
    "repro/nn/layers/conv.py::im2col": "the convolutions' forward lowering onto GEMM; called by Conv2D.forward",
    "repro/nn/metrics.py::top_k_accuracy": "the recognition A of ALEM the metrics module docstring cites from the paper",
    "repro/nn/metrics.py::iou": "box overlap mean_average_precision matches with",
    "repro/nn/metrics.py::bleu_score": "the A metric the paper names for translation (metrics module docstring)",
    "repro/nn/model.py::Sequential.invalidate_plan": "Sequential.add drops the compiled plan with it",
    "repro/nn/serialization.py::save_model": "the file form of the model artifact load_model reads (docs/API.md)",
    "repro/runtime/edgeos.py::EdgeRuntime.installed_models": "EdgeRuntime.describe reports it",
    "repro/runtime/edgeos.py::EdgeRuntime.pending_tasks": "queue depth EdgeRuntime.load and load_score read",
    "repro/runtime/edgeos.py::EdgeRuntime.completed_tasks": "finished count EdgeRuntime.load reads",
    "repro/runtime/migration.py::MigrationPlanner": "computation migration, a running-environment capability of Section IV.C",
    "repro/runtime/migration.py::MigrationPlanner.estimate_remote_seconds": "the remote cost MigrationPlanner.plan compares",
    "repro/runtime/migration.py::MigrationPlanner.connect": "registers the peers MigrationPlanner.plan chooses among (Section IV.C)",
    # serving
    "repro/serving/adaptive.py::AdaptiveController.reset_calibration": "clears learned drift after a device is serviced; recovery restores drift, so without it the serviced replica never fails back",
    "repro/serving/cache.py::CacheStats.hit_rate": "CacheStats.as_dict reports it on /ei_status; examples/fleet_gateway.py prints it",
    "repro/serving/cache.py::TTLLRUCache.remove_where": "SelectionCache.invalidate drops matching keys with it",
    "repro/serving/client.py::LibEIClient.base_url": "the replica LibEIClient's failover is pinned to",
    "repro/serving/client.py::LibEIClient.realtime_data": "client for Fig. 6's /ei_data/realtime",
    "repro/serving/client.py::LibEIClient.historical_data": "client for Fig. 6's /ei_data/historical",
    "repro/serving/fleet.py::EdgeFleet.route": "picks the replica every fleet call goes to; called by EdgeFleet._route_call",
    "repro/serving/rollout.py::RolloutController.rollback": "the operator's manual rollback beside promote() (docs/MODEL_LIFECYCLE.md)",
    "repro/serving/supervisor.py::GatewaySupervisor": "the kill/restart target FaultInjector drives; runs recover_control_plane on start and restart (docs/DURABILITY.md)",
}


def _public(path: Path):
    """``(name, qualname, is_class)`` of each module-level function, each
    public module-level class and each method of such a class."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield node.name, node.name, True
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, f"{node.name}.{item.name}", False


def _names(source: str) -> Iterator[str]:
    """The code names in ``source``: its NAME tokens.  Before Python 3.12
    an f-string is one STRING token, so its replacement fields are
    tokenized on their own."""
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME:
            yield token.string
        elif token.type == tokenize.STRING and "f" in STRING_PREFIX.match(token.string)[0].lower():
            for node in ast.walk(ast.parse(token.string, mode="eval")):
                if isinstance(node, ast.FormattedValue):
                    yield from _names(ast.unparse(node.value))


def _words(path: Path) -> FrozenSet[str]:
    """Every name code in a file uses, minus its imports and ``__all__``."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "__all__" for target in node.targets)
        ):
            lines[node.lineno - 1:node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
    return frozenset(_names("\n".join(lines) + "\n"))


def _used_in_own_module(path: Path, name: str) -> bool:
    """Whether code in ``path`` names ``name`` (a class line is not a use)."""
    return any(
        (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    )


@functools.lru_cache(maxsize=None)
def _uncalled() -> FrozenSet[str]:
    files = [
        path
        for scope in SCOPES
        for path in sorted((ROOT / scope).rglob("*.py"))
        if not any(part.startswith(".") for part in path.relative_to(ROOT).parts)
    ]
    words = {path: _words(path) for path in files}
    src = ROOT / "src"
    uncalled = set()
    for path in files:
        if src not in path.parents:
            continue
        for name, qualname, is_class in _public(path):
            if name.startswith("_"):
                continue
            if any(name in names for other, names in words.items() if other != path):
                continue
            if is_class and _used_in_own_module(path, name):
                continue
            uncalled.add(f"{path.relative_to(src).as_posix()}::{qualname}")
    return frozenset(uncalled)


def test_every_public_def_has_a_caller_outside_tests():
    unexplained = sorted(_uncalled() - set(ALLOWED))
    assert unexplained == [], (
        "public defs and classes nothing outside tests/ uses: give each a "
        "caller, delete it, or add it to ALLOWED with a reason"
    )


def test_allowlist_names_only_uncalled_defs_with_reasons():
    assert sorted(set(ALLOWED) - _uncalled()) == []
    assert all(reason.strip() for reason in ALLOWED.values())
