"""Public surface that nothing uses must say why it stays.

A public def in ``src/`` (a module-level function, or a method of a
public module-level class) has to be referenced by name from some
*other* file under ``src/``, ``examples/``, ``bench/`` or
``benchmarks/``.  Tests do not count: a def only tests call is surface
kept alive for its own sake.  The exceptions are ``ALLOWED``, one reason
each; an entry whose def gains a caller (or goes away) fails too, so the
list cannot rot.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path
from typing import FrozenSet

ROOT = Path(__file__).resolve().parents[1]
SCOPES = ("src", "examples", "bench", "benchmarks")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: ``<path under src/>::<qualname>`` -> why the def stays without a caller
ALLOWED = {
    # analysis tooling: the engine's own helpers and its test shims
    "repro/analysis/_lockforge.py::make_locks": "lockwatch's tests allocate through it so the locks get an allocation site under repro/",
    "repro/analysis/_lockforge.py::make_rlock": "lockwatch's tests allocate through it so the lock gets an allocation site under repro/",
    "repro/analysis/_lockforge.py::make_condition": "lockwatch's tests allocate through it so the condition gets an allocation site under repro/",
    "repro/analysis/callgraph.py::module_name_for": "names every indexed module; called by ProjectIndex._index_module",
    "repro/analysis/callgraph.py::ProjectIndex.mro": "method resolution for self./super() calls; called by resolve_method and guarded_for_class",
    "repro/analysis/interproc.py::blocking_reason": "the one blocking-call classifier; called by both halves of blocking-under-lock",
    "repro/analysis/lint.py::LintReport.warnings": "the CLI summary line counts warnings with it",
    "repro/analysis/lint.py::discover_files": "expands the CLI's paths; called by run_lint",
    "repro/analysis/lockwatch.py::LockWatch.find_cycle": "the lock-order half of assert_clean",
    "repro/analysis/lockwatch.py::LockWatch.hold_violations": "the hold-budget half of assert_clean",
    "repro/analysis/lockwatch.py::LockWatch.assert_clean": "the verdict the REPRO_LOCKWATCH=1 test fixture calls (docs/STATIC_ANALYSIS.md)",
    "repro/analysis/rules.py::LintContext.enclosing_function": "guarded-by exempts constructors through it",
    "repro/analysis/rules.py::attr_chain": "guarded-by's mutation-target walk",
    "repro/analysis/shapes.py::model_corpus": "the corpus `python -m repro.analysis.shapes` sweeps in CI",
    # application scenarios: the handlers' building blocks
    "repro/apps/connected_health.py::ActivityRecognizer.recognize": "single-window entry of the health recognizer; wraps recognize_batch",
    "repro/apps/connected_health.py::ActivityRecognizer.recognize_batch": "the health handler's stacked forward pass",
    "repro/apps/connected_vehicles.py::ObjectTracker.measure_batch": "the vehicles handler's vectorized centroid measurement",
    "repro/apps/connected_vehicles.py::ObjectTracker.update_with_measurement": "the Kalman step update() and the batch handler share",
    "repro/apps/connected_vehicles.py::ObjectTracker.tracking_rmse": "the vehicles scenario's accuracy measure (track error in pixels)",
    "repro/apps/public_safety.py::BlobDetector.detect_batch": "the safety handler's one-pass labeller; detect() and evaluate() wrap it",
    "repro/apps/smart_home.py::PowerMonitor.infer_states": "single-reading disaggregation the module docstring documents",
    "repro/apps/smart_home.py::PowerMonitor.infer_batch": "the home handler's vectorized disaggregation; accuracy() uses it",
    # the clock seam's test double
    "repro/clock.py::ManualClock.advance": "the one way a test moves time past a deadline instead of sleeping (repro.clock)",
    "repro/clock.py::ManualClock.wait_for_waiters": "orders a test after the threads it started park on the clock, instead of a sleep",
    # collaboration, compression and the EI algorithms
    "repro/collaboration/cloud_edge.py::CloudOffloadPlanner.round_trip_seconds": "transfer term of CloudOffloadPlanner.plan",
    "repro/compression/distillation.py::DistillationResult.accuracy_gap": "the teacher/student gap of Table I's distillation row",
    "repro/compression/low_rank.py::truncated_svd": "the factorization low_rank_compress_model applies per layer",
    "repro/compression/low_rank.py::reconstruction_error": "the error bound of Table I's low-rank row",
    "repro/compression/pipeline.py::CompressionReport.as_table": "renders the paper's Table I",
    "repro/eialgorithms/emirnn.py::EMIInferenceStats.computation_saving": "the early-exit saving the paper cites for EMI-RNN (module docstring)",
    # core: the paper's OpenEI components
    "repro/core/capability.py::CapabilityEvaluator.measure_accuracy": "the A of ALEM; called by CapabilityEvaluator.evaluate",
    "repro/core/model_selector.py::ModelSelector.pareto_front": "the non-dominated ALEM set Eq. (1) selects from",
    "repro/core/openei.py::OpenEI.infer_with_selection": "the Section III.E processing flow",
    "repro/core/package_manager.py::PackageManager.install_from_registry": "registry-to-edge install documented in docs/API.md and docs/MODEL_LIFECYCLE.md",
    "repro/core/package_manager.py::PackageManager.unload_model": "install_from_registry swaps models out through it",
    "repro/core/package_manager.py::PackageManager.loaded_models": "PackageManager.describe reports it",
    "repro/core/package_manager.py::PackageManager.train_locally": "dataflow 3 of Fig. 3 (local personalization)",
    "repro/core/registry.py::ModelVersion.array_bytes": "the delta-able part ModelVersion.header_bytes subtracts",
    "repro/core/registry.py::ModelVersion.to_record": "the journaled form ModelRegistry.publish writes",
    "repro/core/registry.py::ModelVersion.from_record": "rebuilds journaled versions in ModelRegistry.recover",
    "repro/core/registry.py::ModelRegistry.lineage": "operator API documented in README.md and docs/API.md",
    "repro/core/registry.py::ModelRegistry.pull_bytes": "the byte-level pull ModelRegistry.pull decodes (docs/API.md)",
    "repro/core/store.py::BlobStore.verify_all": "blob integrity check the crash-recovery suite asserts with (docs/DURABILITY.md)",
    "repro/core/wal.py::encode_record": "the WAL's record framing; WriteAheadLog.append writes it",
    "repro/core/wal.py::decode_record": "WAL integrity: decodes one framed record for the crash suite",
    "repro/core/wal.py::scan_records": "the torn-tail scan WriteAheadLog runs at open and on replay",
    # hardware, loadgen, nn, runtime
    "repro/hardware/catalog.py::intel_movidius": "catalog device registered at import",
    "repro/hardware/catalog.py::jetson_agx_xavier": "catalog device registered at import (Section IV.D)",
    "repro/hardware/energy.py::EnergyModel.idle_joules": "the idle term of battery_lifetime_hours",
    "repro/hardware/energy.py::EnergyModel.battery_lifetime_hours": "the E of ALEM over a duty cycle, for battery-powered devices",
    "repro/hardware/profiler.py::ALEMProfiler.measure_latency": "the L of ALEM; called by ALEMProfiler.profile (docs/API.md)",
    "repro/loadgen/harness.py::ScenarioStats.percentile_ms": "per-scenario tail read-out of a replay report",
    "repro/loadgen/harness.py::TailLatencyReport.error_count": "failure read-out of a replay report",
    "repro/loadgen/trace.py::Trace.with_faults": "attaches a fault plan to a recorded trace; the chaos suite builds on it",
    "repro/nn/datasets.py::make_sequences": "the sequence-shaped sibling of make_blobs / make_images for recurrent models",
    "repro/nn/engine.py::WorkspaceArena.buffer_count": "InferencePlan.describe reports it",
    "repro/nn/layers/conv.py::col2im": "the convolutions' backward pass",
    "repro/nn/metrics.py::top_k_accuracy": "recognition accuracy, one of the per-task A metrics the module docstring lists",
    "repro/nn/metrics.py::confusion_matrix": "the counts precision_recall_f1 reads",
    "repro/nn/metrics.py::precision_recall_f1": "per-class accuracy for the recognition tasks",
    "repro/nn/metrics.py::iou": "box overlap mean_average_precision matches with",
    "repro/nn/metrics.py::bleu_score": "the A metric the paper names for translation (module docstring)",
    "repro/nn/model.py::Sequential.invalidate_plan": "Sequential.add drops the compiled plan with it (docs/API.md)",
    "repro/nn/serialization.py::save_model": "file form of serialize_model documented in docs/API.md",
    "repro/runtime/edgeos.py::EdgeRuntime.installed_models": "EdgeRuntime.describe reports it",
    "repro/runtime/edgeos.py::EdgeRuntime.pending_tasks": "queue depth EdgeRuntime.load and load_score read",
    "repro/runtime/edgeos.py::EdgeRuntime.completed_tasks": "finished count EdgeRuntime.load reads",
    "repro/runtime/migration.py::MigrationPlanner.estimate_remote_seconds": "the remote cost MigrationPlanner.plan compares",
    # serving
    "repro/serving/adaptive.py::AdaptiveController.reset_calibration": "operator API documented in docs/ARCHITECTURE.md",
    "repro/serving/batching.py::BatchingStats.mean_batch_size": "BatchingStats.as_dict reports it on /ei_status",
    "repro/serving/cache.py::TTLLRUCache.remove_where": "SelectionCache.invalidate drops matching keys with it",
    "repro/serving/client.py::LibEIClient.base_url": "client API: the URL of the replica being called",
    "repro/serving/client.py::LibEIClient.realtime_data": "client API for /ei_data/realtime (docs/API.md)",
    "repro/serving/client.py::LibEIClient.historical_data": "client API for /ei_data/historical (docs/API.md)",
}


def _public_defs(path: Path):
    """``(name, qualname)`` of each module-level function and each method
    of a public module-level class, skipping private names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, f"{node.name}.{item.name}"


@functools.lru_cache(maxsize=None)
def _uncalled() -> FrozenSet[str]:
    files = [
        path
        for scope in SCOPES
        for path in sorted((ROOT / scope).rglob("*.py"))
        if not any(part.startswith(".") for part in path.relative_to(ROOT).parts)
    ]
    words = {path: set(WORD.findall(path.read_text(encoding="utf-8"))) for path in files}
    src = ROOT / "src"
    uncalled = set()
    for path in files:
        if src not in path.parents:
            continue
        for name, qualname in _public_defs(path):
            if name.startswith("_"):
                continue
            if not any(name in names for other, names in words.items() if other != path):
                uncalled.add(f"{path.relative_to(src).as_posix()}::{qualname}")
    return frozenset(uncalled)


def test_every_public_def_has_a_caller_outside_tests():
    unexplained = sorted(_uncalled() - set(ALLOWED))
    assert unexplained == [], (
        "public defs nothing outside tests/ calls: give each a caller, "
        "delete it, or add it to ALLOWED with a reason"
    )


def test_allowlist_names_only_uncalled_defs_with_reasons():
    assert sorted(set(ALLOWED) - _uncalled()) == []
    assert all(reason.strip() for reason in ALLOWED.values())
