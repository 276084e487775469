"""Repo-specific correctness tooling: static lint, interprocedural
analysis, shape checking, and a runtime lock watcher.

Four parts (full docs: docs/STATIC_ANALYSIS.md):

* :mod:`repro.analysis.lint` — an AST lint pass whose rules encode the
  concurrency and serving contracts this codebase has broken before
  (``python -m repro.analysis.lint src --strict`` is the CI gate).
* :mod:`repro.analysis.callgraph` + :mod:`repro.analysis.interproc` —
  a project-wide symbol table / call graph and the interprocedural
  rules that run over it (transitive blocking-under-lock, requires-lock
  propagation, guarded-container escape analysis).
* :mod:`repro.analysis.shapes` — walks a declared input shape through
  the layers' own ``output_shape`` contracts of a ``Sequential`` and
  checks parameter dtypes; wired into ``ModelRegistry.publish`` and
  rollout deploys as a gate.
* :mod:`repro.analysis.lockwatch` — instrumented lock factories that
  build a runtime lock-order graph and fail tests on cycles or
  over-budget hold spans (enable with ``REPRO_LOCKWATCH=1``).

Submodules are loaded lazily so ``python -m repro.analysis.lint`` does
not import :mod:`repro.analysis.lint` twice (once as a package attribute
and once as ``__main__``).
"""

import importlib

_EXPORTS = {
    "Finding": "repro.analysis.findings",
    "Severity": "repro.analysis.findings",
    "Suppression": "repro.analysis.findings",
    "LintReport": "repro.analysis.lint",
    "load_baseline": "repro.analysis.lint",
    "run_lint": "repro.analysis.lint",
    "write_baseline": "repro.analysis.lint",
    "ProjectIndex": "repro.analysis.callgraph",
    "build_index": "repro.analysis.callgraph",
    "run_interproc": "repro.analysis.interproc",
    "ShapeReport": "repro.analysis.shapes",
    "TensorSpec": "repro.analysis.shapes",
    "check_model": "repro.analysis.shapes",
    "validate_model": "repro.analysis.shapes",
    "LockWatch": "repro.analysis.lockwatch",
    "budget_from_env": "repro.analysis.lockwatch",
    "enabled_from_env": "repro.analysis.lockwatch",
    "watched": "repro.analysis.lockwatch",
    "ALL_RULES": "repro.analysis.rules",
    "INTERPROC_RULE_IDS": "repro.analysis.rules",
    "KNOWN_RULE_IDS": "repro.analysis.rules",
    "LintContext": "repro.analysis.rules",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.analysis' has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
