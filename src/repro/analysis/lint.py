"""The ``repro.analysis`` lint engine and CLI.

Run it as a module::

    PYTHONPATH=src python -m repro.analysis.lint src --strict

Two passes: pass 1 parses every file, indexes which classes define
``__len__`` (feeding the ``or-falsy-default`` rule), and builds the
project-wide symbol table and call graph; pass 2 runs every file rule
over every file, then the call-graph rules
(:mod:`repro.analysis.interproc`) over the whole project, filters
findings through ``# lint: ignore[...]`` suppressions, and reports what
survives.  ``--strict`` exits non-zero on any unsuppressed finding (the CI gate);
without it the run is a report and always exits 0.  ``--format json``
emits the full report as one JSON object for artifacts and diffing.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.annotations import CommentMap, scan_comments
from repro.analysis.callgraph import ProjectIndex
from repro.analysis.findings import Finding, Severity, Suppression
from repro.analysis.interproc import (
    RULE_BLOCKING,
    RULE_MUTABLE_RETURN,
    RULE_REQUIRES_NOT_HELD,
    run_interproc,
)
from repro.analysis.rules import (
    ALL_RULES,
    DEFAULT_LEN_CLASSES,
    LintContext,
    collect_len_classes,
)

#: Every id a finding or a suppression may name: the file rules, the
#: call-graph rules, and the two the engine emits itself.
KNOWN_RULE_IDS = frozenset(
    [rule.rule_id for rule in ALL_RULES]
    + [RULE_BLOCKING, RULE_REQUIRES_NOT_HELD, RULE_MUTABLE_RETURN]
    + ["bad-suppression", "parse-error"]
)


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Tuple[Finding, Suppression]] = field(default_factory=list)
    files_checked: int = 0

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    def as_dict(self) -> Dict[str, object]:
        return {
            "files_checked": self.files_checked,
            "findings": [f.as_dict() for f in self.findings],
            "suppressed": [
                {"finding": f.as_dict(), "reason": s.reason, "line": s.line}
                for f, s in self.suppressed
            ],
        }


def discover_files(paths: Sequence[str], exclude: Sequence[str] = ()) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    unique = sorted(set(files))
    if exclude:
        unique = [
            f for f in unique if not any(pattern in str(f) for pattern in exclude)
        ]
    return unique


def _parse(path: Path) -> Tuple[Optional[str], Optional[ast.Module], Optional[Finding]]:
    """Read and parse one file; a parse failure becomes a finding, not a
    crash, so one broken fixture cannot hide every other file's report."""
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        return None, None, Finding(
            path=str(path),
            line=1,
            col=1,
            rule="parse-error",
            severity=Severity.ERROR,
            message=f"cannot read file: {exc}",
        )
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return source, None, Finding(
            path=str(path),
            line=int(exc.lineno or 1),
            col=int(exc.offset or 1),
            rule="parse-error",
            severity=Severity.ERROR,
            message=f"syntax error: {exc.msg}",
        )
    return source, tree, None


def _suppression_findings(path: str, comments: CommentMap) -> List[Finding]:
    """The ``bad-suppression`` meta-rule: every suppression must name at
    least one known rule id and carry a non-empty reason."""
    findings: List[Finding] = []
    for sup in comments.suppressions:
        problems = []
        if not sup.rules:
            problems.append("names no rule ids")
        unknown = sorted(rule for rule in sup.rules if rule not in KNOWN_RULE_IDS)
        if unknown:
            problems.append(f"names unknown rule(s): {', '.join(unknown)}")
        if not sup.reason:
            problems.append("gives no reason")
        if problems:
            findings.append(
                Finding(
                    path=path,
                    line=sup.line,
                    col=1,
                    rule="bad-suppression",
                    severity=Severity.ERROR,
                    message=f"suppression {sup.raw!r} {'; '.join(problems)}",
                    hint="write '# lint: ignore[rule-id] reason the finding is safe'",
                )
            )
    return findings


def run_lint(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    exclude: Sequence[str] = (),
) -> LintReport:
    """Lint every ``.py`` file under ``paths`` and return the report."""
    report = LintReport()
    selected = set(select) if select else None
    ignored = set(ignore) if ignore else set()

    def wanted(rule_id: str) -> bool:
        return (selected is None or rule_id in selected) and rule_id not in ignored

    parsed: List[Tuple[str, ast.Module, CommentMap]] = []
    for path in discover_files(paths, exclude):
        source, tree, parse_finding = _parse(path)
        if parse_finding is not None:
            report.findings.append(parse_finding)
            continue
        assert source is not None and tree is not None
        parsed.append((str(path), tree, scan_comments(source)))

    index = ProjectIndex.build(parsed)
    len_classes = DEFAULT_LEN_CLASSES | collect_len_classes(
        mod.nodes for mod in index.modules.values()
    )
    for path, tree, comments in parsed:
        report.files_checked += 1
        mod = index.modules[index.path_to_module[path]]
        ctx = LintContext(
            path, tree, mod.nodes, mod.guarded, mod.held_at, mod.func_of, len_classes
        )
        for rule in ALL_RULES:
            if wanted(rule.rule_id):
                _route(report, rule.check(ctx), comments.suppressions)
        if wanted("bad-suppression"):
            report.findings.extend(_suppression_findings(path, comments))

    for finding in run_interproc(index):
        if wanted(finding.rule):
            mod = index.modules[index.path_to_module[finding.path]]
            _route(report, [finding], mod.comments.suppressions)

    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report


def _route(
    report: LintReport, findings: Iterable[Finding], suppressions: List[Suppression]
) -> None:
    """File findings under ``findings`` or ``suppressed``."""
    for finding in findings:
        covering = next((s for s in suppressions if s.covers(finding)), None)
        if covering is not None and covering.reason:
            report.suppressed.append((finding, covering))
        else:
            report.findings.append(finding)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Repo-specific concurrency/serving-contract linter "
        "(rule catalog: docs/STATIC_ANALYSIS.md).",
    )
    parser.add_argument("paths", nargs="+", help="files or directories to lint")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on any unsuppressed finding (the CI gate)",
    )
    parser.add_argument(
        "--select",
        default="",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default="",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--exclude",
        action="append",
        default=[],
        metavar="SUBSTRING",
        help="skip files whose path contains SUBSTRING (repeatable)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format: human-readable text (default) or one JSON "
        "object with findings/suppressed records",
    )
    args = parser.parse_args(argv)

    select = [r.strip() for r in args.select.split(",") if r.strip()] or None
    ignore = [r.strip() for r in args.ignore.split(",") if r.strip()] or None
    report = run_lint(args.paths, select=select, ignore=ignore, exclude=args.exclude)

    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.render())
        summary = (
            f"{report.files_checked} files checked: "
            f"{len(report.errors)} error(s), {len(report.warnings)} warning(s), "
            f"{len(report.suppressed)} suppressed"
        )
        print(summary)
    if args.strict and report.findings:
        if args.format != "json":
            print("strict mode: failing on unsuppressed findings", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
