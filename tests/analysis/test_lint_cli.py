"""Engine/CLI satellites: ``--format json`` and baselines."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.analysis import run_lint
from repro.analysis.lint import load_baseline, main, write_baseline

FIXTURES = Path(__file__).parent / "fixtures"


def test_format_json_emits_the_full_report(capsys):
    case = FIXTURES / "case_transitive_blocking.py"
    exit_code = main([str(case), "--format", "json"])
    assert exit_code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"files_checked", "findings", "suppressed", "baselined"}
    assert payload["files_checked"] == 1
    rules = {f["rule"] for f in payload["findings"]}
    assert "blocking-under-lock" in rules
    # call-graph findings serialize their call-chain witness
    chains = [f["chain"] for f in payload["findings"] if f["chain"]]
    assert chains and all(isinstance(frame, str) for frame in chains[0])
    assert payload["suppressed"] and payload["suppressed"][0]["reason"]


def test_format_json_strict_still_gates(capsys):
    case = FIXTURES / "case_mutable_default.py"
    assert main([str(case), "--format", "json", "--strict"]) == 1
    out = capsys.readouterr()
    json.loads(out.out)  # stdout stays machine-readable even on failure


def _twin_findings_module(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        textwrap.dedent(
            """
            import threading


            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}  # guarded-by: _lock

                def one(self):
                    return self._entries

                def two(self):
                    return self._entries
            """
        )
    )
    return path


def test_baseline_grandfathers_matching_findings(tmp_path):
    path = _twin_findings_module(tmp_path)
    baseline_file = tmp_path / "baseline.json"

    assert main([str(path), "--write-baseline", str(baseline_file)]) == 0
    baseline = load_baseline(str(baseline_file))
    assert len(baseline) == 2

    report = run_lint([str(path)], baseline=baseline)
    assert report.findings == []
    assert len(report.baselined) == 2
    # the CLI gate passes against its baseline, fails without it
    assert main([str(path), "--strict", "--baseline", str(baseline_file)]) == 0
    assert main([str(path), "--strict"]) == 1


def test_baseline_matching_is_a_multiset(tmp_path):
    path = _twin_findings_module(tmp_path)
    report = run_lint([str(path)])
    assert len(report.findings) == 2
    keys = {f.baseline_key() for f in report.findings}
    assert len(keys) == 1  # same rule+message on two lines

    # only ONE copy grandfathered: the second occurrence must still fail
    once = [report.findings[0].baseline_key()]
    partial = run_lint([str(path)], baseline=once)
    assert len(partial.findings) == 1
    assert len(partial.baselined) == 1

    # a *new third* instance of a fully grandfathered pattern still fails
    source = path.read_text()
    path.write_text(
        source
        + "\n    def three(self):\n        return self._entries\n"
    )
    full_baseline = [f.baseline_key() for f in report.findings]
    grown = run_lint([str(path)], baseline=full_baseline)
    assert len(grown.baselined) == 2
    assert len(grown.findings) == 1


def test_baseline_keys_ignore_line_numbers(tmp_path):
    path = _twin_findings_module(tmp_path)
    report = run_lint([str(path)])
    baseline_file = tmp_path / "baseline.json"
    write_baseline(str(baseline_file), report)

    # shifting every line must not invalidate the baseline
    path.write_text("# a new leading comment\n" + path.read_text())
    shifted = run_lint([str(path)], baseline=load_baseline(str(baseline_file)))
    assert shifted.findings == []
    assert len(shifted.baselined) == 2
