"""Engine/CLI satellites: ``--format json``."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.lint import main

FIXTURES = Path(__file__).parent / "fixtures"


def test_format_json_emits_the_full_report(capsys):
    case = FIXTURES / "case_transitive_blocking.py"
    exit_code = main([str(case), "--format", "json"])
    assert exit_code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"files_checked", "findings", "suppressed"}
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
