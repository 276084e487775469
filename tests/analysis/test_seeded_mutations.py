"""Acceptance: re-introducing a fixed bug into the *real* source files
must trip the corresponding rule.

Each test takes the current (clean) module, re-creates one historical
defect by string surgery, writes the mutant to a temp file, and asserts
the linter catches it — proving the rules guard the actual code paths,
not just synthetic fixtures.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import run_lint
import repro.serving.client as client_module
import repro.serving.deployments as deployments_module
import repro.serving.rollout as rollout_module


def _mutate(module, old: str, new: str, tmp_path: Path) -> Path:
    source = Path(module.__file__).read_text()
    assert old in source, "mutation anchor drifted — update this test"
    mutant = tmp_path / Path(module.__file__).name
    mutant.write_text(source.replace(old, new))
    return mutant


def _rules_for(report, path: Path):
    return {f.rule for f in report.findings if f.path == str(path)}


def test_clean_sources_have_no_findings(tmp_path):
    for module in (rollout_module, deployments_module, client_module):
        report = run_lint([str(Path(module.__file__))])
        assert report.findings == [], module.__name__


def test_guarded_attribute_mutated_outside_lock_is_caught(tmp_path):
    # revert the check() fix: write the lock-guarded judging flag bare
    mutant = _mutate(
        rollout_module,
        "            with self._lock:\n                active.judging = False",
        "            active.judging = False",
        tmp_path,
    )
    assert "guarded-by" in _rules_for(run_lint([str(mutant)]), mutant)


def test_deployment_table_written_outside_its_lock_is_caught(tmp_path):
    # the per-replica serving state moved out of rollout.py into the one
    # DeploymentTable: a transition that flips it bare must still be caught
    mutant = _mutate(
        deployments_module,
        "        with self._lock:\n"
        "            self._records[(scenario, algorithm)] = {r.instance_id: r for r in records}",
        "        self._records[(scenario, algorithm)] = {r.instance_id: r for r in records}",
        tmp_path,
    )
    assert "guarded-by" in _rules_for(run_lint([str(mutant)]), mutant)


def test_deployment_table_leaked_by_reference_is_caught(tmp_path):
    # hand the live replica dict to callers instead of a copy
    mutant = _mutate(
        deployments_module,
        "            return list(self._records.get((scenario, algorithm), {}).values())",
        "            return self._records",
        tmp_path,
    )
    assert "mutable-return" in _rules_for(run_lint([str(mutant)]), mutant)


def test_urlopen_under_lock_is_caught(tmp_path):
    # block the client's idle-stack lock on a network round-trip
    mutant = _mutate(
        client_module,
        "        with self._idle_lock:\n            idle = self._idle[replica_index]",
        "        with self._idle_lock:\n"
        '            urllib.request.urlopen("http://localhost/", timeout=0.1)\n'
        "            idle = self._idle[replica_index]",
        tmp_path,
    )
    assert "blocking-under-lock" in _rules_for(run_lint([str(mutant)]), mutant)


def test_pooled_connection_without_timeout_is_caught(tmp_path):
    # a keep-alive connection dialled with no timeout hangs its caller on a
    # wedged gateway for as long as the connection lives, not just one call
    mutant = _mutate(
        client_module,
        "http.client.HTTPConnection(host, port, timeout=self.timeout_s)",
        "http.client.HTTPConnection(host, port)",
        tmp_path,
    )
    assert "missing-timeout" in _rules_for(run_lint([str(mutant)]), mutant)


def test_socket_read_under_the_idle_lock_is_caught(tmp_path):
    # do the round trip while holding the leaf lock of the idle stacks:
    # every other caller's take/give-back then waits out a network read
    mutant = _mutate(
        client_module,
        "        with self._idle_lock:\n"
        "            idle = self._idle[replica_index]\n"
        "            connection = idle.pop() if idle else None\n",
        "        with self._idle_lock:\n"
        "            idle = self._idle[replica_index]\n"
        "            connection = idle.pop() if idle else None\n"
        "            if connection is not None:\n"
        '                connection.request("GET", path)\n'
        "                connection.getresponse()\n",
        tmp_path,
    )
    assert "blocking-under-lock" in _rules_for(run_lint([str(mutant)]), mutant)


def test_idle_stack_touched_outside_its_lock_is_caught(tmp_path):
    # give a connection back without the lock: two callers can then be
    # handed the same connection and interleave on it
    mutant = _mutate(
        client_module,
        "            with self._idle_lock:\n"
        "                self._idle[replica_index].append(connection)",
        "            self._idle[replica_index].append(connection)",
        tmp_path,
    )
    assert "guarded-by" in _rules_for(run_lint([str(mutant)]), mutant)


def test_swallowed_exception_is_caught(tmp_path):
    # gut the canary-failure recording back to a silent swallow
    source = Path(rollout_module.__file__).read_text()
    start = source.index("        except Exception as exc:")
    end = source.index("            raise\n", start) + len("            raise\n")
    swallow = "        except Exception:\n            pass\n"
    mutant_path = Path(rollout_module.__file__)
    mutant = tmp_path / mutant_path.name
    mutant.write_text(source[:start] + swallow + source[end:])
    assert "swallowed-exception" in _rules_for(run_lint([str(mutant)]), mutant)


def test_transitive_blocking_mutation_needs_the_interproc_pass(tmp_path):
    """Hide the client's network round-trip two calls away from the
    lock: the PR-7 intraprocedural rule goes blind, the call-graph pass
    still reports it with a chain witness."""
    source = Path(client_module.__file__).read_text()
    anchor = "        with self._idle_lock:\n            idle = self._idle[replica_index]"
    assert anchor in source, "mutation anchor drifted — update this test"
    mutated = source.replace(
        anchor,
        "        with self._idle_lock:\n"
        "            _warm_connection()\n"
        "            idle = self._idle[replica_index]",
    ) + (
        "\n\n"
        "def _dial():\n"
        '    urllib.request.urlopen("http://localhost/", timeout=0.1)\n'
        "\n\n"
        "def _warm_connection():\n"
        "    _dial()\n"
    )
    mutant = tmp_path / "client.py"
    mutant.write_text(mutated)

    blind = run_lint([str(mutant)], interproc=False)
    assert "transitive-blocking-under-lock" not in _rules_for(blind, mutant)
    assert "blocking-under-lock" not in _rules_for(blind, mutant)

    full = run_lint([str(mutant)])
    assert "transitive-blocking-under-lock" in _rules_for(full, mutant)
    finding = next(
        f for f in full.findings if f.rule == "transitive-blocking-under-lock"
    )
    assert "_warm_connection" in finding.message
    assert "_idle_lock" in finding.message
    assert len(finding.chain) == 3  # call site -> _warm_connection -> _dial


def test_guarded_escape_mutation_needs_the_interproc_pass(tmp_path):
    """Leak the lock-guarded rollout table through a local alias: the
    intraprocedural mutable-return rule only sees literal
    ``return self._rollouts`` spellings."""
    source = Path(rollout_module.__file__).read_text()
    anchor = "    def deploy("
    assert anchor in source, "mutation anchor drifted — update this test"
    leak = (
        "    def active_rollouts(self):\n"
        "        rollouts = self._rollouts\n"
        "        return rollouts\n"
        "\n"
    )
    mutant = tmp_path / "rollout.py"
    mutant.write_text(source.replace(anchor, leak + anchor, 1))

    blind = run_lint([str(mutant)], interproc=False)
    assert "guarded-escape" not in _rules_for(blind, mutant)
    assert "mutable-return" not in _rules_for(blind, mutant)

    full = run_lint([str(mutant)])
    assert "guarded-escape" in _rules_for(full, mutant)
    finding = next(f for f in full.findings if f.rule == "guarded-escape")
    assert "_rollouts" in finding.message
    assert "alias" in finding.message


def test_strict_gate_on_the_real_tree_passes():
    """The CI gate: zero unsuppressed findings across src/."""
    src = Path(rollout_module.__file__).parents[2]
    report = run_lint([str(src)])
    assert report.findings == [], "\n".join(f.render() for f in report.findings)
    for finding, suppression in report.suppressed:
        assert suppression.reason, f"reason-less suppression at {finding.path}:{finding.line}"
