"""Acceptance: re-introducing a fixed bug into the *real* source files
must trip the corresponding rule.

Each test takes the current (clean) module, re-creates one historical
defect by string surgery and returns the mutant file; ``@seeds`` lints it
and asserts the rule it names is the only one the mutant trips — proving
the rules guard the actual code paths, not just synthetic fixtures.
Every rule has at least one such mutation.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Set

from repro.analysis import KNOWN_RULE_IDS, run_lint
import repro.core.openei as openei_module
import repro.serving.client as client_module
import repro.serving.deployments as deployments_module
import repro.serving.rollout as rollout_module

#: rule ids that some seeded mutation trips (filled by ``@seeds``)
SEEDED: Set[str] = set()


def seeds(rule_id: str):
    """Register the decorated test as a seeded mutation for ``rule_id``:
    the test returns its mutant, which must trip ``rule_id`` and nothing
    else (every mutated module lints clean as it stands)."""

    def register(test):
        SEEDED.add(rule_id)

        @functools.wraps(test)
        def run(tmp_path):
            mutant = test(tmp_path)
            rules = {f.rule for f in run_lint([str(mutant)]).findings}
            assert rules == {rule_id}

        return run

    return register


def _mutate(module, old: str, new: str, tmp_path: Path) -> Path:
    source = Path(module.__file__).read_text()
    assert old in source, "mutation anchor drifted — update this test"
    mutant = tmp_path / Path(module.__file__).name
    mutant.write_text(source.replace(old, new))
    return mutant


def test_every_rule_has_a_seeded_mutation():
    emitted_by_the_engine = {"bad-suppression", "parse-error"}
    assert sorted(KNOWN_RULE_IDS - emitted_by_the_engine - SEEDED) == []


def test_clean_sources_have_no_findings(tmp_path):
    for module in (rollout_module, deployments_module, client_module, openei_module):
        report = run_lint([str(Path(module.__file__))])
        assert report.findings == [], module.__name__


@seeds("guarded-by")
def test_guarded_attribute_mutated_outside_lock_is_caught(tmp_path):
    # revert the check() fix: write the lock-guarded judging flag bare
    return _mutate(
        rollout_module,
        "            with self._lock:\n                active.judging = False",
        "            active.judging = False",
        tmp_path,
    )


@seeds("guarded-by")
def test_deployment_table_written_outside_its_lock_is_caught(tmp_path):
    # the per-replica serving state moved out of rollout.py into the one
    # DeploymentTable: a transition that flips it bare must still be caught
    return _mutate(
        deployments_module,
        "        with self._lock:\n"
        "            self._records[(scenario, algorithm)] = {r.instance_id: r for r in records}",
        "        self._records[(scenario, algorithm)] = {r.instance_id: r for r in records}",
        tmp_path,
    )


@seeds("mutable-return")
def test_deployment_table_leaked_by_reference_is_caught(tmp_path):
    # hand the live replica dict to callers instead of a copy
    return _mutate(
        deployments_module,
        "            return list(self._records.get((scenario, algorithm), {}).values())",
        "            return self._records",
        tmp_path,
    )


@seeds("blocking-under-lock")
def test_dial_under_lock_is_caught(tmp_path):
    # block the client's idle-stack lock on a TCP connect to the replica
    return _mutate(
        client_module,
        "        with self._idle_lock:\n            idle = self._idle[replica_index]",
        "        with self._idle_lock:\n"
        "            socket.create_connection(self.addresses[replica_index], timeout=self.timeout_s)\n"
        "            idle = self._idle[replica_index]",
        tmp_path,
    )


@seeds("missing-timeout")
def test_pooled_connection_without_timeout_is_caught(tmp_path):
    # a keep-alive connection dialled with no timeout hangs its caller on a
    # wedged gateway for as long as the connection lives, not just one call
    return _mutate(
        client_module,
        "socket.create_connection(address, timeout=self.timeout_s)",
        "socket.create_connection(address)",
        tmp_path,
    )


@seeds("blocking-under-lock")
def test_socket_read_under_the_idle_lock_is_caught(tmp_path):
    # do the round trip while holding the leaf lock of the idle stacks:
    # every other caller's take/give-back then waits out a network read
    return _mutate(
        client_module,
        "        with self._idle_lock:\n"
        "            idle = self._idle[replica_index]\n"
        "            connection = idle.pop() if idle else None\n",
        "        with self._idle_lock:\n"
        "            idle = self._idle[replica_index]\n"
        "            connection = idle.pop() if idle else None\n"
        "            if connection is not None:\n"
        '                connection.sock.sendall(b"GET / HTTP/1.1\\r\\n\\r\\n")\n'
        "                connection.sock.recv_into(connection.buffer)\n",
        tmp_path,
    )


@seeds("guarded-by")
def test_idle_stack_touched_outside_its_lock_is_caught(tmp_path):
    # give a connection back without the lock: two callers can then be
    # handed the same connection and interleave on it
    return _mutate(
        client_module,
        "            with self._idle_lock:\n"
        "                self._idle[replica_index].append(connection)",
        "            self._idle[replica_index].append(connection)",
        tmp_path,
    )


@seeds("swallowed-exception")
def test_swallowed_exception_is_caught(tmp_path):
    # gut the canary-failure recording back to a silent swallow
    source = Path(rollout_module.__file__).read_text()
    start = source.index("        except Exception as exc:")
    end = source.index("            raise\n", start) + len("            raise\n")
    swallow = "        except Exception:\n            pass\n"
    mutant_path = Path(rollout_module.__file__)
    mutant = tmp_path / mutant_path.name
    mutant.write_text(source[:start] + swallow + source[end:])
    return mutant


@seeds("blocking-under-lock")
def test_transitive_blocking_mutation_needs_the_interproc_pass(tmp_path):
    """Hide the client's network round-trip two calls away from the
    lock: the call-graph pass still reports it, with a chain witness."""
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

    [finding] = run_lint([str(mutant)]).findings
    assert "_warm_connection" in finding.message
    assert "_idle_lock" in finding.message
    assert len(finding.chain) == 3  # call site -> _warm_connection -> _dial
    return mutant


@seeds("mutable-return")
def test_guarded_escape_mutation_needs_the_interproc_pass(tmp_path):
    """Leak the lock-guarded rollout table through a local alias rather
    than a literal ``return self._rollouts``."""
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

    [finding] = run_lint([str(mutant)]).findings
    assert "_rollouts" in finding.message
    assert "alias" in finding.message
    return mutant


@seeds("or-falsy-default")
def test_or_default_that_unshares_an_empty_zoo_is_caught(tmp_path):
    # the bug fixed twice: an empty shared zoo is falsy, so "or" swaps it
    # for a private one and fleet instances stop seeing each other's models
    return _mutate(
        openei_module,
        "self.zoo = zoo if zoo is not None else ModelZoo()",
        "self.zoo = zoo or ModelZoo()",
        tmp_path,
    )


@seeds("requires-lock-not-held")
def test_rollout_event_logged_outside_the_lock_is_caught(tmp_path):
    # _log appends to the lock-guarded event log and says so in its
    # contract; a deploy that logs after releasing the lock breaks it
    return _mutate(
        rollout_module,
        "            self.stats.bytes_transferred += moved\n"
        '            self._log("deploy"',
        "            self.stats.bytes_transferred += moved\n"
        '        self._log("deploy"',
        tmp_path,
    )


@seeds("mutable-default-arg")
def test_shared_default_args_dict_is_caught(tmp_path):
    # one dict shared by every call that passes no args
    return _mutate(
        openei_module,
        "args: Optional[Dict[str, object]] = None\n",
        "args: Dict[str, object] = {}\n",
        tmp_path,
    )


def test_strict_gate_on_the_real_tree_passes():
    """The CI gate: zero unsuppressed findings across src/."""
    src = Path(rollout_module.__file__).parents[2]
    report = run_lint([str(src)])
    assert report.findings == [], "\n".join(f.render() for f in report.findings)
    for finding, suppression in report.suppressed:
        assert suppression.reason, f"reason-less suppression at {finding.path}:{finding.line}"
