"""``suite.CHECKS`` is the one statement of which check runs on which scope.

Each (check, scope) pair of the table, run alone, gives its slice of the
full run's records; a selection with no pair raises before any check runs;
and the benchmark's audit workload runs exactly the table's pairs.  The
benchmark file is loaded read-only, as ``test_trace_targets`` loads
``layertrace``, and never changed.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from singfib import suite
from singfib.catalog import ALL_KINDS
from singfib.report import render_records

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

TABLE_PAIRS = [(name, scope) for name, (scopes, _) in suite.CHECKS.items() for scope in scopes]


def test_names_and_scopes_come_from_the_table():
    assert suite.CHECK_NAMES == tuple(suite.CHECKS)
    assert suite.SCOPES == ALL_KINDS + ("darboux", "calculus")


def test_pairs_run_alone_concatenate_to_the_full_run():
    full = suite.run_suite(seed=7, samples=5)
    alone = []
    for name, scope in TABLE_PAIRS:
        reports = suite.run_suite(scope=scope, checks=[name], seed=7, samples=5)
        assert reports[0].check == "manifest" and len(reports) > 1, (name, scope)
        alone.extend(reports[1:])
    assert render_records(alone) == render_records(full[1:])


def test_a_selection_that_checks_nothing_raises_before_any_check(monkeypatch):
    def refuse(scope, seed, samples):
        raise AssertionError(f"a check ran on {scope}")

    for name, (scopes, _) in suite.CHECKS.items():
        monkeypatch.setitem(suite.CHECKS, name, (scopes, refuse))
    with pytest.raises(suite.SelectionError, match="nothing to check: rank has no report for scope darboux"):
        suite.run_suite(scope="darboux", checks=["rank"])
    with pytest.raises(AssertionError, match="a check ran on darboux"):
        suite.run_suite(scope="darboux", checks=["darboux"])


def test_the_audit_workload_runs_the_table_pairs(monkeypatch):
    spec = importlib.util.spec_from_file_location("_workloads_for_tests", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert workloads.audit_pairs() == TABLE_PAIRS
