"""The benchmark's per-layer trace names functions of singfib by path.

``perfbench/layertrace.py`` lists in ``TRACED`` every (module, attribute
path) whose calls and self time the traced benchmark run reports.  A
refactor that renames or drops one of them must fail here, not only in a
traced benchmark run.  The benchmark file is read, never changed.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def traced_targets() -> dict[str, tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("_layertrace_for_tests", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.TRACED)


TRACED = traced_targets()


def test_trace_list_covers_the_leaf_pipeline():
    assert len(TRACED) >= 40
    for target in [
        ("leaves", "solve_structure_covector"),
        ("reference", "ws_leaf_claim_sq"),
        ("linalg", "dot"),
        ("poisson", "PoissonBivector.matrix_at"),
    ]:
        assert target in TRACED.values()


@pytest.mark.parametrize("metric", sorted(TRACED))
def test_trace_target_resolves(metric):
    module_name, path = TRACED[metric]
    obj = importlib.import_module(f"singfib.{module_name}")
    for part in path.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
