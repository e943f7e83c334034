"""Tests of the benchmark itself: an independent oracle, the tracer and the gate.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from singfib import poisson, poly  # noqa: E402

sympy = pytest.importorskip("sympy")


def to_sympy(p: poly.Poly, symbols: dict):
    return sympy.sympify(str(p).replace("^", "**"), locals=symbols)


N3_INPUTS = [(m, k) for m, k in workloads.derive_inputs(workloads.DEFAULT_SEED) if m.n == 3]


@pytest.mark.parametrize("model, k", N3_INPUTS, ids=[m.name for m, _ in N3_INPUTS])
def test_derive_bivector_equals_sympy_determinant(model, k):
    """pi^{ij} = k det(e_i | e_j | dC_1 | ... | dC_{2n-2}), recomputed in sympy, term by term."""
    chart = model.chart
    symbols = {name: sympy.Symbol(name) for name in chart.names}
    coords = [symbols[name] for name in chart.geometric_names()]
    ng = len(coords)
    grads = [[sympy.diff(to_sympy(c, symbols), x) for x in coords] for c in model.casimirs]
    k_value = to_sympy(k, symbols)
    pi = poisson.flaschka_ratiu(model, k).pi
    for i in range(ng):
        for j in range(i + 1, ng):
            columns = [[int(r == i) for r in range(ng)], [int(r == j) for r in range(ng)]] + grads
            det = sympy.Matrix(columns).T.det(method="berkowitz")
            assert sympy.expand(k_value * det - to_sympy(pi.coeff((i, j)), symbols)) == 0, (model.name, i, j)


TRACE_SAMPLE = {
    "audit": {"bivector/fold", "casimir/cusp", "rank/fold", "leaf-audit/fold", "fibre-positivity/swallowtail"},
    "derive": {"flaschka_ratiu/lefschetz(n=3)", "jacobi/lefschetz(n=3)", "bivector-match/lefschetz(n=3)"},
    "forms": {"d2/3", "leibniz/5", "pullback-d/2", "hodge/4", "homotopy/1", "assemble_and_verify/swallowtail"},
}


def sample_items(workload: str):
    """A few items of each kind; forms keeps every swallowtail box, so branch-and-bound runs."""
    items = workloads.build(workload, workloads.DEFAULT_SEED)
    return [
        it for it in items if it.name in TRACE_SAMPLE[workload] or it.name.startswith("epsilon_bound/swallowtail")
    ]


def run_items(items, tracer=None) -> list[object]:
    """Each item's result, run in order as a pass runs them."""
    results = []
    for item in items:
        with tracer.span(item.name) if tracer is not None else nullcontext():
            results.append(item.run())
    return results


def records(items, results) -> list[str]:
    return [item.check(r)[0] for item, r in zip(items, results)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_records_equal_untraced_and_no_wrapper_stays(workload):
    originals = {name: layertrace.original(name) for name in layertrace.TRACED}
    plain_items = sample_items(workload)
    plain = records(plain_items, run_items(plain_items))
    traced_items = sample_items(workload)
    tracer = layertrace.Tracer()
    with tracer:
        assert layertrace.installed_wrappers()
        traced_results = run_items(traced_items, tracer)
    assert layertrace.installed_wrappers() == []
    assert all(layertrace.original(name) is fn for name, fn in originals.items())
    assert records(traced_items, traced_results) == plain
    assert sum(tracer.calls.values()) > 0


def test_traced_counts_repeat_exactly():
    def counts():
        tracer = layertrace.Tracer()
        with tracer:
            run_items(sample_items("forms"), tracer)
        return {k: v for k, v in tracer.metrics().items() if not k.endswith("self_s")}

    first = counts()
    assert first == counts()
    assert first["interval.certified_minimum.calls"] > 0
    assert first["interval.nodes_per_minimum"] >= 1


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 11])
def test_timed_boxes_certify_and_the_probe_counts_the_defect(seed):
    """Every timed epsilon_bound box passes its check; the unrestricted probe boxes still fail at times."""
    boxes = [it for it in workloads.build("forms", seed) if it.name.startswith("epsilon_bound/")]
    assert len(boxes) == 6 * workloads.EPS_BOXES_PER_CASE
    assert all(item.check(item.run())[1] for item in boxes)
    ratio = workloads.uncertified_ratio(seed)
    assert 0 < ratio < 1
    assert ratio == workloads.uncertified_ratio(seed)


def test_audit_items_cover_the_golden_full_run():
    golden = (workloads.GOLDEN / "audit_seed7.jsonl").read_bytes()
    assert hashlib.sha256(golden).hexdigest().startswith("4277905ae596")
    assert len(workloads.audit_pairs()) == 135


@pytest.mark.parametrize("workload", ["audit", "derive"])
def test_gate_rejects_a_changed_record(workload):
    golden = workloads.golden_records(workload)
    if workload == "audit":
        golden = golden[1:]
    records = ["".join(golden)]
    assert workloads.gate(workload, workloads.DEFAULT_SEED, [records], 1) == []
    broken = [records[0].replace('"pass"', '"fail"', 1)]
    assert workloads.gate(workload, workloads.DEFAULT_SEED, [broken], 1)
    if workload == "audit":
        # other seeds have no golden records, but a fail record still breaks the invariants
        assert workloads.gate(workload, 11, [broken], 1)


def test_harrell_davis_quantiles():
    assert run.harrell_davis([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == pytest.approx(3.0)
    assert run.harrell_davis([0.25] * 40, 0.9) == pytest.approx(0.25)
    values = [float(i) for i in range(200)]
    assert run.harrell_davis(values, 0.5) == pytest.approx(99.5, abs=0.5)
    assert run.harrell_davis(values, 0.9) == pytest.approx(180.0, abs=1.0)
