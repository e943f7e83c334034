"""Leaf frames, structure covectors, and the coefficient audit."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from singfib import leaves, linalg
from singfib.catalog import ALL_KINDS, DEFORMATION_KINDS, DIM6_KINDS, get_model, random_noncritical_point
from singfib.exterior import KVector
from singfib.leaves import (
    SingularPoint,
    audit_leaf_formulas,
    defining_relations_check,
    leaf_coefficient,
    leaf_frame,
    solve_structure_covector,
)
from singfib.poisson import PoissonBivector, flaschka_ratiu
from singfib.poly import CHART6
from singfib.suite import _leaf_models

ANCHOR = (0, 0, 0, 1, 0, 1)


def test_fold_frame_at_anchor():
    frame = leaf_frame(get_model("fold", 3), ANCHOR)
    vecs = {tuple(frame.u), tuple(frame.v)}
    assert vecs == {
        (0, 0, 0, 0, 1, 0),
        (0, 0, 0, 1, 0, 1),
    }
    assert {frame.u_norm_sq, frame.v_norm_sq} == {Fraction(1), Fraction(2)}
    assert linalg.dot(frame.u, frame.v) == 0


def test_cusp_frame_off_origin():
    # at t1 = 0 the distinguished gradient restricted to the x-block is (3, 2, 0)
    model = get_model("cusp", 3)
    q = (0, 0, 0, 1, 1, 0)
    frame = leaf_frame(model, q)
    grad = [model.casimirs[-1].differentiate(v).evaluate(q) for v in CHART6.names]
    assert grad[3:] == [Fraction(3), Fraction(2), Fraction(0)]
    for vec in (frame.u, frame.v):
        assert linalg.dot(grad, vec) == 0


def test_x_axis_points_have_coordinate_kernel():
    model = get_model("swallowtail", 3)
    q = (1, 1, 1, 1, 0, 0)  # x2 = x3 = 0, x1-derivative nonzero
    frame = leaf_frame(model, q)
    span = {tuple(frame.u), tuple(frame.v)}
    assert span == {(0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)}


def test_singular_point_rejected():
    with pytest.raises(SingularPoint):
        leaf_frame(get_model("fold", 3), (0, 0, 0, 0, 0, 0))


def test_structure_covector_anchor_solution():
    model = get_model("fold", 3)
    b = flaschka_ratiu(model, 1)
    alpha = solve_structure_covector(b, ANCHOR, [0, 0, 0, 1, 0, 1])
    # the x2-component of any solution is 1/2
    assert alpha[4] == Fraction(1, 2)
    assert linalg.mat_vec(b.matrix_at(ANCHOR), alpha) == [Fraction(v) for v in (0, 0, 0, 1, 0, 1)]


def test_zero_bivector_has_empty_image():
    model = get_model("fold", 3)
    zero = PoissonBivector(model, CHART6.one(), KVector(CHART6, 2, {}))
    with pytest.raises(linalg.InconsistentSystem):
        solve_structure_covector(zero, ANCHOR, [0, 0, 0, 1, 0, 0])


def test_anchor_coefficient_value():
    coeff = leaf_coefficient(get_model("fold", 3), ANCHOR, 1)
    assert coeff.value_sq == Fraction(1, 8)  # |lambda| = 1/(2 sqrt 2)
    assert coeff.pairing_antisymmetric
    assert abs(abs(coeff.value_float) - 0.35355339) < 1e-7


def test_more_hand_computed_fold_values():
    model = get_model("fold", 3)
    # independently derived: |lambda| = 1 / (2 sqrt(x1^2 + x2^2 + x3^2))
    assert leaf_coefficient(model, (0, 0, 0, 1, 1, 0), 1).value_sq == Fraction(1, 8)
    assert leaf_coefficient(model, (0, 0, 0, 2, 0, 0), 1).value_sq == Fraction(1, 16)


def test_k_scaling_halves_the_coefficient():
    model = get_model("cusp", 3)
    q = (0, 0, 0, 1, 1, 1)
    one = leaf_coefficient(model, q, 1)
    two = leaf_coefficient(model, q, 2)
    assert two.value_sq * 4 == one.value_sq


def test_solution_ambiguity_invariant():
    model = get_model("cusp", 3)
    b = flaschka_ratiu(model, 1)
    rng = random.Random(17)
    for _ in range(10):
        q = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)]
        if model.is_critical(q):
            continue
        frame = leaf_frame(model, q)
        mat = b.matrix_at(q)
        alpha = solve_structure_covector(b, q, frame.u)
        base = linalg.dot(alpha, frame.v)
        for kernel_vec in linalg.nullspace(mat):
            shifted = [a + 3 * kv for a, kv in zip(alpha, kernel_vec)]
            assert linalg.dot(shifted, frame.v) == base


@pytest.mark.parametrize("kind, n", [("fold", 3), ("w_s", 3), ("lefschetz", 4)])
def test_leaf_coefficient_runs_two_eliminations(monkeypatch, kind, n):
    model = get_model(kind, n, Fraction(1, 2) if kind in DEFORMATION_KINDS else None)
    b = flaschka_ratiu(model, 1)
    rng = random.Random(f"elims:{kind}")
    points = [random_noncritical_point(model, rng) for _ in range(5)]
    calls = []
    rref = linalg._rref

    def counting_rref(rows):
        calls.append(len(rows[0]))
        return rref(rows)

    monkeypatch.setattr(linalg, "_rref", counting_rref)
    for q in points:
        calls.clear()
        leaf_coefficient(model, q, bivector=b)
        # the kernel of the gradient rows, then pi(q) augmented by u and v
        assert calls == [model.dim, model.dim + 2]


def test_frame_not_tangent_to_its_gradient_rows_fails(monkeypatch):
    def skewed_frame(model, q):
        frame = leaf_frame(model, q)
        # a row that pairs with u to |u|^2 != 0
        return dataclasses.replace(frame, gradients=(*frame.gradients[:-1], frame.u))

    monkeypatch.setattr(leaves, "leaf_frame", skewed_frame)
    rep = defining_relations_check(get_model("cusp", 3), 3, random.Random(5))
    assert rep.status == "fail"
    assert rep.detail == "frame not Casimir-tangent"


def test_defining_relations_all_kinds():
    for kind in ALL_KINDS:
        param = Fraction(1, 2) if kind in DEFORMATION_KINDS else None
        model = get_model(kind, 3, param)
        rep = defining_relations_check(model, 12, random.Random(f"rel:{kind}"))
        assert rep.status == "pass", (kind, rep.detail)


def test_cusp_audit_documents_value_pair():
    # catalogued formula and pipeline value at the catalogued sample point
    model = get_model("cusp", 3)
    q = (0, 0, 0, 1, 1, 1)
    derived = leaf_coefficient(model, q, 1)
    assert derived.value_sq == Fraction(1, 17)  # 1 / (9(t1-x1^2)^2 + 4x2^2 + 4x3^2)
    from singfib.reference import leaf_claim

    claim = leaf_claim(model)
    assert claim.value_sq(q) == Fraction(9, 13)  # differs: documented mismatch


AUDIT_EXPECT = {
    "fold": "mismatch",
    "fold-def1": "mismatch",
    "fold-def2": "mismatch",
    "cusp": "mismatch",
    "cusp-def1": "mismatch",
    "cusp-def2": "mismatch",
    "swallowtail": "mismatch",
    "swallowtail-def1": "mismatch",
    "swallowtail-def2": "mismatch",
    "butterfly": "mismatch",
    "butterfly-def1": "mismatch",
    "butterfly-def2": "mismatch",
    "lefschetz": "pass",
    "fold-2n": "pass",
    "b_s": "pass",
    "m_s": "pass",
    "f_s": "pass",
    "w_s": "mismatch",
}


@pytest.mark.parametrize("kind", sorted(AUDIT_EXPECT))
def test_leaf_audit_outcomes(kind):
    n = 3 if kind in DIM6_KINDS else 4
    param = Fraction(1, 2) if kind in DEFORMATION_KINDS else None
    model = get_model(kind, n, param)
    rep, rows = audit_leaf_formulas(model, 10, random.Random(f"audit:{kind}"))
    assert rep.status == AUDIT_EXPECT[kind], (kind, rep.detail)
    assert len(rows) == 10


def test_interior_product_matches_leaf_pairing():
    # cross-module check: the 2-form built from the frame pairings agrees
    # with contracting covectors through the bivector matrix
    model = get_model("cusp", 3)
    b = flaschka_ratiu(model, 1)
    rng = random.Random(99)
    for _ in range(5):
        q = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(6)]
        if model.is_critical(q):
            continue
        frame = leaf_frame(model, q)
        mat = b.matrix_at(q)
        alpha = solve_structure_covector(b, q, frame.u)
        beta = solve_structure_covector(b, q, frame.v)
        # pi(alpha, beta) = <alpha, B beta> = <alpha, v> = -<beta, u>
        pi_ab = linalg.dot(alpha, linalg.mat_vec(mat, beta))
        assert pi_ab == linalg.dot(alpha, frame.v)
        assert pi_ab == -linalg.dot(beta, frame.u)


# the leaf-audit and leaf-relations models (the dim-6 kinds are shared)
TIE_MODELS = {
    f"{m.kind}-{m.n}": m
    for m in (*_leaf_models(None, for_audit=True), *_leaf_models(None, for_audit=False))
}


@pytest.mark.parametrize("label", sorted(TIE_MODELS))
def test_frame_solve_agrees_with_the_closed_form_audit(label):
    # the audit's closed form 1 / sum (pi^{ij})^2 and the frame solve are
    # independent derivations; they must give the same lambda^2 at every row
    model = TIE_MODELS[label]
    _, rows = audit_leaf_formulas(model, 10, random.Random(f"tie:{label}"))
    assert len(rows) == 10
    scale_sq = model.claimed_scale**2
    for row in rows:
        assert leaf_coefficient(model, row.point).value_sq * scale_sq == row.derived_sq, row.point
