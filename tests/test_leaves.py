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
from singfib.reference import LeafClaim, leaf_claim
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
def test_leaf_coefficient_runs_one_elimination(monkeypatch, kind, n):
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
        # the kernel of the gradient rows, on 2n columns; alpha and beta are closed forms
        assert calls == [model.dim]


# bivectors that are not of rank 2 with the leaf plane as image, at a cusp
# point where u = (0, 0, 0, -2, 3, 0) and v = (0, 0, 0, 6, 4, 13)
CUSP_POINT = (0, 0, 0, 1, 1, 1)
WRONG_IMAGES = {
    # image span(e_t1, e_t2), which meets the leaf plane only in 0
    "t1^t2": (False, [(0, 1)]),
    # full rank: the image holds the leaf plane, but pi(q) does not keep it
    "t^x": (False, [(0, 3), (1, 4), (2, 5)]),
    # pi + e_t1^e_x1: pi(q) v agrees with rho u in the x-block but gains a t1 component
    "pi + t1^x1": (True, [(0, 3)]),
}


def cusp_bivector(with_pi: bool, pairs) -> PoissonBivector:
    model = get_model("cusp", 3)
    pi = KVector(CHART6, 2, {ij: CHART6.one() for ij in pairs})
    if with_pi:
        pi = flaschka_ratiu(model, 1).pi + pi
    return PoissonBivector(model, CHART6.one(), pi)


@pytest.mark.parametrize("which", sorted(WRONG_IMAGES))
def test_bivector_whose_image_is_not_the_leaf_plane_fails(monkeypatch, which):
    model = get_model("cusp", 3)
    bad = cusp_bivector(*WRONG_IMAGES[which])
    with pytest.raises(linalg.InconsistentSystem, match="leaf plane"):
        leaf_coefficient(model, CUSP_POINT, bivector=bad)
    monkeypatch.setattr(leaves, "flaschka_ratiu", lambda m, k=1: bad)
    rep = defining_relations_check(model, 3, random.Random(5))
    assert rep.status == "fail"
    assert "leaf plane" in rep.detail


def test_lambda_identity_checks_the_whole_bivector(monkeypatch):
    # e_t1^e_t2 kills the leaf plane, so rho and sigma stay; sum (pi^{ij})^2 grows
    bad = cusp_bivector(True, [(0, 1)])
    with pytest.raises(linalg.InconsistentSystem, match="lambda\\^2 differs"):
        leaf_coefficient(bad.model, CUSP_POINT, bivector=bad)
    monkeypatch.setattr(leaves, "flaschka_ratiu", lambda m, k=1: bad)
    first = random_noncritical_point(bad.model, random.Random(5))
    rep = defining_relations_check(bad.model, 3, random.Random(5))
    assert rep.status == "fail"
    assert rep.detail.startswith("lambda^2 differs")
    assert rep.witness == str(first)


@pytest.mark.parametrize("kind", ["cusp", "lefschetz", "w_s"])
def test_integer_frame_is_a_positive_multiple_of_the_fraction_frame(kind):
    # the frame built over Fractions: nullspace of the evaluated gradients,
    # then v = w - (<w,u> / <u,u>) u; the integer frame keeps its orientation
    model = get_model(kind, 3)
    rng = random.Random(f"frame:{kind}")
    for _ in range(10):
        q = random_noncritical_point(model, rng)
        rows = [[g.evaluate(q) for g in row] for row in model.casimir_gradients]
        u, w = linalg.nullspace(rows)
        coeff = linalg.dot(w, u) / linalg.dot(u, u)
        v = [wi - coeff * ui for wi, ui in zip(w, u)]
        frame = leaf_frame(model, q)
        for got, want in ((frame.u, u), (frame.v, v)):
            i = next(i for i, x in enumerate(want) if x)
            ratio = got[i] / want[i]
            assert ratio > 0
            assert list(got) == [ratio * x for x in want]


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
def test_closed_form_pairings_equal_the_elimination(label):
    # <alpha, v> from alpha = (d / rho) v equals the pairing of any solution
    # of pi . alpha = u found by elimination (they differ by ker pi, which is
    # orthogonal to the leaf plane); likewise <beta, u>
    model = TIE_MODELS[label]
    b = flaschka_ratiu(model, 1)
    rng = random.Random(f"pairing:{label}")
    for _ in range(10):
        q = random_noncritical_point(model, rng)
        coeff = leaf_coefficient(model, q, bivector=b)
        u, v = coeff.frame.u, coeff.frame.v
        assert coeff.pairing_uv == linalg.dot(solve_structure_covector(b, q, u), v), q
        assert coeff.pairing_vu == linalg.dot(solve_structure_covector(b, q, v), u), q


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


# -- one claim type for every kind -----------------------------------------------------


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_leaf_claim_is_built_for_every_kind(kind):
    model = get_model(kind, 3)
    claim = leaf_claim(model)
    assert isinstance(claim, LeafClaim) and claim.den
    if kind == "w_s":
        assert claim.text == "w_s mu-expression"
    else:
        assert claim.text == f"({claim.num}) / sqrt({claim.den[0]})" and len(claim.den) == 1
    q = random_noncritical_point(model, random.Random(f"claim:{kind}"))
    den = 1
    for factor in claim.den:
        den *= factor.evaluate(q)
    if den:
        assert claim.value_sq(q) == claim.num.evaluate(q) ** 2 / den


def _ws_factors(model):
    """The w_s claim's polynomials b, s_num, s_den, mu_a, mu_b, written out here as the oracle."""
    chart = model.chart
    t = chart.var(f"t{2 * model.n - 3}")
    x1, x2, x3 = chart.var("x1"), chart.var("x2"), chart.var("x3")
    s = chart.var("s_par") if model.param is None else chart.const(model.param)
    b = t * x2 + x1 * x3
    square_sum = (s * t + 2 * (t * t + x1 * x1)) ** 2 + (x3 * (s + 2 * t) - 2 * x1 * x2) ** 2
    r2 = t * t + x1 * x1 + x2 * x2 + x3 * x3
    mu_a = s * s * (t * t + x2 * x2 + x3 * x3) + 4 * s * t * r2 + 4 * r2 * r2
    mu_b = (
        s * s * (t * t + x3 * x3)
        + 4 * (t * t + x1 * x1) * r2
        + 4 * s * (t**3 - x1 * x2 * x3 + t * (x1 * x1 + x3 * x3))
    )
    return b, square_sum + 4 * b, square_sum + 4 * b * b, mu_a, mu_b


WS_PARAMS = pytest.mark.parametrize("param", [None, Fraction(1, 2)], ids=["symbolic", "half"])


@WS_PARAMS
def test_ws_claim_is_the_product_formula(param):
    model = get_model("w_s", 4, param)
    claim = leaf_claim(model)
    factors = _ws_factors(model)
    rng = random.Random(f"ws-claim:{param}")
    checked = 0
    for _ in range(40):
        q = random_noncritical_point(model, rng)
        b, s_num, s_den, mu_a, mu_b = (p.evaluate(q) for p in factors)
        if 0 in (b, mu_a, mu_b, s_den):
            continue  # the audit skips these points; see the next test
        assert claim.value_sq(q) == (b * s_num) ** 2 / (4 * b * b * mu_a * mu_b * s_den), q
        checked += 1
    assert checked >= 30


@WS_PARAMS
def test_ws_claim_degenerates_exactly_where_a_factor_vanishes(param):
    model = get_model("w_s", 4, param)
    claim = leaf_claim(model)
    factors = _ws_factors(model)
    rng = random.Random(f"ws-zero:{param}")
    raised = 0
    for _ in range(200):
        # small coordinates, so that b, mu_a, mu_b or s_den often vanish
        q = [Fraction(rng.randint(-1, 1), rng.randint(1, 2)) for _ in range(model.chart.dim)]
        b, s_num, s_den, mu_a, mu_b = (p.evaluate(q) for p in factors)
        if 0 in (b, mu_a, mu_b, s_den):
            raised += 1
            with pytest.raises(ZeroDivisionError):
                claim.value_sq(q)
        else:
            assert claim.value_sq(q) == (b * s_num) ** 2 / (4 * b * b * mu_a * mu_b * s_den), q
    assert 0 < raised < 200
