"""Leaf frames, structure covectors, and the coefficient audit."""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from singfib import catalog, leaves, linalg, poly
from singfib.catalog import (
    ALL_KINDS,
    DEFORMATION_KINDS,
    DIM6_KINDS,
    PARAMETRIC_KINDS,
    critical_points_sample,
    get_model,
    noncritical_kernel,
    noncritical_sample,
    random_noncritical_point,
)
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
from singfib.suite import leaf_model, run_suite

ANCHOR = (0, 0, 0, 1, 0, 1)


def is_critical(model, q):
    """Every critical equation vanishes at q, read from a kernel of the critical equations alone."""
    values, _ = noncritical_kernel(model, ())(*poly.integer_point(q))
    return not any(values)


def reader(b):
    """q -> (point, values, scale): one read at q of ``leaf_kernel(b)``, past its critical rows.

    What ``noncritical_sample`` hands ``defining_relations_check`` at a drawn point, at a point the test picks.
    """
    kernel = leaves.leaf_kernel(b)
    m = len(b.model.critical_locus)

    def read(q):
        point = poly.integer_point(q)
        values, scale = kernel(*point)
        return point, values[m:], scale

    return read


def frame_at(model, q):
    """The leaf frame at q of the model's pi_0 (k = 1)."""
    b = flaschka_ratiu(model, 1)
    return leaf_frame(b, *reader(b)(q)[:2])


def coefficient_at(b, q):
    """``leaf_coefficient`` of b at q, from one kernel read."""
    return leaf_coefficient(b, *reader(b)(q))


def test_fold_frame_at_anchor():
    frame = frame_at(get_model("fold", 3), ANCHOR)
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
    frame = frame_at(model, q)
    grad = [model.casimirs[-1].differentiate(v).evaluate(q) for v in CHART6.names]
    assert grad[3:] == [Fraction(3), Fraction(2), Fraction(0)]
    for vec in (frame.u, frame.v):
        assert linalg.dot(grad, vec) == 0


def test_x_axis_points_have_coordinate_kernel():
    model = get_model("swallowtail", 3)
    q = (1, 1, 1, 1, 0, 0)  # x2 = x3 = 0, x1-derivative nonzero
    frame = frame_at(model, q)
    span = {tuple(frame.u), tuple(frame.v)}
    assert span == {(0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)}


def test_singular_point_rejected():
    with pytest.raises(SingularPoint):
        frame_at(get_model("fold", 3), (0, 0, 0, 0, 0, 0))


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
    coeff = coefficient_at(flaschka_ratiu(get_model("fold", 3), 1), ANCHOR)
    assert coeff.value_sq == Fraction(1, 8)  # |lambda| = 1/(2 sqrt 2)
    assert coeff.pairing_antisymmetric


@pytest.mark.parametrize(
    "uv, vu, antisymmetric",
    [((1, 2), (-2, 4), True), ((1, 2), (1, 2), False), ((1, -2), (3, 6), True), ((0, 5), (0, -7), True)],
)
def test_pairings_are_read_as_the_fractions_they_hold(uv, vu, antisymmetric):
    frame = frame_at(get_model("fold", 3), ANCHOR)
    coeff = leaves.LeafCoefficient(frame, uv, vu)
    assert (coeff.pairing_uv, coeff.pairing_vu) == (Fraction(*uv), Fraction(*vu))
    assert coeff.pairing_antisymmetric == (Fraction(*uv) == -Fraction(*vu)) == antisymmetric
    assert coeff.value_sq == Fraction(*uv) ** 2 / (frame.u_norm_sq * frame.v_norm_sq)


def test_more_hand_computed_fold_values():
    model = get_model("fold", 3)
    # independently derived: |lambda| = 1 / (2 sqrt(x1^2 + x2^2 + x3^2))
    assert coefficient_at(flaschka_ratiu(model, 1), (0, 0, 0, 1, 1, 0)).value_sq == Fraction(1, 8)
    assert coefficient_at(flaschka_ratiu(model, 1), (0, 0, 0, 2, 0, 0)).value_sq == Fraction(1, 16)


def test_k_scaling_halves_the_coefficient():
    # pi = k pi_0 has the leaves of pi_0 and is read off its own entries: the frame stays, lambda^2 scales by 1 / k^2
    model = get_model("cusp", 3)
    base = flaschka_ratiu(model, 1)
    read_base = reader(base)
    for k in ("2", "1 + x1^2", "x1 - 2*t1"):
        kpoly = poly.parse_poly(k, CHART6)
        scaled = flaschka_ratiu(model, kpoly)
        read_scaled = reader(scaled)
        rng = random.Random(f"k-scaling:{k}")
        for _ in range(10):
            q = random_noncritical_point(model, rng)
            kq = kpoly.evaluate(q.fractions())
            assert kq, q
            one, two = leaf_coefficient(base, *read_base(q)), leaf_coefficient(scaled, *read_scaled(q))
            assert (two.frame.u, two.frame.v) == (one.frame.u, one.frame.v)
            assert two.value_sq * kq * kq == one.value_sq, (k, q)


def test_a_k_that_vanishes_at_the_point_is_singular_there():
    # k = x1 - 1 vanishes at CUSP_POINT, so pi(q) = 0 there while pi_0(q) is not
    model = get_model("cusp", 3)
    coefficient_at(flaschka_ratiu(model, 1), CUSP_POINT)
    with pytest.raises(SingularPoint):
        coefficient_at(flaschka_ratiu(model, poly.parse_poly("x1 - 1", CHART6)), CUSP_POINT)


def test_a_vanishing_k_is_reported_as_pi_zero_not_as_a_rank_drop():
    # the kept gradient rows have full rank at CUSP_POINT: only k = x1 - 1 makes pi(q) vanish there
    model = get_model("cusp", 3)
    b = flaschka_ratiu(model, poly.parse_poly("x1 - 1", CHART6))
    point, values, _ = reader(b)(CUSP_POINT)
    with pytest.raises(SingularPoint) as exc:
        leaf_frame(b, point, values)
    assert str(exc.value) == (
        "pi(q) = 0 at (Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(1, 1), Fraction(1, 1), "
        "Fraction(1, 1)), where the Casimir differentials keep full rank"
    )


def leaf_outcome(b: PoissonBivector, q):
    try:
        coeff = coefficient_at(b, q)
    except ValueError as exc:  # SingularPoint or InconsistentSystem
        return type(exc).__name__, str(exc)
    return coeff.frame, coeff.pairing_uv, coeff.pairing_vu


@pytest.mark.parametrize("k", ["1", "-3/2", "1 + x1^2", "x1 - 2*t1", "x1 - 1"])
def test_pi_from_the_frame_entries_equals_pi_read_by_its_own_kernel(k):
    # for every k, the pi entries of the one kernel read are k(q) times pi_0(q), evaluated apart as Fractions;
    # the same pi as a base of its own (k = 1) compiles its own kernel and reads to the same frame and pairings
    model = get_model("cusp", 3)
    kpoly = poly.parse_poly(k, CHART6)
    b = flaschka_ratiu(model, kpoly)
    own = PoissonBivector(model, CHART6.one(), b.pi)
    read = reader(b)
    rng = random.Random(f"pi0:{k}")
    # k = x1 - 1 vanishes at CUSP_POINT, where both raise
    for q in [CUSP_POINT, *(random_noncritical_point(model, rng) for _ in range(10))]:
        point, values, scale = read(q)
        fq = point.fractions()
        base = b.base.coefficient_matrix(fq)
        entries = values[len(values) - len(b.pi.terms) :]
        assert [Fraction(e, scale) for e in entries] == [kpoly.evaluate(fq) * base[i][j] for i, j in b.pi.terms], q
        assert leaf_outcome(b, q) == leaf_outcome(own, q), q


def test_solution_ambiguity_invariant():
    model = get_model("cusp", 3)
    b = flaschka_ratiu(model, 1)
    rng = random.Random(17)
    for _ in range(10):
        q = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)]
        if is_critical(model, q):
            continue
        frame = frame_at(model, q)
        mat = b.matrix_at(q)
        alpha = solve_structure_covector(b, q, frame.u)
        base = linalg.dot(alpha, frame.v)
        for kernel_vec in linalg.nullspace(mat):
            shifted = [a + 3 * kv for a, kv in zip(alpha, kernel_vec)]
            assert linalg.dot(shifted, frame.v) == base


@pytest.mark.parametrize("kind, n", [("fold", 3), ("w_s", 3), ("lefschetz", 4)])
def test_leaf_coefficient_runs_no_elimination(monkeypatch, kind, n):
    model = get_model(kind, n, Fraction(1, 2) if kind in DEFORMATION_KINDS else None)
    b = flaschka_ratiu(model, 1)
    rng = random.Random(f"elims:{kind}")
    read = reader(b)
    points = [read(random_noncritical_point(model, rng)) for _ in range(5)]
    calls = []
    rref = linalg._rref

    def counting_rref(rows):
        calls.append(len(rows[0]))
        return rref(rows)

    monkeypatch.setattr(linalg, "_rref", counting_rref)
    for point in points:
        leaf_coefficient(b, *point)
    # the frame is read off the image of pi(q), and alpha and beta are closed forms
    assert calls == []


# bivectors that are not of rank 2 with the leaf plane as image, and the detail leaf-relations fails each
# with; the frame is read off their own pi(q)
CUSP_POINT = (0, 0, 0, 1, 1, 1)
WRONG_IMAGES = {
    # rank 2 with image span(e_t1, e_t2), which meets the leaf plane only in 0: the frame is not tangent
    "t1^t2": (False, [(0, 1)], "frame not Casimir-tangent"),
    # full rank: pi(q) keeps the plane span(e_t3, e_x3), but sum (pi^{ij})^2 counts all three pairs
    "t^x": (False, [(0, 3), (1, 4), (2, 5)], "lambda^2 differs from 1 / sum_{i<j} (pi^{ij})^2"),
    # pi + e_t1^e_x1: rank 4, and pi(q) v gains a t1 component
    "pi + t1^x1": (
        True,
        [(0, 3)],
        "pi(q) does not map the leaf plane onto itself: pi.v is not a nonzero multiple of u",
    ),
}


def cusp_bivector(with_pi: bool, pairs) -> PoissonBivector:
    model = get_model("cusp", 3)
    pi = KVector(CHART6, 2, {ij: CHART6.one() for ij in pairs})
    if with_pi:
        pi = flaschka_ratiu(model, 1).pi + pi
    return PoissonBivector(model, CHART6.one(), pi)


@pytest.mark.parametrize("which", sorted(WRONG_IMAGES))
def test_bivector_whose_image_is_not_the_leaf_plane_fails(monkeypatch, which):
    with_pi, pairs, detail = WRONG_IMAGES[which]
    bad = cusp_bivector(with_pi, pairs)
    monkeypatch.setattr(leaves, "flaschka_ratiu", lambda m, k=1: bad)
    rep = defining_relations_check(bad.model, 3, random.Random(5))
    assert rep.status == "fail"
    assert rep.detail == detail


def test_lambda_identity_checks_the_whole_bivector(monkeypatch):
    # e_t1^e_t2 kills the leaf plane, so rho and sigma stay; sum (pi^{ij})^2 grows
    bad = cusp_bivector(True, [(0, 1)])
    with pytest.raises(linalg.InconsistentSystem, match="lambda\\^2 differs"):
        coefficient_at(bad, CUSP_POINT)
    monkeypatch.setattr(leaves, "flaschka_ratiu", lambda m, k=1: bad)
    first = random_noncritical_point(bad.model, random.Random(5))
    rep = defining_relations_check(bad.model, 3, random.Random(5))
    assert rep.status == "fail"
    assert rep.detail.startswith("lambda^2 differs")
    assert rep.witness == str(first.fractions())


@pytest.mark.parametrize("kind", ["cusp", "lefschetz", "w_s"])
def test_integer_frame_is_a_positive_multiple_of_the_fraction_frame(kind):
    # the frame built over Fractions: nullspace of the evaluated gradients,
    # then v = w - (<w,u> / <u,u>) u; the integer frame keeps its orientation
    model = get_model(kind, 3)
    rng = random.Random(f"frame:{kind}")
    read = reader(flaschka_ratiu(model, 1))
    for _ in range(10):
        point = random_noncritical_point(model, rng)
        q = point.fractions()
        rows = [[g.evaluate(q) for g in row] for row in model.casimir_gradients]
        u, w = linalg.nullspace(rows)
        coeff = linalg.dot(w, u) / linalg.dot(u, u)
        v = [wi - coeff * ui for wi, ui in zip(w, u)]
        frame = leaf_frame(flaschka_ratiu(model, 1), *read(point)[:2])
        for got, want in ((frame.u, u), (frame.v, v)):
            i = next(i for i, x in enumerate(want) if x)
            ratio = got[i] / want[i]
            assert ratio > 0
            assert list(got) == [ratio * x for x in want]


PADDED_MODELS = [(kind, 3) for kind in ALL_KINDS] + [(kind, 6) for kind in PARAMETRIC_KINDS]


def full_gradient_rows(model, q):
    """Every Casimir's gradient row at q on every geometric column, all times one positive integer.

    The oracle for the frame, which keeps only the non-coordinate rows on the free columns N.
    """
    kernel = poly.IntegerKernel(model.chart, [g for row in model.casimir_gradients for g in row])
    values, _ = kernel(*poly.integer_point(q))
    return [values[r : r + model.dim] for r in range(0, len(values), model.dim)]


def gram_schmidt_step(u, w):
    """|u|^2 times the component of w orthogonal to u, in integers."""
    uu, wu = leaves._dot(u, u), leaves._dot(w, u)
    return [uu * wi - wu * ui for wi, ui in zip(w, u)]


def elimination_frame(b, q, values):
    """The leaf frame by elimination, the oracle for the closed form ``leaf_frame``, from the same read.

    The two primitive vectors of ``integer_nullspace`` of the kept rows on N,
    padded with zeros off N, are u and w, and one integer Gram-Schmidt step
    gives v.  Only the gradient rows of ``leaf_kernel`` are read; the
    entries of pi that follow them are not.
    """
    model = b.model
    free = model.casimir_split.free
    width = len(free)
    rows = tuple(tuple(values[r : r + width]) for r in range(0, width * len(model.casimir_split.rows), width))
    kernel = linalg.integer_nullspace(list(rows) or [[0] * width])
    if len(kernel) != 2:
        raise SingularPoint(
            f"Casimir differentials drop rank at {tuple(q.fractions())}: kernel dimension {len(kernel)}"
        )
    u, w = [0] * model.chart.n_geom, [0] * model.chart.n_geom
    for full, vec in zip((u, w), kernel):
        for a, x in zip(free, vec):
            full[a] = x
    v = linalg.primitive(gram_schmidt_step(u, w))
    return leaves.LeafFrame(tuple(u), tuple(v), leaves._dot(u, u), leaves._dot(v, v), rows)


def frame_or_error(frame_fn, b, read, q):
    try:
        return frame_fn(b, *read(q)[:2])
    except SingularPoint as exc:
        return f"SingularPoint: {exc}"


def pivot_moving_points(model, q):
    """q with each subset of the free coordinates N set to 0, once alone and once with every other coordinate.

    So x1 = 0, gradient rows along one axis (t1 = x1 = x2 = 0 for the cusp)
    and all rows 0 are among them.
    """
    free = model.casimir_split.free
    others = [a for a in range(model.chart.n_geom) if a not in free]
    for size in range(1, len(free) + 1):
        for zeroed in combinations(free, size):
            for extra in ((), others):
                p = list(q.fractions())
                for a in (*zeroed, *extra):
                    p[a] = Fraction(0)
                yield p


def projection_model():
    """The cusp chart with every Casimir a coordinate (t1, t2, t3, x1): r = 0, N = (x2, x3)."""
    model = get_model("cusp", 3)
    return dataclasses.replace(model, casimirs=tuple(CHART6.var(v) for v in ("t1", "t2", "t3", "x1")))


FRAME_MODELS = {f"{kind}-{n}": (kind, n) for kind, n in PADDED_MODELS}


@pytest.mark.parametrize("label", [*FRAME_MODELS, "projection"])
def test_closed_form_frame_equals_the_elimination_frame(label):
    if label == "projection":
        model = projection_model()
    else:
        kind, n = FRAME_MODELS[label]
        model = get_model(kind, n, Fraction(1, 2) if kind in DEFORMATION_KINDS else None)
    rng = random.Random(f"closed-frame:{label}")
    b = flaschka_ratiu(model, 1)
    read = reader(b)
    for _ in range(40):
        q = random_noncritical_point(model, rng)
        assert leaf_frame(b, *read(q)[:2]) == elimination_frame(b, *read(q)[:2]), q
    for _ in range(4):
        for p in pivot_moving_points(model, random_noncritical_point(model, rng)):
            assert frame_or_error(leaf_frame, b, read, p) == frame_or_error(elimination_frame, b, read, p), p


@pytest.mark.parametrize("kind, n", PADDED_MODELS)
def test_padded_leaf_kernel_is_the_full_kernel(kind, n):
    model = get_model(kind, n, Fraction(1, 2) if kind in DEFORMATION_KINDS else None)
    free = model.casimir_split.free
    rng = random.Random(f"padded:{kind}:{n}")
    b = flaschka_ratiu(model, 1)
    read = reader(b)
    for _ in range(8):
        q = random_noncritical_point(model, rng)
        frame = leaf_frame(b, *read(q)[:2])
        # the frame keeps the kept rows on N, times one positive integer
        full = full_gradient_rows(model, q)
        restricted = [[full[k][a] for a in free] for k in model.casimir_split.rows]
        assert [len(row) for row in frame.gradients] == [len(free)] * len(restricted)
        x, y = next((x, y) for r, g in zip(restricted, frame.gradients) for x, y in zip(r, g) if x)
        assert x * y > 0
        assert all(gi * x == ri * y for r, g in zip(restricted, frame.gradients) for ri, gi in zip(r, g))
        # u is the first kernel vector of all the full rows, and v is the second made orthogonal to u
        u, w = linalg.integer_nullspace(full)
        assert frame.u == tuple(u)
        assert list(frame.v) == linalg.primitive(gram_schmidt_step(u, w))


def test_leaf_frame_of_a_projection_eliminates_nothing():
    # every Casimir a coordinate: no row is left, and the leaf plane is spanned by e_x2 and e_x3
    projection = projection_model()
    assert projection.casimir_split.rows == ()
    frame = frame_at(projection, ANCHOR)
    assert (frame.u, frame.v) == ((0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
    assert frame.gradients == ()
    assert [list(v) for v in (frame.u, frame.v)] == linalg.integer_nullspace(full_gradient_rows(projection, ANCHOR))


@pytest.mark.parametrize("kind", ["fold", "cusp", "lefschetz", "w_s"])
def test_reduced_kernel_is_singular_where_the_full_kernel_is(kind):
    model = get_model(kind, 3)
    for q in critical_points_sample(model, 10, random.Random(f"singular:{kind}")):
        full = linalg.integer_nullspace(full_gradient_rows(model, q))
        try:
            frame = frame_at(model, q)
        except SingularPoint:
            assert len(full) != 2
        else:
            assert len(full) == 2 and frame.u == tuple(full[0])


def test_frame_not_tangent_to_its_gradient_rows_fails(monkeypatch):
    def skewed_frame(b, q, values):
        frame = leaf_frame(b, q, values)
        # a last kept row that pairs with u on N to |u|^2 != 0
        u_on_free = tuple(frame.u[a] for a in b.model.casimir_split.free)
        return dataclasses.replace(frame, gradients=(*frame.gradients[:-1], u_on_free))

    monkeypatch.setattr(leaves, "leaf_frame", skewed_frame)
    rep = defining_relations_check(get_model("cusp", 3), 3, random.Random(5))
    assert rep.status == "fail"
    assert rep.detail == "frame not Casimir-tangent"


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_negated_entry_of_pi0_fails_the_leaf_relations(kind):
    # the frame is the image of pi(q) = pi_0(q), so a wrong pi_0 gives a frame off the leaf plane; on three free
    # columns pi_0 keeps rank 2 and the gradient rows see it, on four (lefschetz, w_s) it gains rank 4
    model = get_model(kind, 3, Fraction(1, 2) if kind in DEFORMATION_KINDS else None)
    terms = dict(model.determinant_bivector.terms)
    first = next(iter(terms))
    terms[first] = -terms[first]
    bad = dataclasses.replace(model)
    vars(bad)["determinant_bivector"] = KVector(model.chart, 2, terms)
    rep = defining_relations_check(bad, 12, random.Random(f"negated:{kind}"))
    assert rep.status == "fail"
    if len(terms) == 3:
        assert rep.detail == "frame not Casimir-tangent"
    else:
        assert rep.detail.endswith("pi.v is not a nonzero multiple of u")


def test_defining_relations_all_kinds():
    for kind in ALL_KINDS:
        param = Fraction(1, 2) if kind in DEFORMATION_KINDS else None
        model = get_model(kind, 3, param)
        rep = defining_relations_check(model, 12, random.Random(f"rel:{kind}"))
        assert rep.status == "pass", (kind, rep.detail)


@pytest.mark.parametrize("kind, n", [("fold", 3), ("cusp", 3), ("lefschetz", 4), ("w_s", 3)])
def test_leaf_relations_read_one_kernel_per_drawn_point(monkeypatch, kind, n):
    # the critical equations, the gradient rows and pi are one kernel, read once at each drawn point
    model = get_model(kind, n, Fraction(1, 2) if kind in DEFORMATION_KINDS else None)
    draws, reads = [], []
    draw, read = catalog.random_point, poly.IntegerKernel.__call__
    monkeypatch.setattr(catalog, "random_point", lambda m, rng: draws.append(1) or draw(m, rng))
    monkeypatch.setattr(poly.IntegerKernel, "__call__", lambda self, *a: reads.append(1) or read(self, *a))
    rep = defining_relations_check(model, 10, random.Random(f"reads:{kind}"))
    assert rep.status == "pass", rep.detail
    assert len(reads) == len(draws) >= 10


def test_cusp_audit_documents_value_pair():
    # catalogued formula and pipeline value at the catalogued sample point
    model = get_model("cusp", 3)
    q = (0, 0, 0, 1, 1, 1)
    derived = coefficient_at(flaschka_ratiu(model, 1), q)
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
        if is_critical(model, q):
            continue
        frame = frame_at(model, q)
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
    for m in (leaf_model(kind, for_audit) for for_audit in (True, False) for kind in ALL_KINDS)
}


@pytest.mark.parametrize("label", sorted(TIE_MODELS))
def test_closed_form_pairings_equal_the_elimination(label):
    # <alpha, v> from alpha = (d / rho) v equals the pairing of any solution
    # of pi . alpha = u found by elimination (they differ by ker pi, which is
    # orthogonal to the leaf plane); likewise <beta, u>
    model = TIE_MODELS[label]
    b = flaschka_ratiu(model, 1)
    rng = random.Random(f"pairing:{label}")
    read = reader(b)
    for _ in range(10):
        point = random_noncritical_point(model, rng)
        q = point.fractions()
        coeff = leaf_coefficient(b, *read(point))
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
    b = flaschka_ratiu(model, 1)
    read = reader(b)
    for row in rows:
        assert leaf_coefficient(b, *read(row.point)).value_sq * scale_sq == row.derived_sq, row.point


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
    q = random_noncritical_point(model, random.Random(f"claim:{kind}")).fractions()
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


def _wrinkled_claim(model):
    """The b_s, m_s and f_s claims' num and den, written out here as the oracle."""
    chart = model.chart
    t = chart.var(f"t{2 * model.n - 3}")
    x1, x2, x3 = chart.var("x1"), chart.var("x2"), chart.var("x3")
    s = chart.var("s_par") if model.param is None else chart.const(model.param)
    r = x2 * x2 + x3 * x3
    if model.kind == "b_s":
        a = s - t * t + x1 * x1
        return a, 9 * a**4 + 4 * a * a * r
    if model.kind == "m_s":
        a = s - t * t - x1 * x1
        return -a, 9 * a**4 + 4 * a * a * r
    a = t - 2 * s * x1 + 4 * x1**3
    return a, a**4 + 4 * a * a * r


@pytest.mark.parametrize("param", [None, Fraction(0), Fraction(1, 2)], ids=["symbolic", "s=0", "half"])
@pytest.mark.parametrize("kind", ("b_s", "m_s", "f_s"))
@pytest.mark.parametrize("n", (3, 4))
def test_wrinkled_claims_are_the_written_formulas(n, kind, param):
    model = get_model(kind, n, param)
    claim = leaf_claim(model)
    num, den = _wrinkled_claim(model)
    assert (claim.num, claim.den) == (num, (den,))
    assert claim.text == f"({num}) / sqrt({den})"


WS_PARAMS = pytest.mark.parametrize("param", [None, Fraction(1, 2)], ids=["symbolic", "half"])


@WS_PARAMS
def test_ws_claim_is_the_product_formula(param):
    model = get_model("w_s", 4, param)
    claim = leaf_claim(model)
    factors = _ws_factors(model)
    rng = random.Random(f"ws-claim:{param}")
    checked = 0
    for _ in range(40):
        q = random_noncritical_point(model, rng).fractions()
        b, s_num, s_den, mu_a, mu_b = (p.evaluate(q) for p in factors)
        if 0 in (b, mu_a, mu_b, s_den):
            continue  # the audit skips these points; see the next test
        assert claim.value_sq(q) == (b * s_num) ** 2 / (4 * b * b * mu_a * mu_b * s_den), q
        checked += 1
    assert checked >= 30


def _claim_by_evaluation(claim, q):
    """num^2 / prod(den) from Poly.evaluate, each factor on its own; ZeroDivisionError where one vanishes."""
    return claim.num.evaluate(q) ** 2 / math.prod(factor.evaluate(q) for factor in claim.den)


def _value_agrees(claim, q) -> bool:
    """value_sq equals the evaluated formula, or both raise ZeroDivisionError; True when they raise."""
    try:
        want = _claim_by_evaluation(claim, q)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            claim.value_sq(q)
        return True
    assert claim.value_sq(q) == want, q
    return False


AUDIT_MODELS = [leaf_model(kind, for_audit=True) for kind in ALL_KINDS]


@pytest.mark.parametrize("model", AUDIT_MODELS, ids=[m.name for m in AUDIT_MODELS])
def test_claim_value_equals_the_evaluated_formula(model):
    claim = leaf_claim(model)
    rng = random.Random(f"claim-value:{model.name}")
    raised = sum(_value_agrees(claim, random_noncritical_point(model, rng).fractions()) for _ in range(20))
    assert raised < 10
    # small coordinates, so that a factor of den sometimes vanishes
    for _ in range(60):
        _value_agrees(claim, [Fraction(rng.randint(-1, 1), rng.randint(1, 2)) for _ in range(model.chart.dim)])


def test_claim_value_raises_where_the_fold_denominator_vanishes():
    model = get_model("fold", 3)
    claim = leaf_claim(model)
    chart = model.chart
    for x2 in (Fraction(0), Fraction(1), Fraction(-3, 2)):
        q = [Fraction(1, 3)] * chart.dim
        q[chart.index("x1")] = q[chart.index("x3")] = Fraction(0)
        q[chart.index("x2")] = x2
        assert _value_agrees(claim, q)


def _audit_row_by_fractions(model, point):
    """(derived, claimed) lambda^2 from Poly.evaluate in Fractions; None where either side divides by zero."""
    q = point.fractions()
    try:
        norm_sq = sum(c.evaluate(q) ** 2 for c in flaschka_ratiu(model, 1).pi.terms.values())
        return model.claimed_scale**2 / norm_sq, _claim_by_evaluation(leaf_claim(model), q)
    except ZeroDivisionError:
        return None


@pytest.mark.parametrize("model", AUDIT_MODELS, ids=[m.name for m in AUDIT_MODELS])
def test_audit_rows_equal_the_fraction_computation(model, monkeypatch):
    drawn = []

    def recording_sampler(m, kernel, rng):
        sample = noncritical_sample(m, kernel, rng)
        drawn.append(sample[0])
        return sample

    monkeypatch.setattr(leaves, "noncritical_sample", recording_sampler)
    _, rows = audit_leaf_formulas(model, 20, random.Random(f"audit-rows:{model.name}"))
    expected = [(q, values) for q in drawn if (values := _audit_row_by_fractions(model, q)) is not None]
    assert [row.point for row in rows] == [q for q, _ in expected]
    for row, (_, (derived, claimed)) in zip(rows, expected):
        assert (row.derived_sq, row.claimed_sq, row.match) == (derived, claimed, derived == claimed), row.point


def test_audit_skips_the_points_where_a_claim_factor_vanishes(monkeypatch):
    # the fold claim's den 4(x1^2 + x3^2) vanishes at x1 = x3 = 0, off the critical locus where x2 != 0
    model = get_model("fold", 3)
    drawn = [(1, 1, 1, 0, 1, 0), ANCHOR, (0, 0, 0, 0, Fraction(-2, 3), 0), (0, 0, 0, 1, 1, 0)]
    points = iter(poly.integer_point(q) for q in drawn)

    def fixed_sampler(m, kernel, rng):
        q = next(points)
        values, scale = kernel(*q)
        return q, values[len(m.critical_locus) :], scale

    monkeypatch.setattr(leaves, "noncritical_sample", fixed_sampler)
    rep, rows = audit_leaf_formulas(model, 2, random.Random(0))
    for q in drawn[0], drawn[2]:
        assert _audit_row_by_fractions(model, poly.integer_point(q)) is None
        with pytest.raises(ZeroDivisionError):
            leaf_claim(model).value_sq(q)
    assert [tuple(row.point.fractions()) for row in rows] == [ANCHOR, drawn[3]]
    assert [(row.derived_sq, row.claimed_sq, row.match) for row in rows] == [
        (Fraction(1, 8), Fraction(1, 8), True),
        (Fraction(1, 8), Fraction(1, 4), False),
    ]
    assert (rep.status, rep.detail) == ("mismatch", f"1 of 2 points disagree with {leaf_claim(model).text}")


def test_audit_and_near_symplectic_evaluate_no_polynomial(monkeypatch):
    calls = []
    evaluate = poly.Poly.evaluate

    def counting_evaluate(self, point):
        calls.append(self)
        return evaluate(self, point)

    monkeypatch.setattr(poly.Poly, "evaluate", counting_evaluate)
    reports = run_suite(checks=["leaf-audit", "near-symplectic"])
    assert len(reports) > 1 and not any(r.status == "fail" for r in reports)
    assert calls == []


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
