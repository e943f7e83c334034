"""Near-symplectic candidates: recipes, rescaling, repair, positivity."""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from itertools import combinations

import pytest

from singfib import linalg
from singfib.catalog import sample_locus
from singfib.exterior import KForm, PolyMap, ext_d, form_term, pullback, wedge_power, volume_form
from singfib.interval import Interval, corners, eval_at, parse_box
from singfib.nearsymp import (
    DEGENERACY_EPS,
    NSModel,
    RejectedBox,
    SOS_CUBE_FACTOR,
    assemble,
    assemble_and_verify,
    build_omega0,
    compile_degeneracy,
    darboux_normal_form,
    darboux_normal_form_check,
    darboux_normal_form_data,
    epsilon_bound,
    fibre_decomposition,
    fibre_positivity,
    ns_model,
    repair_correction,
    rescale,
    sos_top_power,
    verify_claimed_form,
)
from singfib.poly import Chart, Poly, integer_point
from singfib.reference import NS_CHART_EPS, claimed_assembled_form, claimed_correction

C = NS_CHART_EPS
U, S, T, X, Y, Z, EPS = (C.var(n) for n in ("u", "s", "t", "x", "y", "z", "eps"))


def f(coeff, *names):
    return form_term(C, coeff, names)


#: the birth, merge and flip models in the (u, s, t, x, y, z) chart, base coordinate s
WRINKLED_F4 = {
    "birth": X**3 - 3 * X * (T * T - S) + Y * Y - Z * Z,
    "merge": X**3 - 3 * X * (S - T * T) + Y * Y - Z * Z,
    "flip": X**4 - S * X * X + T * X + Y * Y - Z * Z,
}


# -- omega0 recipes -----------------------------------------------------------------


def test_fold_omega0():
    expect = (
        f(1, "u", "s")
        + f(X, "t", "x") + f(X, "y", "z")
        + f(Y, "t", "y") + f(-Y, "x", "z")
        + f(-2 * Z, "t", "z") + f(-2 * Z, "x", "y")
    )
    assert build_omega0(ns_model("fold")) == expect


def test_cusp_omega0_and_its_differential():
    w0 = build_omega0(ns_model("cusp"))
    w = 3 * (X * X - T)
    expect = (
        f(1, "u", "s")
        + f(w, "t", "x") + f(w, "y", "z")
        + f(2 * Y, "t", "y") + f(-2 * Y, "x", "z")
        + f(-2 * Z, "t", "z") + f(-2 * Z, "x", "y")
    )
    assert w0 == expect
    # d(omega0) = 6x dx^dy^dz - 3 dt^dy^dz
    assert ext_d(w0) == f(6 * X, "x", "y", "z") + f(-3, "t", "y", "z")


def test_butterfly_omega0_extra_terms():
    w0 = build_omega0(ns_model("butterfly"))
    w = 5 * X**4 - 3 * U * X * X + 2 * S * X - T
    self_dual = (
        f(1, "u", "s")
        + f(w, "t", "x") + f(w, "y", "z")
        + f(2 * Y, "t", "y") + f(-2 * Y, "x", "z")
        + f(-2 * Z, "t", "z") + f(-2 * Z, "x", "y")
    )
    # the residue: dt^du and dt^ds, outside du^ds and the self-dual basis b1, b2, b3
    assert w0 - self_dual == f(-(X**3), "t", "u") + f(X * X, "t", "s")


def test_synthetic_linear_component():
    model = NSModel("cusp", C.var("x"))
    w0 = build_omega0(model)
    assert w0 == f(1, "u", "s") + f(1, "t", "x") + f(1, "y", "z")


# -- sum of squares ------------------------------------------------------------------


def test_sos_cusp():
    (ff, gg, hh), rep = sos_top_power(build_omega0(ns_model("cusp")))
    assert (ff, gg, hh) == (3 * (X * X - T), 2 * Y, -2 * Z)
    assert rep.status == "pass"
    cube = wedge_power(build_omega0(ns_model("cusp")), 3)
    want = volume_form(C).scale((9 * (X * X - T) ** 2 + 4 * Y * Y + 4 * Z * Z).scale(SOS_CUBE_FACTOR))
    assert cube == want


def test_sos_fold_and_butterfly():
    (ff, gg, hh), rep = sos_top_power(build_omega0(ns_model("fold")))
    assert (ff, gg, hh) == (X, Y, -2 * Z)
    assert rep.status == "pass"
    # butterfly's residue terms wedge to zero against the rest
    _, rep = sos_top_power(build_omega0(ns_model("butterfly")))
    assert rep.status == "pass"


def test_sos_zero_form():
    zero = KForm(C, 2, {})
    (_, _, _), rep = sos_top_power(zero)
    assert rep.status == "pass"  # 0 = 0


# -- rescaling ------------------------------------------------------------------------


def test_rescale_cusp():
    w0 = build_omega0(ns_model("cusp"))
    scaled = rescale(w0)
    w = 3 * (X * X - T)
    assert scaled.coeff((2, 3)) == EPS * w
    assert scaled.coeff((4, 5)) == EPS * w
    assert scaled.coeff((2, 4)) == 2 * Y  # untouched
    # eps = 1 recovers the original
    back = KForm(C, 2, {i: c.substitute({"eps": 1}) for i, c in scaled.terms.items()})
    assert back == w0


def test_rescale_scales_fold_leading_component():
    scaled = rescale(build_omega0(ns_model("fold")))
    assert scaled.coeff((2, 3)) == EPS * X
    # the fold's omega0 is closed, so assembly leaves it unscaled
    assert assemble("fold", "repair").omega == build_omega0(ns_model("fold"))


def test_rescale_scales_butterfly_residue_only():
    w0 = build_omega0(ns_model("butterfly"))
    scaled = rescale(w0)
    for idx in ((2, 0), (2, 1), (2, 3), (4, 5)):  # dt^du, dt^ds and b1
        assert scaled.coeff(idx) == EPS * w0.coeff(idx)
    for idx in ((0, 1), (2, 4), (3, 5), (2, 5), (3, 4)):  # du^ds, b2 and b3
        assert scaled.coeff(idx) == w0.coeff(idx)


# -- claimed corrections ----------------------------------------------------------------


def test_claimed_corrections():
    assert claimed_correction("fold").is_zero()
    cusp = claimed_correction("cusp")
    assert cusp == f(6 * X * Y, "y", "z") + f(-3 * Y, "t", "x")
    bf = claimed_correction("butterfly")
    assert len(bf.terms) == 7
    p = -10 * X**3 + 3 * U * X - S
    assert bf.coeff((3, 4)) == 4 * Z * p  # dx^dy block of the leading product
    with pytest.raises(ValueError):
        claimed_correction("lefschetz")


# -- assembly, closedness, repair ----------------------------------------------------------


def test_cusp_claimed_assembly_is_the_catalogued_form():
    # the catalogued assembled 2-form equals the rescaled recipe plus the
    # effective correction -6xy dz^dx - 3y dt^dz
    eta_eff = f(-6 * X * Y, "z", "x") + f(-3 * Y, "t", "z")
    assembled = rescale(build_omega0(ns_model("cusp"))) + eta_eff.scale(EPS)
    assert assembled == claimed_assembled_form("cusp")
    assert ext_d(assembled).is_zero()


def test_fold_claimed_form_closed():
    assert ext_d(claimed_assembled_form("fold")).is_zero()
    assert claimed_assembled_form("fold") == build_omega0(ns_model("fold"))


def test_swallowtail_butterfly_claimed_forms_not_closed():
    assert not ext_d(claimed_assembled_form("swallowtail")).is_zero()
    assert not ext_d(claimed_assembled_form("butterfly")).is_zero()


def test_repaired_cusp_correction_matches_hand_computation():
    base = rescale(build_omega0(ns_model("cusp")))
    eta = repair_correction(base)
    expect = (
        f(3 * X * Y, "x", "z")
        + f(-3 * X * Z, "x", "y")
        + f(Y.scale(Fraction(-3, 2)), "t", "z")
        + f(Z.scale(Fraction(3, 2)), "t", "y")
    )
    assert eta == expect
    assert ext_d(base + eta.scale(EPS)).is_zero()
    # the correction vanishes on the fibre zero section, hence on the critical locus
    for coeff in eta.terms.values():
        assert coeff.substitute({"y": 0, "z": 0}).is_zero()


@pytest.mark.parametrize("label", ("fold", "cusp", "swallowtail", "butterfly", *WRINKLED_F4))
def test_fibre_radial_repair_closes_every_rescaled_omega0(label):
    model = NSModel(label, WRINKLED_F4[label]) if label in WRINKLED_F4 else ns_model(label)
    omega0 = build_omega0(model)
    # assembly rescales exactly the forms that are not already closed; the fold's
    # rescaled omega0 has defect (eps - 1) dx^dy^dz, which eps eta cannot close
    assert ext_d(omega0).is_zero() == (label == "fold")
    base = omega0 if label == "fold" else rescale(omega0)
    eta = repair_correction(base)
    assert eta.is_zero() == (label == "fold")
    assert ext_d(base + eta.scale(EPS)).is_zero()
    for coeff in eta.terms.values():
        assert coeff.substitute({"y": 0, "z": 0}).is_zero()


def test_repair_rejects_a_defect_without_fibre_degree():
    # d(eps u dt^dx) = eps du^dt^dx has no fibre-radial primitive
    with pytest.raises(ValueError, match="degree zero in the radial block"):
        repair_correction(f(EPS * U, "t", "x"))


@pytest.mark.parametrize("kind", ("fold", "cusp", "swallowtail", "butterfly"))
def test_assemble_and_verify_outcomes(kind):
    cand, reports = assemble_and_verify(kind, "claimed", 6, random.Random(f"ns:{kind}"))
    by_check = {r.check: r.status for r in reports}
    if kind == "fold":
        assert by_check["closedness"] == "pass"
        assert "repair" not in by_check
    else:
        assert by_check["closedness"] == "mismatch"
        assert by_check["repair"] == "pass"
        assert cand.eta_source == "repair"
    assert by_check["near-symplectic"] == "pass"
    assert by_check["sos-eps0"] == "pass"
    assert cand.closed()


@pytest.mark.parametrize("kind", ("fold", "cusp"))
def test_claimed_forms_pass_definition_checks(kind):
    reports = verify_claimed_form(kind, 6, random.Random(f"vc:{kind}"))
    assert [r.status for r in reports] == ["pass", "pass"]


def test_critical_points_reject_a_sampler_off_the_locus():
    # x1 - t1 = 0 sets t1 = x1, then t1 - x1 - 1 = 0 sets t1 = x1 + 1, off the first equation
    chart = Chart(("t1", "x1"))
    t1, x1 = chart.var("t1"), chart.var("x1")
    with pytest.raises(AssertionError, match="sampler missed the critical locus"):
        sample_locus(chart, [x1 - t1, t1 - x1 - 1], 1, random.Random(0), {})


@pytest.mark.parametrize("kind", ["fold", "cusp", "swallowtail", "butterfly"])
def test_critical_points_keep_their_draws(kind):
    # each point draws Fraction(randint(-6, 6), randint(1, 4)) for u, s, t, x,
    # y, z and eps, in chart order; eps is pinned, and grad f4 = 0 solves x
    # (fold) or t (the others), then y and z
    rng, oracle = random.Random(f"cp:{kind}"), random.Random(f"cp:{kind}")
    points = ns_model(kind).critical_points(5, rng)
    for point in points:
        u, s, t, x, _, _, _ = (Fraction(oracle.randint(-6, 6), oracle.randint(1, 4)) for _ in range(7))
        t = {
            "fold": t,
            "cusp": x * x,
            "swallowtail": -4 * x**3 - 2 * s * x,
            "butterfly": 5 * x**4 - 3 * u * x * x + 2 * s * x,
        }[kind]
        x = Fraction(0) if kind == "fold" else x
        assert point == integer_point([u, s, t, x, Fraction(0), Fraction(0), DEGENERACY_EPS])
    assert rng.getstate() == oracle.getstate()


@pytest.mark.parametrize(
    "label, f4, solved",
    [
        ("birth", WRINKLED_F4["birth"], ("s", T * T - X * X)),
        ("merge", WRINKLED_F4["merge"], ("s", T * T + X * X)),
        ("flip", WRINKLED_F4["flip"], ("t", 2 * S * X - 4 * X**3)),
    ],
)
def test_critical_points_of_the_wrinkled_models(label, f4, solved):
    name, value = solved
    points = [p.fractions() for p in NSModel(label, f4).critical_points(10, random.Random(f"wrinkled:{label}"))]
    for point in points:
        assert all(f4.differentiate(v).evaluate(point) == 0 for v in ("x", "y", "z"))
        assert point[C.index(name)] == value.evaluate(point)
        assert point[4:] == [0, 0, DEGENERACY_EPS]


def test_kernel_at_critical_point_is_coordinate_block():
    omega = claimed_assembled_form("cusp")
    point = [Fraction(0), Fraction(0), Fraction(1), Fraction(1), Fraction(0), Fraction(0), Fraction(1, 8)]
    kernel, rows = compile_degeneracy(omega)(point)
    assert len(kernel) == 4 and linalg.rank(rows) == 3
    spanned = {tuple(v) for v in kernel}
    coords = {tuple(1 if i == j else 0 for i in range(6)) for j in (2, 3, 4, 5)}
    assert spanned == coords


# -- compiled degeneracy against the rational oracle ---------------------------------


def oracle_kernel(omega, point):
    """The rational kernel basis of omega at the point (one vector per free column)."""
    return linalg.nullspace(omega.coefficient_matrix(point))


def oracle_gradient_rows(omega, point, kernel):
    """The intrinsic gradient on the kernel, from pair polynomials built at the point.

    Rows: derivative directions (the kernel basis).  Columns: the pair
    functions omega(v_a, v_b) for kernel basis pairs, differentiated with
    the basis vectors held constant.
    """
    chart = omega.chart
    names = chart.geometric_names()
    pair_polys = []
    for va, vb in combinations(kernel, 2):
        poly = chart.zero()
        for (i, j), c in omega.terms.items():
            factor = va[i] * vb[j] - va[j] * vb[i]
            if factor != 0:
                poly = poly + c.scale(factor)
        pair_polys.append(poly)
    partials = [[poly.differentiate(name).evaluate(point) for name in names] for poly in pair_polys]
    return [[sum((wi * d for wi, d in zip(w, grad)), Fraction(0)) for grad in partials] for w in kernel]


def _ns_candidates():
    """Every 2-form the near-symplectic check decides: claimed form, claimed assembly, repaired assembly."""
    for kind in ("fold", "cusp", "swallowtail", "butterfly"):
        yield f"{kind}:claimed-form", ns_model(kind), claimed_assembled_form(kind)
        yield f"{kind}:claimed", ns_model(kind), assemble(kind, "claimed").omega
        yield f"{kind}:repair", ns_model(kind), assemble(kind, "repair").omega


NS_CANDIDATES = list(_ns_candidates())

# a fixed unimodular change of (u, s, t, x, y, z), lower times upper unitriangular,
# with eps fixed: it turns coordinate kernel vectors into mixed ones
_LOWER = [
    [1, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0],
    [0, -2, 1, 0, 0, 0],
    [2, 0, 1, 1, 0, 0],
    [0, 1, 0, -1, 1, 0],
    [-1, 0, 2, 0, 1, 1],
]
_UPPER = [
    [1, 1, 0, -1, 0, 2],
    [0, 1, 2, 0, 1, 0],
    [0, 0, 1, 1, 0, -1],
    [0, 0, 0, 1, -2, 0],
    [0, 0, 0, 0, 1, 1],
    [0, 0, 0, 0, 0, 1],
]
MIXED = [[sum(_LOWER[i][k] * _UPPER[k][j] for k in range(6)) for j in range(6)] for i in range(6)]
MIXING = PolyMap(
    C, C, tuple(sum((a * C.var(x) for a, x in zip(row, "ustxyz")), C.zero()) for row in MIXED) + (EPS,)
)


def drawn_rational(rng):
    """One coordinate as the samplers draw it: Fraction(randint(-6, 6), randint(1, 4))."""
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


@functools.cache
def _compiled(omega):
    return compile_degeneracy(omega)


def _agree(omega, point):
    kernel, rows = _compiled(omega)(point)
    want = oracle_kernel(omega, point)
    assert len(kernel) == len(want)
    # each integer basis vector is a positive multiple of the rational one
    ratios = []
    for vec, ref in zip(kernel, want):
        ratio = next(Fraction(a) / b for a, b in zip(vec, ref) if b)
        assert ratio > 0 and [Fraction(a) for a in vec] == [ratio * b for b in ref]
        ratios.append(ratio)
    # the integer gradient is the oracle's with row w scaled by w's ratio, column
    # (v_a, v_b) by the product of theirs, and every entry by one positive factor
    oracle = oracle_gradient_rows(omega, point, want)
    pair_ratios = [ra * rb for ra, rb in combinations(ratios, 2)]
    scaled = [[rw * rp * e for rp, e in zip(pair_ratios, row)] for rw, row in zip(ratios, oracle)]
    assert [len(row) for row in rows] == [len(row) for row in scaled]
    entries = [(Fraction(got), e) for row, srow in zip(rows, scaled) for got, e in zip(row, srow)]
    assert all(got == 0 for got, e in entries if e == 0)
    common = {got / e for got, e in entries if e != 0}
    assert len(common) <= 1 and all(f > 0 for f in common)
    rank = linalg.rank(rows)
    assert rank == linalg.rank(oracle)
    return len(kernel), rank


@pytest.mark.parametrize("label, model, omega", NS_CANDIDATES, ids=[c[0] for c in NS_CANDIDATES])
def test_compiled_degeneracy_matches_the_oracle(label, model, omega):
    rng = random.Random(f"degeneracy:{label}")
    critical = [p.fractions() for p in model.critical_points(5, rng)]
    found = [_agree(omega, point) for point in critical]
    dims = set()
    for _ in range(5):
        point = [drawn_rational(rng) for _ in range(6)] + [DEGENERACY_EPS]
        dims.add(_agree(omega, point)[0])
    assert 4 not in dims
    # pulled back by MIXING, omega degenerates at the preimages of its critical
    # points, with the same kernel dimension and rank but a mixed kernel basis
    mixed = pullback(omega, MIXING)
    for point, want in zip(critical, found):
        assert _agree(mixed, linalg.solve(MIXED, point[:6]) + point[6:]) == want


@pytest.mark.parametrize("sign", (1, -1))
def test_compiled_degeneracy_matches_the_oracle_on_the_darboux_forms(sign):
    omega = darboux_normal_form(sign)
    assert _agree(omega, [Fraction(0)] * 6) == (4, 3)
    rng = random.Random(f"darboux:{sign}")
    for _ in range(5):
        assert _agree(omega, [drawn_rational(rng) for _ in range(6)])[0] != 4
    # a linear change of coordinates keeps kernel dim 4 and rank 3 at the origin,
    # with a kernel basis that is no longer a set of coordinate vectors
    chart = omega.chart
    xs = [chart.var(name) for name in chart.names]
    lower = [[1 if i == j else rng.randint(-2, 2) * (j < i) for j in range(6)] for i in range(6)]
    upper = [[1 if i == j else rng.randint(-2, 2) * (j > i) for j in range(6)] for i in range(6)]
    mixed = [[sum(lower[i][k] * upper[k][j] for k in range(6)) for j in range(6)] for i in range(6)]
    linear = PolyMap(chart, chart, tuple(sum((a * x for a, x in zip(row, xs)), chart.zero()) for row in mixed))
    assert _agree(pullback(omega, linear), [Fraction(0)] * 6) == (4, 3)


# -- fibre positivity -------------------------------------------------------------------


def test_cusp_fibre_numerator_exact():
    result, reports = fibre_positivity("cusp")
    assert result.frame_ok and result.identity_ok
    want = 9 * EPS * (X * X - T) ** 2 + 4 * Y * Y * (1 - 3 * EPS * X) + 4 * Z * Z
    assert result.numerator == want
    # catalogued expression differs exactly by 6 eps (x^2-t)^2
    assert result.numerator - result.claimed == 6 * EPS * (X * X - T) ** 2


def test_swallowtail_fibre_numerator_matches_claim():
    result, _ = fibre_positivity("swallowtail")
    assert result.matches_claim
    w = 4 * X**3 + 2 * S * X + T
    p = 12 * X * X - 2 * S
    assert result.numerator == EPS * w * w + 2 * Y * Y * (EPS * p + 2) + 4 * Z * Z * (EPS * p + 1)


def test_butterfly_fibre_numerator_documented_difference():
    result, _ = fibre_positivity("butterfly")
    assert not result.matches_claim
    diff = result.numerator - result.claimed
    expect = (
        80 * X**3 * Y * Y * EPS
        + 120 * X**3 * Z * Z * EPS
        - 12 * U * X * Z * Z * EPS
        + 8 * S * Y * Y * EPS
        + 12 * S * Z * Z * EPS
    )
    assert diff == expect


def test_epsilon_bound_cusp_exact():
    bound = epsilon_bound("cusp")
    assert bound.bound == Fraction(1, 3)


def test_epsilon_bounds_default_boxes():
    assert epsilon_bound("swallowtail").bound == Fraction(5)
    assert epsilon_bound("butterfly").bound == Fraction(5, 104)


def test_the_fibre_bound_is_not_a_near_symplectic_bound():
    # the repaired cusp is closed and positive on the fibres for eps < 2/3, yet at
    # eps = 33/50 omega^3 is negative at a point off Z (y != 0): ROADMAP item 1
    omega = assemble("cusp", "repair").omega
    assert ext_d(omega).is_zero()
    assert epsilon_bound("cusp", omega=omega).bound == Fraction(2, 3)
    (top,) = wedge_power(omega, 3).terms.values()
    point = (0, 0, 1, 1, Fraction(-594, 25), Fraction(12, 25), Fraction(33, 50))  # (u, s, t, x, y, z, eps)
    assert top.evaluate(point) == Fraction(-389016, 3125)


def test_epsilon_bound_monotone_under_shrinking():
    big = epsilon_bound("cusp", parse_box("|x|<=1"))
    small = epsilon_bound("cusp", parse_box("|x|<=1/2"))
    assert small.bound == Fraction(2, 3)
    assert small.bound >= big.bound


def test_epsilon_bound_rejects_degenerate_box():
    with pytest.raises(RejectedBox):
        epsilon_bound("cusp", parse_box("|x|<=1,|t|<=1"))


def test_epsilon_bound_requires_needed_variables():
    with pytest.raises(RejectedBox):
        epsilon_bound("butterfly", parse_box("|x|<=1"))


def test_repaired_candidates_admit_positive_bounds():
    for kind, expect in (("cusp", Fraction(2, 3)), ("swallowtail", Fraction(20, 61)), ("butterfly", Fraction(5, 26))):
        cand, _ = assemble_and_verify(kind, "claimed", 1, random.Random(0))
        assert epsilon_bound(kind, omega=cand.omega).bound == expect


# -- the fibre decomposition behind epsilon_bound --------------------------------------------

#: the box variables each kind's constraints need, and the boxes on which both
#: constraints take their minimum at a corner (branch-and-bound settles those)
BOX_VARS = {"cusp": ("x",), "swallowtail": ("x", "s"), "butterfly": ("x", "u", "s")}
DEFAULT_AND_REPAIRED = {
    "cusp": (Fraction(1, 3), Fraction(2, 3)),
    "swallowtail": (Fraction(5), Fraction(20, 61)),
    "butterfly": (Fraction(5, 104), Fraction(5, 26)),
}


def _corner_minimum_box(kind, source, rng):
    while True:
        box = {}
        for name in BOX_VARS[kind]:
            lo, hi = sorted(rng.sample(range(-24, 25), 2))
            box[name] = Interval(Fraction(lo, 20), Fraction(hi, 20))
        x_one_signed = not box["x"].lo < 0 < box["x"].hi
        if (
            kind == "cusp"
            or (kind == "swallowtail" and x_one_signed)
            or (kind == "butterfly" and source == "catalogued" and box["x"].hi <= 0)
            or (kind == "butterfly" and source == "repaired" and box["u"].hi <= 0 and x_one_signed)
        ):
            return box


def oracle_epsilon_bound(numerator, box):
    """eps* read off the numerator: y^2 and z^2 coefficients a + eps b, min b over the box corners."""
    iy, iz, ieps = C.index("y"), C.index("z"), C.index("eps")
    a = {"y^2": Fraction(0), "z^2": Fraction(0)}
    b = {"y^2": {}, "z^2": {}}
    for exp, coeff in numerator.terms.items():
        label = {(2, 0): "y^2", (0, 2): "z^2"}.get((exp[iy], exp[iz]))
        rest = list(exp)
        rest[iy] = rest[iz] = rest[ieps] = 0
        if label and exp[ieps] == 1:
            b[label][tuple(rest)] = coeff
        elif label and not any(exp[i] for i in range(len(exp)) if i not in (iy, iz)):
            a[label] = coeff
    constraints = []
    for label in ("y^2", "z^2"):
        poly = Poly(C, b[label])
        m = min(eval_at(poly, corner) for corner in corners(box))
        constraints.append((label, a[label], m))
    negatives = [a / -m for _, a, m in constraints if m < 0]
    return (min(negatives) if negatives else None), tuple(constraints)


@pytest.mark.parametrize("kind", list(BOX_VARS))
def test_bounds_are_the_same_from_a_cold_and_a_warm_memo(kind):
    catalogued, repaired = DEFAULT_AND_REPAIRED[kind]
    omega = assemble(kind, "repair").omega
    fibre_decomposition.cache_clear()
    for _ in range(2):
        assert epsilon_bound(kind).bound == catalogued
        assert epsilon_bound(kind, omega=omega).bound == repaired
    assert fibre_decomposition.cache_info().hits == 2


@pytest.mark.parametrize("source", ("catalogued", "repaired"))
@pytest.mark.parametrize("kind", list(BOX_VARS))
def test_epsilon_bound_equals_the_numerator_oracle_on_seeded_boxes(kind, source):
    omega = None if source == "catalogued" else assemble(kind, "repair").omega
    numerator = fibre_positivity(kind, omega)[0].numerator
    rng = random.Random(f"epsilon-oracle:{kind}:{source}")
    for _ in range(20):
        box = _corner_minimum_box(kind, source, rng)
        got = epsilon_bound(kind, box, omega)
        assert (got.bound, got.constraints) == oracle_epsilon_bound(numerator, box)
        assert got.box == box


def _term_by_term(omega):
    out = KForm(C, 2, {})
    for idx, coeff in omega.terms.items():
        out = out + form_term(C, coeff, tuple(C.names[i] for i in idx))
    return out


def test_a_form_rebuilt_term_by_term_reads_the_memo():
    omega = assemble("butterfly", "repair").omega
    rebuilt = _term_by_term(omega)
    assert rebuilt is not omega and rebuilt == omega
    fibre_decomposition.cache_clear()
    first = epsilon_bound("butterfly", omega=omega)
    assert epsilon_bound("butterfly", omega=rebuilt) == first
    info = fibre_decomposition.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_catalogued_and_repaired_forms_never_share_an_entry():
    repaired = assemble("butterfly", "repair").omega
    fibre_decomposition.cache_clear()
    for _ in range(2):
        assert epsilon_bound("butterfly").bound == Fraction(5, 104)
        assert epsilon_bound("butterfly", omega=repaired).bound == Fraction(5, 26)
    info = fibre_decomposition.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 2, 2)
    assert fibre_decomposition("butterfly", None) != fibre_decomposition("butterfly", repaired)


@pytest.mark.parametrize(
    "extra, message",
    [
        (f(X * Y, "y", "z"), "not of the certified shape"),
        (f(1, "y", "z"), "free part is not eps \\* D\\^2"),
        (f(EPS * EPS * Y, "x", "z"), "not linear in eps"),
        (f(X * Y, "x", "z"), "y\\^2 coefficient has a non-constant eps-free part"),
        (f(2 * Y * (1 - 3 * EPS * X), "x", "z"), "missing y\\^2 term"),
    ],
    ids=["odd-y", "eps-free", "eps-squared", "non-constant", "missing"],
)
def test_a_shape_failure_is_raised_on_every_call(extra, message):
    omega = claimed_assembled_form("cusp") + extra
    fibre_decomposition.cache_clear()
    for _ in range(3):
        with pytest.raises(RejectedBox, match=message):
            epsilon_bound("cusp", omega=omega)
    assert fibre_decomposition.cache_info().currsize == 0


def test_epsilon_bound_rejects_a_kind_without_a_fibre_frame():
    for box in (None, parse_box("|x|<=1")):
        with pytest.raises(ValueError, match="fibre positivity applies to"):
            epsilon_bound("fold", box)


# -- Darboux-type normal form --------------------------------------------------------------


def test_darboux_normal_form():
    assert darboux_normal_form_check().status == "pass"
    std = darboux_normal_form_data(1)
    assert std.closed and std.kernel_dim == 4 and std.gradient_rank == 3
    assert std.kernel_dim_on_locus == 4  # x-coordinates zeroed leaves the rank-2 piece
    flipped = darboux_normal_form_data(-1)
    assert not flipped.closed
    assert flipped.kernel_dim == 4 and flipped.gradient_rank == 3
