"""Exterior calculus operators: catalogue examples plus randomized laws."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from singfib import exterior
from singfib.exterior import (
    KForm,
    KVector,
    PolyMap,
    evaluate_form,
    ext_d,
    form_term,
    hodge_star,
    interior,
    poincare_homotopy,
    pullback,
    scalar_form,
    schouten,
    vector_term,
    volume_form,
    wedge,
)
from singfib.poly import CHART6, Chart, ChartMismatch, Poly, parse_poly

from test_poly import rand_poly

TARGET4 = Chart(("w1", "w2", "w3", "w4"))
#: the six coordinate names the near-symplectic models use
NS_CHART = Chart(("u", "s", "t", "x", "y", "z"))


def rand_form(chart, rng, degree):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        idx = tuple(sorted(rng.sample(range(chart.n_geom), degree)))
        terms[idx] = rand_poly(chart, rng, terms=2, deg=2)
    return KForm(chart, degree, terms)


# -- wedge ------------------------------------------------------------------------


def test_wedge_cross_terms_only():
    c = NS_CHART
    a = form_term(c, 1, ("t", "x")) + form_term(c, 1, ("y", "z"))
    sq = wedge(a, a)
    assert sq == form_term(c, 2, ("t", "x", "y", "z"))


def test_wedge_selfdual_partners_vanish():
    c = NS_CHART
    b2 = form_term(c, 1, ("t", "x")) + form_term(c, 1, ("y", "z"))
    b3 = form_term(c, 1, ("t", "y")) + form_term(c, 1, ("z", "x"))
    assert wedge(b2, b3).is_zero()
    us = form_term(c, 1, ("u", "s"))
    assert wedge(us, us).is_zero()


def test_wedge_antisymmetry_of_arguments():
    rng = random.Random(3)
    for _ in range(20):
        ka, kb = rng.randint(1, 3), rng.randint(1, 3)
        a, b = rand_form(CHART6, rng, ka), rand_form(CHART6, rng, kb)
        assert wedge(a, b) == wedge(b, a).scale(Fraction((-1) ** (ka * kb)))


# -- exterior derivative -------------------------------------------------------------


def test_d_single_term():
    c = CHART6
    a = form_term(c, c.var("x1"), ("x2",))
    assert ext_d(a) == form_term(c, 1, ("x1", "x2"))


def test_d_squared_zero():
    rng = random.Random(8)
    for _ in range(30):
        a = rand_form(CHART6, rng, rng.randint(0, 4))
        assert ext_d(ext_d(a)).is_zero()


def test_leibniz():
    rng = random.Random(10)
    for _ in range(30):
        ka, kb = rng.randint(0, 3), rng.randint(0, 3)
        a, b = rand_form(CHART6, rng, ka), rand_form(CHART6, rng, kb)
        assert ext_d(wedge(a, b)) == wedge(ext_d(a), b) + wedge(a, ext_d(b)).scale(Fraction((-1) ** ka))


@pytest.mark.parametrize("cls", [KForm, KVector])
def test_scaling_by_a_rational_runs_no_product(monkeypatch, cls):
    # +-1 hand back the element or its negation; any other rational scales each coefficient
    rng = random.Random(f"scale:{cls.__name__}")
    a = cls(CHART6, 2, dict(rand_form(CHART6, rng, 2).terms))
    want = {c: a.scale(CHART6.const(c)) for c in (Fraction(3, 2), -7, 0)}
    products = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda p, q: products.append(q) or mul(p, q))
    assert a.scale(1) is a and a.scale(Fraction(1)) is a
    assert a.scale(-1) == -a and a.scale(-1).terms
    for c, scaled in want.items():
        assert a.scale(c) == scaled
    assert products == []
    with pytest.raises(TypeError):
        a.scale(1.0)


@pytest.mark.parametrize("text", ["2", "1 + x"])
def test_scaling_by_a_polynomial_on_another_chart_raises(text):
    # a constant is read as its rational, but only on the element's own chart
    a = KForm(CHART6, 1, {(3,): CHART6.one()})
    with pytest.raises(ChartMismatch):
        a.scale(parse_poly(text, Chart(("x",))))


# -- component access ----------------------------------------------------------------------


@pytest.mark.parametrize("cls", [KForm, KVector])
def test_a_coeff_miss_is_one_lookup_and_reads_no_sign(monkeypatch, cls):
    c = NS_CHART
    t, x, y, z = (c.index(n) for n in "txyz")
    a = cls(c, 2, {(t, x): c.const(2), (y, z): c.var("u")})
    signs = []
    sign = exterior.permutation_sign
    monkeypatch.setattr(exterior, "permutation_sign", lambda order: signs.append(order) or sign(order))
    # absent, repeated, of another length, or outside the chart: each is the chart's one zero
    for order in [(t, y), (y, t), (t, t), (z, z), (), (t,), (x, t, y), (t, 6), (-1, t)]:
        assert a.coeff(order) is c.zero(), order
    assert signs == []
    assert a.coeff((t, x)) == c.const(2) and a.coeff((x, t)) == c.const(-2) and a.coeff([z, y]) == -c.var("u")
    assert signs == [(t, x), (x, t), (z, y)]


# -- pullback --------------------------------------------------------------------------


def fold_map():
    c = CHART6
    comps = (
        c.var("t1"),
        c.var("t2"),
        c.var("t3"),
        -c.var("x1") ** 2 + c.var("x2") ** 2 + c.var("x3") ** 2,
    )
    return PolyMap(c, TARGET4, comps)


def test_pullback_coordinate_projection():
    a = form_term(TARGET4, 1, ("w1", "w2"))
    assert pullback(a, fold_map()) == form_term(CHART6, 1, ("t1", "t2"))


def test_pullback_differential_of_component():
    c = CHART6
    a = form_term(TARGET4, 1, ("w4",))
    expect = (
        form_term(c, -2 * c.var("x1"), ("x1",))
        + form_term(c, 2 * c.var("x2"), ("x2",))
        + form_term(c, 2 * c.var("x3"), ("x3",))
    )
    assert pullback(a, fold_map()) == expect


def test_pullback_cusp_chain_rule():
    c = CHART6
    comps = (
        c.var("t1"),
        c.var("t2"),
        c.var("t3"),
        c.var("x1") ** 3 - 3 * c.var("t3") * c.var("x1") + c.var("x2") ** 2 - c.var("x3") ** 2,
    )
    fmap = PolyMap(c, TARGET4, comps)
    a = form_term(TARGET4, 1, ("w3", "w4"))
    got = pullback(a, fmap)
    x1, x2, x3, t3 = c.var("x1"), c.var("x2"), c.var("x3"), c.var("t3")
    expect = (
        form_term(c, 3 * (x1**2 - t3), ("t3", "x1"))
        + form_term(c, 2 * x2, ("t3", "x2"))
        + form_term(c, -2 * x3, ("t3", "x3"))
    )
    assert got == expect


def test_pullback_commutes_with_d():
    rng = random.Random(20)
    for _ in range(15):
        comps = tuple(rand_poly(CHART6, rng, terms=2, deg=2) for _ in range(4))
        fmap = PolyMap(CHART6, TARGET4, comps)
        a = rand_form(TARGET4, rng, rng.randint(0, 3))
        assert pullback(ext_d(a), fmap) == ext_d(pullback(a, fmap))


def test_pullback_composition():
    rng = random.Random(21)
    mid = Chart(("m1", "m2", "m3", "m4"))
    for _ in range(10):
        f = PolyMap(CHART6, mid, tuple(rand_poly(CHART6, rng, terms=2, deg=1) for _ in range(4)))
        g_comps = tuple(rand_poly(mid, rng, terms=2, deg=1) for _ in range(4))
        g = PolyMap(mid, TARGET4, g_comps)
        composed = PolyMap(CHART6, TARGET4, tuple(_compose(comp, f) for comp in g_comps))
        a = rand_form(TARGET4, rng, 2)
        assert pullback(pullback(a, g), f) == pullback(a, composed)


def _compose(p, f):
    return p.compose(f.components, f.source)


# -- hodge -----------------------------------------------------------------------------


def test_hodge_examples():
    c = NS_CHART
    assert hodge_star(form_term(c, 1, ("u", "s", "t", "x"))) == form_term(c, 1, ("y", "z"))
    x = c.var("x")
    assert hodge_star(form_term(c, x, ("u", "s", "t", "y"))) == form_term(c, -x, ("x", "z"))


def test_hodge_involution_sign_law():
    rng = random.Random(30)
    n = CHART6.n_geom
    for k in range(0, n + 1):
        for _ in range(5):
            a = rand_form(CHART6, rng, k)
            assert hodge_star(hodge_star(a)) == a.scale(Fraction((-1) ** (k * (n - k))))


def test_hodge_pairing_nonnegative():
    rng = random.Random(33)
    for _ in range(20):
        k = rng.randint(1, 5)
        terms = {}
        for _ in range(3):
            idx = tuple(sorted(rng.sample(range(6), k)))
            terms[idx] = CHART6.const(Fraction(rng.randint(-5, 5)))
        a = KForm(CHART6, k, terms)
        pairing = wedge(a, hodge_star(a))
        norm_sq = sum((c.constant_value() ** 2 for c in a.terms.values()), Fraction(0))
        assert pairing == volume_form(CHART6).scale(norm_sq)
        assert norm_sq >= 0


# -- interior product -------------------------------------------------------------------


def test_interior_examples():
    c = CHART6
    dx12 = form_term(c, 1, ("x1", "x2"))
    assert interior(vector_term(c, 1, ("x1",)), dx12) == form_term(c, 1, ("x2",))
    assert interior(vector_term(c, 1, ("x3",)), dx12).is_zero()


def test_interior_antiderivation():
    rng = random.Random(41)
    for _ in range(20):
        v = KVector(CHART6, 1, {(rng.randint(0, 5),): rand_poly(CHART6, rng, terms=1, deg=1)})
        ka, kb = rng.randint(1, 3), rng.randint(1, 2)
        a, b = rand_form(CHART6, rng, ka), rand_form(CHART6, rng, kb)
        lhs = interior(v, wedge(a, b))
        rhs = wedge(interior(v, a), b) + wedge(a, interior(v, b)).scale(Fraction((-1) ** ka))
        assert lhs == rhs


def test_interior_of_a_one_form_into_multivectors_examples():
    c = CHART6
    e12 = vector_term(c, 1, ("x1", "x2"))
    assert interior(form_term(c, 1, ("x1",)), e12) == vector_term(c, 1, ("x2",))
    assert interior(form_term(c, 1, ("x2",)), e12) == vector_term(c, -1, ("x1",))
    assert interior(form_term(c, 1, ("x3",)), e12).is_zero()
    # i_{dk} on a vector field is its derivative of k
    dk = ext_d(scalar_form(c.var("x1") ** 2))
    assert interior(dk, vector_term(c, 3, ("x1",))) == vector_term(c, 6 * c.var("x1"), ())


def test_interior_of_a_one_form_is_an_antiderivation_on_multivectors():
    rng = random.Random(43)
    for _ in range(20):
        alpha = KForm(CHART6, 1, {(rng.randint(0, 5),): rand_poly(CHART6, rng, terms=1, deg=1)})
        ka, kb = rng.randint(1, 3), rng.randint(1, 2)
        a, b = (KVector(CHART6, k, rand_form(CHART6, rng, k).terms) for k in (ka, kb))
        lhs = interior(alpha, wedge(a, b))
        rhs = wedge(interior(alpha, a), b) + wedge(a, interior(alpha, b)).scale(Fraction((-1) ** ka))
        assert lhs == rhs


def test_interior_needs_a_vector_field_and_a_form():
    c = CHART6
    with pytest.raises(ValueError, match="a vector field and a form"):
        interior(vector_term(c, 1, ("x1",)), vector_term(c, 1, ("x1", "x2")))
    with pytest.raises(ValueError, match="a vector field and a form"):
        interior(form_term(c, 1, ("x1",)), form_term(c, 1, ("x1", "x2")))


def test_evaluate_form_orientation():
    c = CHART6
    a = form_term(c, 1, ("x1", "x2"))
    v1 = vector_term(c, 1, ("x1",))
    v2 = vector_term(c, 1, ("x2",))
    assert evaluate_form(a, [v1, v2]) == c.one()
    assert evaluate_form(a, [v2, v1]) == -c.one()


# -- schouten bracket ---------------------------------------------------------------------


def jacobiator(a: KVector) -> KVector:
    """Nested-bracket Jacobiator on coordinates; independent of the bracket code."""
    chart = a.chart
    names = chart.geometric_names()

    def bracket(f, g):
        total = chart.zero()
        for (i, j), coeff in a.terms.items():
            total = total + coeff * (
                f.differentiate(names[i]) * g.differentiate(names[j])
                - f.differentiate(names[j]) * g.differentiate(names[i])
            )
        return total

    coords = [chart.var(n) for n in names]
    out = {}
    ng = chart.n_geom
    for i in range(ng):
        for j in range(i + 1, ng):
            for k in range(j + 1, ng):
                val = (
                    bracket(coords[i], bracket(coords[j], coords[k]))
                    + bracket(coords[j], bracket(coords[k], coords[i]))
                    + bracket(coords[k], bracket(coords[i], coords[j]))
                )
                if not val.is_zero():
                    out[(i, j, k)] = val
    return KVector(chart, 3, out)


def test_schouten_constant_bivector():
    c = CHART6
    a = vector_term(c, 1, ("x1", "x2"))
    assert schouten(a, a).is_zero()


def test_schouten_fold_bivector_is_poisson():
    c = CHART6
    x1, x2, x3 = c.var("x1"), c.var("x2"), c.var("x3")
    pi = (
        vector_term(c, 2 * x3, ("x1", "x2"))
        + vector_term(c, -2 * x2, ("x1", "x3"))
        + vector_term(c, -2 * x1, ("x2", "x3"))
    )
    assert schouten(pi, pi).is_zero()


def test_schouten_spec_pair_against_oracle():
    c = CHART6
    a = vector_term(c, c.var("x1"), ("x1", "x2"))
    b = vector_term(c, c.var("x2"), ("x2", "x3"))
    lhs = schouten(a, b)
    # oracle through the polarization identity J(a+b) - J(a) - J(b) = 2 [a,b]
    total = jacobiator(a + b) - jacobiator(a) - jacobiator(b)
    assert lhs == total


def test_schouten_self_bracket_equals_twice_jacobiator():
    rng = random.Random(52)
    for _ in range(10):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            idx = tuple(sorted(rng.sample(range(6), 2)))
            terms[idx] = rand_poly(CHART6, rng, terms=2, deg=2)
        a = KVector(CHART6, 2, terms)
        assert schouten(a, a) == jacobiator(a).scale(2)


# -- homotopy operator ----------------------------------------------------------------------


def test_homotopy_basic_values():
    c = CHART6
    x1, x2 = c.var("x1"), c.var("x2")
    got = poincare_homotopy(form_term(c, 1, ("x1", "x2")))
    expect = form_term(c, x1.scale(Fraction(1, 2)), ("x2",)) + form_term(c, -x2.scale(Fraction(1, 2)), ("x1",))
    assert got == expect
    assert ext_d(got) == form_term(c, 1, ("x1", "x2"))
    assert poincare_homotopy(form_term(c, 1, ("x1",))) == KForm(c, 0, {(): x1})


def test_homotopy_rejects_zero_forms():
    with pytest.raises(ValueError):
        poincare_homotopy(KForm(CHART6, 0, {(): CHART6.one()}))


def test_homotopy_identity_randomized():
    rng = random.Random(61)
    n = CHART6.n_geom
    for _ in range(30):
        k = rng.randint(1, n)
        a = rand_form(CHART6, rng, k)
        got = ext_d(poincare_homotopy(a))
        if k < n:
            got = got + poincare_homotopy(ext_d(a))
        assert got == a


def test_fibre_homotopy_identity():
    rng = random.Random(62)
    block = (4, 5)  # the last two coordinates
    for _ in range(30):
        k = rng.randint(1, 4)
        base = rand_form(CHART6, rng, k)
        # force positive block degree by wedging with a block coordinate
        a = base.scale(CHART6.var("x2"))
        got = ext_d(poincare_homotopy(a, directions=block))
        da = ext_d(a)
        if not da.is_zero():
            got = got + poincare_homotopy(da, directions=block)
        assert got == a


def test_fibre_homotopy_vanishes_on_zero_section():
    c = CHART6
    a = form_term(c, 6 * c.var("x1"), ("x1", "x2", "x3")) + form_term(c, -3, ("t1", "x2", "x3"))
    k = poincare_homotopy(a, directions=(4, 5))
    assert ext_d(k) == a
    # every coefficient of the primitive carries a factor from the block
    for coeff in k.terms.values():
        sub = coeff.substitute({"x2": 0, "x3": 0})
        assert sub.is_zero()


#: x, y geometric and s a parameter, for the cases below
XYS = Chart(("x", "y", "s"), n_geom=2)


@pytest.mark.parametrize(
    "directions, message",
    [
        ([0, 0], "direction 0 is given twice"),  # counted twice, x dx went to x^2/3
        ([0, 2], "direction 2 is not a geometric index"),  # the parameter s, so s dx went to x*s/2
        ([0, 5], "direction 5 is not a geometric index"),  # past the chart: an IndexError
    ],
    ids=["repeated", "parameter", "past-the-chart"],
)
def test_homotopy_rejects_directions_outside_the_geometric_block(directions, message):
    x, s = XYS.var("x"), XYS.var("s")
    for coeff in (x, s):
        with pytest.raises(ValueError, match=message):
            poincare_homotopy(form_term(XYS, coeff, ("x",)), directions=directions)
    # the valid block gives the values the bad ones got wrong
    assert poincare_homotopy(form_term(XYS, x, ("x",)), directions=[0, 1]) == scalar_form(x * x).scale(Fraction(1, 2))
    assert poincare_homotopy(form_term(XYS, s, ("x",)), directions=[1, 0]) == scalar_form(x * s)


def test_a_zero_form_prints_as_its_coefficient():
    x, y = XYS.var("x"), XYS.var("y")
    assert str(poincare_homotopy(form_term(XYS, x, ("x",)))) == "1/2*x^2"
    assert str(scalar_form(x + y)) == "x + y"
    assert str(scalar_form(-x - y)) == "-x - y"
    assert str(scalar_form(XYS.one())) == "1"
    assert str(KVector(XYS, 0, {(): XYS.const(-1)})) == "-1"
    assert str(KForm(XYS, 0, {})) == "0"
    # a positive degree still names its basis
    assert str(form_term(XYS, x + y, ("x",))) == "(x + y)*dx"
