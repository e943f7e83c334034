"""Property tests for the invariant the internal constructors rely on.

Operations build their results through ``Poly._make`` and
``_Graded._make``, which trust their terms instead of checking them.
Every result must therefore already be what the public constructors
accept: no zero coefficient, full-length exponents, strictly increasing
index tuples inside the geometric block, coefficients on the same chart.
The public constructors are the boundary and keep rejecting anything else.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singfib.exterior import (
    KForm,
    KVector,
    PolyMap,
    _Graded,
    ext_d,
    hodge_star,
    interior,
    poincare_homotopy,
    pullback,
    wedge,
)
from singfib.poly import CHART6, Chart, ChartMismatch, Poly, format_poly, parse_poly

SETTINGS = settings(max_examples=25, deadline=None)
NG = CHART6.n_geom

rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


def polys(max_terms: int = 3, max_exp: int = 2) -> st.SearchStrategy[Poly]:
    exponents = st.tuples(*[st.integers(0, max_exp)] * CHART6.dim)
    return st.dictionaries(exponents, rationals, max_size=max_terms).map(lambda t: Poly(CHART6, t))


def graded(cls, degree: int, max_terms: int = 3) -> st.SearchStrategy[_Graded]:
    indices = st.lists(st.integers(0, NG - 1), min_size=degree, max_size=degree, unique=True)
    keys = indices.map(lambda idx: tuple(sorted(idx)))
    return st.dictionaries(keys, polys(2), max_size=max_terms).map(lambda t: cls(CHART6, degree, t))


forms = st.integers(0, NG).flatmap(lambda k: graded(KForm, k))
positive_forms = st.integers(1, NG).flatmap(lambda k: graded(KForm, k))
same_degree_pairs = st.integers(0, NG).flatmap(lambda k: st.tuples(graded(KForm, k), graded(KForm, k)))
vector_fields = graded(KVector, 1)
maps = st.tuples(*[polys(2, 1)] * CHART6.dim).map(lambda comps: PolyMap(CHART6, CHART6, comps))


def assert_clean(x: Poly | _Graded) -> None:
    if isinstance(x, Poly):
        for exp, c in x.terms.items():
            assert type(c) is Fraction and c != 0
            assert len(exp) == x.chart.dim and all(type(e) is int and e >= 0 for e in exp)
        assert Poly(x.chart, x.terms) == x
        return
    assert 0 <= x.degree <= x.chart.n_geom
    for idx, c in x.terms.items():
        assert len(idx) == x.degree
        assert all(a < b for a, b in zip(idx, idx[1:]))
        assert all(0 <= i < x.chart.n_geom for i in idx)
        assert isinstance(c, Poly) and c.chart == x.chart and not c.is_zero()
        assert_clean(c)
    assert type(x)(x.chart, x.degree, x.terms) == x


@SETTINGS
@given(polys(), polys(), rationals, st.sampled_from(CHART6.names))
def test_poly_operations_keep_clean_terms(p, q, c, name):
    for result in (p + q, p - q, p * q, p.scale(c), p.differentiate(name), p.substitute({name: q})):
        assert_clean(result)
    assert parse_poly(format_poly(p), CHART6) == p


@SETTINGS
@given(same_degree_pairs, forms, vector_fields, maps, polys())
def test_form_operations_keep_clean_terms(pair, c, v, f, g):
    a, b = pair
    results = [a + b, a - b, a.scale(g), wedge(a, c), ext_d(a), pullback(a, f), hodge_star(a), interior(v, a)]
    if a.degree >= 1:
        results.append(poincare_homotopy(a))
    for result in results:
        assert_clean(result)


@SETTINGS
@given(forms)
def test_d_squared_is_zero(a):
    assert ext_d(ext_d(a)).is_zero()


@SETTINGS
@given(positive_forms)
def test_homotopy_inverts_d(a):
    recovered = ext_d(poincare_homotopy(a))
    if a.degree < NG:
        recovered = recovered + poincare_homotopy(ext_d(a))
    assert recovered == a


# -- the public constructors stay the boundary ------------------------------------------

OTHER = Chart(("a", "b", "c", "d", "e", "f"))
WITH_PARAM = Chart(CHART6.names + ("eps",), n_geom=6)


def test_poly_rejects_wrong_exponent_length():
    with pytest.raises(ValueError):
        Poly(CHART6, {(1, 0, 0): 1})


@pytest.mark.parametrize(
    "chart, degree, terms, error",
    [
        (CHART6, 2, {(3, 1): CHART6.one()}, ValueError),
        (CHART6, 2, {(1, 1): CHART6.one()}, ValueError),
        (WITH_PARAM, 1, {(6,): WITH_PARAM.one()}, ValueError),
        (CHART6, 2, {(0, 1, 2): CHART6.one()}, ValueError),
        (CHART6, 1, {(0,): OTHER.one()}, ChartMismatch),
    ],
    ids=["unsorted", "repeated", "out-of-block", "wrong-degree", "other-chart"],
)
@pytest.mark.parametrize("cls", [KForm, KVector])
def test_graded_constructors_reject_bad_terms(cls, chart, degree, terms, error):
    with pytest.raises(error):
        cls(chart, degree, terms)
