"""Property tests for the exact kernels.

Operations build their results through ``Poly._make`` and
``_Graded._make``, which trust their terms instead of checking them.
Every result must therefore already be what the public constructors
accept: no zero coefficient, full-length exponents, strictly increasing
index tuples inside the geometric block, coefficients on the same chart.
The public constructors are the boundary and keep rejecting anything else.

The fraction-free elimination in ``linalg`` (rref, nullspace, and solve
with one or several right-hand sides) is checked against a plain
Gauss-Jordan elimination over Fractions kept here as the oracle;
``Poly.evaluate`` against a term-by-term sum and the ring axioms;
``poly.IntegerKernel`` against ``Poly.evaluate`` times its scale;
``interval.enclose`` against exact values at points of the box; and
``interval.certified_minimum`` against its witness and exact values.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from singfib import linalg
from singfib.interval import CertificationFailure, Interval, certified_minimum, corners, enclose, eval_at
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
from singfib.poly import (
    CHART6,
    Chart,
    ChartMismatch,
    IntegerKernel,
    Poly,
    chart_2n,
    format_poly,
    integer_point,
    parse_poly,
)

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


# -- fraction-free elimination against a Fraction Gauss-Jordan oracle -----------------


def oracle_rref(m: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by Gauss-Jordan elimination over Fractions."""
    m = [[Fraction(v) for v in row] for row in m]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def oracle_nullspace(m) -> list[list[Fraction]]:
    cols = len(m[0])
    red, pivots = oracle_rref(m)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def oracle_solve(m, rhs) -> list[Fraction]:
    cols = len(m[0])
    red, pivots = oracle_rref([list(row) + [b] for row, b in zip(m, rhs)])
    for row in red:
        if all(row[c] == 0 for c in range(cols)) and row[cols] != 0:
            raise linalg.InconsistentSystem("right-hand side not in the column space")
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        if pc == cols:
            raise linalg.InconsistentSystem("right-hand side not in the column space")
        x[pc] = red[r][cols]
    return x


entries = st.one_of(st.just(0), st.integers(-6, 6), rationals)


@st.composite
def matrices(draw, max_rows: int = 5, max_cols: int = 6) -> list[list[Fraction | int]]:
    """Small rational matrices of every shape, often with zero rows or columns or dependent rows."""
    n_rows = draw(st.integers(1, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    m = [[draw(entries) for _ in range(n_cols)] for _ in range(n_rows)]
    if draw(st.booleans()):
        m[draw(st.integers(0, n_rows - 1))] = [0] * n_cols
    if draw(st.booleans()):
        j = draw(st.integers(0, n_cols - 1))
        for row in m:
            row[j] = Fraction(0)
    if n_rows >= 3 and draw(st.booleans()):
        # one row a combination of two others: rank-deficient
        i, j, k = draw(st.permutations(range(n_rows)))[:3]
        a, b = draw(rationals), draw(rationals)
        m[k] = [a * x + b * y for x, y in zip(m[i], m[j])]
    return m


def read_off(red: list[list[int]], pivots: list[int]) -> list[list[Fraction]]:
    """Each reduced row divided by its pivot entry; the rows past the rank are zero."""
    out = []
    for r, row in enumerate(red):
        if r < len(pivots):
            out.append([Fraction(x, row[pivots[r]]) for x in row])
        else:
            assert not any(row)
            out.append([Fraction(0)] * len(row))
    return out


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_fraction_free_rref_matches_oracle(m):
    red, pivots = linalg._rref(m)
    assert all(type(x) is int for row in red for x in row)
    want, want_pivots = oracle_rref(m)
    assert pivots == want_pivots
    assert read_off(red, pivots) == want
    assert linalg.rank(m) == len(want_pivots)
    assert linalg.nullspace(m) == oracle_nullspace(m)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_oracle(m, data):
    n_rows, n_cols = len(m), len(m[0])
    if data.draw(st.booleans(), label="consistent"):
        x = data.draw(st.lists(entries, min_size=n_cols, max_size=n_cols), label="x")
        rhs = linalg.mat_vec(m, x)
    else:
        rhs = data.draw(st.lists(entries, min_size=n_rows, max_size=n_rows), label="rhs")
    try:
        want = oracle_solve(m, rhs)
    except linalg.InconsistentSystem:
        with pytest.raises(linalg.InconsistentSystem):
            linalg.solve(m, rhs)
        return
    got = linalg.solve(m, rhs)
    assert got == want
    assert linalg.mat_vec(m, got) == [Fraction(v) for v in rhs]


@pytest.mark.parametrize(
    "m, rhs",
    [
        ([[1, 0], [1, 0]], [1, 2]),
        ([[0, 0, 0]], [1]),
        ([[1, 2], [2, 4], [3, 6]], [1, 2, 4]),
        ([[Fraction(1, 2), 1], [1, 2]], [0, 1]),
    ],
    ids=["repeated-row", "zero-row", "tall-rank-1", "fractional-rank-1"],
)
def test_inconsistent_systems_raise_in_both(m, rhs):
    with pytest.raises(linalg.InconsistentSystem):
        oracle_solve(m, rhs)
    with pytest.raises(linalg.InconsistentSystem):
        linalg.solve(m, rhs)


# -- evaluation and the ring axioms -------------------------------------------------

points = st.tuples(*[st.one_of(st.integers(-4, 4), rationals)] * CHART6.dim)


def naive_evaluate(p: Poly, point) -> Fraction:
    return sum(
        (Fraction(c) * prod(Fraction(v) ** e for v, e in zip(point, exp)) for exp, c in p.terms.items()),
        Fraction(0),
    )


@SETTINGS
@given(polys(4, 3), points)
def test_evaluate_equals_term_by_term_sum(p, point):
    value = p.evaluate(point)
    assert type(value) is Fraction
    assert value == naive_evaluate(p, point)


def chart_polys(chart: Chart) -> st.SearchStrategy[Poly]:
    exponents = st.tuples(*[st.integers(0, 3)] * chart.dim)
    general = st.dictionaries(exponents, rationals, max_size=4).map(lambda t: Poly(chart, t))
    # rationals include 0, so the constants include the zero polynomial
    return st.one_of(general, rationals.map(chart.const))


def kernel_cases(chart: Chart):
    chart_points = st.tuples(*[st.one_of(st.integers(-4, 4), rationals)] * chart.dim)
    return st.tuples(st.just(chart), st.lists(chart_polys(chart), max_size=5), chart_points)


@SETTINGS
@given(st.sampled_from([CHART6, chart_2n(3, ("s_par",))]).flatmap(kernel_cases))
@example((CHART6, [CHART6.zero(), CHART6.const(Fraction(-3, 2))], (1, Fraction(1, 2), 0, -2, Fraction(3, 4), 4)))
@example((CHART6, [], (0,) * 6))
def test_integer_kernel_is_the_scaled_value(case):
    # one positive integer scale for the whole list, including the parameter
    # coordinate s_par, zero and constant polynomials, and int/Fraction points
    chart, ps, point = case
    num, den = integer_point(point)
    assert den > 0 and all(type(x) is int for x in num)
    assert [Fraction(x, den) for x in num] == [Fraction(v) for v in point]
    values, scale = IntegerKernel(chart, ps)(num, den)
    assert type(scale) is int and scale > 0
    assert all(type(v) is int for v in values)
    assert values == [scale * p.evaluate(point) for p in ps]


@SETTINGS
@given(polys(), polys(), points)
def test_evaluate_is_a_ring_homomorphism(p, q, point):
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
    assert (p - q).evaluate(point) == p.evaluate(point) - q.evaluate(point)


@SETTINGS
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r
    assert p + q == q + p and p * q == q * p


@SETTINGS
@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=7))
def test_dot_of_integers_is_a_fraction(pairs):
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    value = linalg.dot(a, b)
    assert type(value) is Fraction
    assert value == sum(Fraction(x) * Fraction(y) for x, y in pairs)


# -- interval enclosures contain the exact values -------------------------------------

unit = st.builds(Fraction, st.integers(0, 8)).map(lambda k: k / 8)


@st.composite
def boxes(draw, chart: Chart = CHART6) -> dict[str, Interval]:
    box = {}
    for name in chart.names:
        lo = draw(rationals)
        box[name] = Interval(lo, lo + draw(st.builds(Fraction, st.integers(0, 6), st.integers(1, 3))))
    return box


@SETTINGS
@given(polys(4, 3), boxes(), st.lists(st.tuples(*[unit] * CHART6.dim), max_size=5))
def test_enclosure_contains_values_in_the_box(p, box, fractions_of_width):
    iv = enclose(p, box)
    corners = product(*[(box[n].lo, box[n].hi) for n in CHART6.names])
    inner = [
        [box[n].lo + f * box[n].width for n, f in zip(CHART6.names, fs)] for fs in fractions_of_width
    ]
    for point in [*corners, *inner]:
        assert iv.lo <= p.evaluate(point) <= iv.hi


# -- certified minima are attained and never above a value in the box ----------------

C3 = Chart(("x", "u", "s"))
c3_polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * C3.dim), rationals, max_size=4).map(
    lambda t: Poly(C3, t)
)


@settings(max_examples=40, deadline=None)
@given(c3_polys, boxes(C3), st.lists(st.tuples(*[unit] * C3.dim), max_size=5))
def test_certified_minimum_is_attained_and_below_the_box(p, box, fractions_of_width):
    try:
        # depth 12 settles most draws; a deeper search only rejects later
        m, witness = certified_minimum(p, box, max_depth=12)
    except CertificationFailure:
        # the documented defect: a minimum away from the corners and off
        # the dyadic points bisection reaches is refused, not approximated
        assume(False)
    assert all(box[n].lo <= v <= box[n].hi for n, v in witness.items())
    assert eval_at(p, witness) == m
    inner = [
        {n: box[n].lo + f * box[n].width for n, f in zip(C3.names, fs)} for fs in fractions_of_width
    ]
    for point in [*corners(box), *inner]:
        assert m <= eval_at(p, point)
