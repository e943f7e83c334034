"""Property tests for the exact kernels.

Operations build their results through ``Poly._make`` and
``_Graded._make``, which trust their terms instead of checking them.
Every result must therefore already be what the public constructors
accept: no zero coefficient, full-length exponents, strictly increasing
index tuples inside the geometric block, coefficients on the same chart.
The public constructors are the boundary and keep rejecting anything else.

The fraction-free elimination in ``linalg`` (rref, nullspace, and solve
with one or several right-hand sides) is checked against a plain
Gauss-Jordan elimination over Fractions kept here as the oracle; the
exterior operators that add coefficients in place (wedge, d, interior,
pullback, the homotopy operator) against the same operators summed one
``Poly`` at a time; ``Poly.__mul__``, ``Poly.compose`` and ``linalg.poly_det``,
which multiply integer numerators over one denominator per operation,
against Fraction term-loop products (``test_poly._term_loop_product``), on
coefficients with denominators up to about 10^6;
``_Graded.coeff`` and ``ext_d`` against their bodies from before a miss
cost one lookup, and each chart's one zero against operations with zero
operands, which must leave it empty;
``pullback`` along maps of the two shapes the product pulls back along
(CHART6 and NS_CHART_EPS to TARGET4) against an oracle that composes by
term-loop products; the unlift (``poly_over``, ``polys_from_buckets``)
against one ``Fraction(n, den)`` per term, with equal numerators of one
call sharing one instance that stays safe under the ring operations;
``Poly.evaluate`` against a term-by-term sum and the ring axioms;
``poly.IntegerKernel`` against ``Poly.evaluate`` times its scale;
``linalg.primitive`` against division by the gcd of the entries and
``exterior.permutation_sign`` against the parity of the cycle count;
``interval.enclose`` against exact values at points of the box;
``interval.certified_minimum`` against its witness and exact values; and
``poisson.self_bracket`` (the Leibniz identity that ``jacobi`` decides
from) against the Schouten bracket of k * base computed directly.
"""

from __future__ import annotations

import re
import string
from fractions import Fraction
from itertools import permutations, product
from math import gcd, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from singfib import linalg
from singfib.catalog import get_model
from singfib.interval import CertificationFailure, Interval, certified_minimum, corners, enclose, eval_at
from singfib.exterior import (
    KForm,
    KVector,
    PolyMap,
    _Graded,
    _lift,
    _merge_indices,
    ext_d,
    hodge_star,
    interior,
    permutation_sign,
    poincare_homotopy,
    pullback,
    scalar_form,
    schouten,
    vector_term,
    wedge,
)
from singfib.poly import (
    CHART6,
    Chart,
    ChartMismatch,
    IntegerKernel,
    Poly,
    PolyParseError,
    add_term,
    chart_2n,
    format_poly,
    integer_point,
    parse_poly,
    poly_over,
    polys_from_buckets,
)
from singfib.nearsymp import TARGET4, ns_model
from singfib.poisson import PoissonBivector, jacobi, self_bracket
from singfib.reference import NS_CHART_EPS
from test_poly import _term_loop_product

SETTINGS = settings(max_examples=25, deadline=None)
NG = CHART6.n_geom

rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
#: pairwise coprime denominators up to about 10^6, so the accumulators' lcms grow past any one of them
COPRIME_DENOMINATORS = [7, 9, 10, 11, 997, 65_537, 999_983, 1_000_003]
#: polynomial coefficients: the small rationals, and numerators and denominators up to about 10^6
coefficients = st.one_of(
    rationals,
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.sampled_from(COPRIME_DENOMINATORS) | st.integers(1, 10**6)),
)


def polys(max_terms: int = 3, max_exp: int = 2) -> st.SearchStrategy[Poly]:
    exponents = st.tuples(*[st.integers(0, max_exp)] * CHART6.dim)
    return st.dictionaries(exponents, coefficients, max_size=max_terms).map(lambda t: Poly(CHART6, t))


def graded(cls, degree: int, max_terms: int = 3) -> st.SearchStrategy[_Graded]:
    indices = st.lists(st.integers(0, NG - 1), min_size=degree, max_size=degree, unique=True)
    keys = indices.map(lambda idx: tuple(sorted(idx)))
    return st.dictionaries(keys, polys(2), max_size=max_terms).map(lambda t: cls(CHART6, degree, t))


forms = st.integers(0, NG).flatmap(lambda k: graded(KForm, k))
positive_forms = st.integers(1, NG).flatmap(lambda k: graded(KForm, k))
same_degree_pairs = st.integers(0, NG).flatmap(lambda k: st.tuples(graded(KForm, k), graded(KForm, k)))
vector_fields = graded(KVector, 1)
multivectors = st.integers(0, NG).flatmap(lambda k: graded(KVector, k))
maps = st.tuples(*[polys(2, 1)] * CHART6.dim).map(lambda comps: PolyMap(CHART6, CHART6, comps))


def assert_clean(x: Poly | _Graded) -> None:
    if isinstance(x, Poly):
        for exp, c in x.terms.items():
            # never a float or an int, never zero, and in lowest terms over a positive denominator
            assert type(c) is Fraction and c != 0
            assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
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


# single characters (the grammar's, ASCII letters and digits, whitespace, and three
# non-ASCII ones), with operators and spaced chart names weighted so that some texts parse
TEXT_PIECES = (
    list("+-*^()/_ \t\n" + string.ascii_letters + string.digits)
    + ["\u00b2", "\u0663", "\u00e9"]
    + 8 * list("+-* ^()")
    + 8 * [f" {name} " for name in CHART6.names]
)
GRAMMAR_TEXT = st.lists(st.sampled_from(TEXT_PIECES), max_size=30).map("".join)


@settings(max_examples=300, deadline=None)
@given(GRAMMAR_TEXT)
@example("x1^\u00b2")
@example("\u0663*x1")
def test_parse_poly_returns_a_poly_or_a_parse_error(text):
    assume(not re.search(r"\^\s*[0-9]{3}", text))  # a large power is slow, not an error
    try:
        p = parse_poly(text, CHART6)
    except (PolyParseError, ChartMismatch):
        return
    assert parse_poly(format_poly(p), CHART6) == p


@SETTINGS
@given(same_degree_pairs, forms, vector_fields, maps, polys(), multivectors)
def test_form_operations_keep_clean_terms(pair, c, v, f, g, m):
    a, b = pair
    results = [a + b, a - b, a.scale(g), wedge(a, c), ext_d(a), pullback(a, f), hodge_star(a), interior(v, a)]
    results.append(interior(ext_d(scalar_form(g)), m))
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


# -- the in-place exterior operators against Poly-sum oracles ----------------------------
# Each oracle sums whole Poly coefficients through add_term and builds its result through
# the public constructor; the sign of a merged index is the sign of its sorting permutation.


def oracle_wedge(a: _Graded, b: _Graded) -> _Graded:
    degree = a.degree + b.degree
    if degree > a.chart.n_geom:
        return type(a)(a.chart, a.chart.n_geom, {})
    out: dict = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            order = ia + ib
            if len(set(order)) == len(order):
                add_term(out, tuple(sorted(order)), (ca * cb).scale(permutation_sign(order)))
    return type(a)(a.chart, degree, out)


def oracle_ext_d(a: KForm) -> KForm:
    chart = a.chart
    out: dict = {}
    for idx, coeff in a.terms.items():
        for v in range(chart.n_geom):
            if v not in idx:
                order = (v,) + idx
                add_term(out, tuple(sorted(order)), coeff.differentiate(chart.names[v]).scale(permutation_sign(order)))
    return KForm(chart, min(a.degree + 1, chart.n_geom), out)


def oracle_interior(v: _Graded, a: _Graded) -> _Graded:
    out: dict = {}
    for idx, coeff in a.terms.items():
        for pos, i in enumerate(idx):
            if (i,) in v.terms:
                add_term(out, idx[:pos] + idx[pos + 1 :], (v.terms[(i,)] * coeff).scale((-1) ** pos))
    return type(a)(a.chart, max(a.degree - 1, 0), out)


def oracle_pullback(a: KForm, f: PolyMap) -> KForm:
    diffs = [oracle_ext_d(scalar_form(comp)) for comp in f.components]
    out: dict = {}
    for idx, coeff in a.terms.items():
        piece = scalar_form(oracle_compose(coeff, f.components, f.source))
        for j in idx:
            piece = oracle_wedge(piece, diffs[j])
        for key, value in piece.terms.items():
            add_term(out, key, value)
    return KForm(f.source, min(a.degree, f.source.n_geom), out)


def oracle_homotopy(a: KForm, radial=range(NG)) -> KForm:
    chart = a.chart
    out: dict = {}
    for idx, coeff in a.terms.items():
        r = sum(1 for i in idx if i in radial)
        for exp, c in coeff.terms.items():
            mono = Poly(chart, {exp: c / (sum(exp[i] for i in radial) + r)})
            for pos, i in enumerate(idx):
                if i in radial:
                    add_term(out, idx[:pos] + idx[pos + 1 :], (chart.var(chart.names[i]) * mono).scale((-1) ** pos))
    return KForm(chart, a.degree - 1, out)


def assert_same(got: _Graded, want: _Graded) -> None:
    """Clean, equal, and of equal degree: == does not compare the degrees of two zeros."""
    assert_clean(got)
    assert got == want and got.degree == want.degree


odd_forms = st.sampled_from([1, 3, 5]).flatmap(lambda k: graded(KForm, k))
odd_multivectors = st.sampled_from([1, 3, 5]).flatmap(lambda k: graded(KVector, k))


@SETTINGS
@given(forms, forms, vector_fields, multivectors, maps, positive_forms, polys())
def test_in_place_operators_match_their_poly_sum_oracles(a, b, v, m, f, p, g):
    dg = ext_d(scalar_form(g))
    assert_same(wedge(a, b), oracle_wedge(a, b))
    assert_same(wedge(m, m), oracle_wedge(m, m))
    assert_same(ext_d(a), oracle_ext_d(a))
    assert_same(interior(v, a), oracle_interior(v, a))
    assert_same(interior(dg, m), oracle_interior(dg, m))
    assert_same(pullback(a, f), oracle_pullback(a, f))
    assert_same(poincare_homotopy(p), oracle_homotopy(p))
    # the fibrewise operator, on a form with positive degree in the block (x2, x3)
    block = (CHART6.index("x2"), CHART6.index("x3"))
    q = p.scale(CHART6.var("x3"))
    assert_same(poincare_homotopy(q, directions=block), oracle_homotopy(q, block))


@SETTINGS
@given(odd_forms, odd_multivectors, forms, vector_fields, positive_forms, polys(2, 1))
def test_forced_cancellations_leave_a_clean_zero_of_the_right_degree(a, m, b, v, p, g):
    # each result below is zero because its sums cancel in place: the buckets must be dropped
    collapse = PolyMap(CHART6, CHART6, (g,) * NG)  # every dy_j pulls back to dg
    cases = [
        (wedge(a, a), oracle_wedge(a, a)),  # a ^ a = 0 for odd a
        (wedge(m, m), oracle_wedge(m, m)),
        (ext_d(ext_d(b)), oracle_ext_d(oracle_ext_d(b))),  # d of an exact form
        (interior(v, interior(v, b)), oracle_interior(v, oracle_interior(v, b))),
    ]
    if b.degree >= 2:
        cases.append((pullback(b, collapse), oracle_pullback(b, collapse)))
    if p.degree >= 2:
        cases.append((poincare_homotopy(poincare_homotopy(p)), oracle_homotopy(oracle_homotopy(p))))  # K K = 0
    for got, want in cases:
        assert got.is_zero()
        assert_same(got, want)


# -- the integer accumulators against term-loop oracles -----------------------------------
# Products, compositions and determinants multiply integer numerators over one denominator
# per operation; the oracles multiply Fraction coefficients one term pair at a time.


def oracle_compose(p: Poly, images, chart: Chart) -> Poly:
    out: dict = {}
    for exp, c in p.terms.items():
        term = chart.const(c)
        for image, e in zip(images, exp):
            for _ in range(e):
                term = _term_loop_product(term, image)
        for key, value in term.terms.items():
            add_term(out, key, value)
    return Poly(chart, out)


def oracle_det(rows) -> Poly:
    """The Leibniz formula: a signed term-loop product per permutation."""
    chart = rows[0][0].chart
    out: dict = {}
    for perm in permutations(range(len(rows))):
        term = chart.const(permutation_sign(perm))
        for r, c in enumerate(perm):
            term = _term_loop_product(term, rows[r][c])
        for key, value in term.terms.items():
            add_term(out, key, value)
    return Poly(chart, out)


# square matrices up to 3 x 3 of small polynomials, zero entries included
poly_matrices = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(polys(2, 1), min_size=n, max_size=n), min_size=n, max_size=n)
)
images = st.lists(polys(2, 1), min_size=CHART6.dim, max_size=CHART6.dim)
BIG = Poly(CHART6, {(1, 0, 0, 0, 0, 0): Fraction(1, 999_983), (0, 0, 0, 1, 0, 0): Fraction(-5, 1_000_003)})


@SETTINGS
@given(polys(), polys(), images, poly_matrices)
@example(BIG, BIG, [BIG] * CHART6.dim, [[BIG, BIG.scale(Fraction(1, 65_537))], [BIG, CHART6.var("x1")]])
def test_integer_accumulators_match_their_term_loop_oracles(p, q, imgs, rows):
    for got, want in [
        (p * q, _term_loop_product(p, q)),
        # the cross terms cancel in the sum, and a repeated row cancels every term
        ((p + q) * (p - q), _term_loop_product(p + q, p - q)),
        (p.compose(imgs, CHART6), oracle_compose(p, imgs, CHART6)),
        (linalg.poly_det(rows), oracle_det(rows)),
        (linalg.poly_det([[p, q], [p, q]]), CHART6.zero()),
    ]:
        assert_clean(got)
        assert got == want


@SETTINGS
@given(forms, forms, vector_fields, maps, positive_forms, polys(), polys(), poly_matrices)
def test_accumulator_outputs_are_nonzero_fractions_in_lowest_terms(a, b, v, f, p, g, h, rows):
    for result in (
        wedge(a, b),
        ext_d(a),
        interior(v, a),
        pullback(a, f),
        poincare_homotopy(p),
        g * h,
        linalg.poly_det(rows),
    ):
        assert_clean(result)


# -- absent terms: coeff misses, the shared zero, and d where a variable occurs -------------


def oracle_coeff(x: _Graded, idx) -> Poly:
    """``_Graded.coeff`` with the repeated-index check and the sign read before the lookup."""
    order = tuple(idx)
    if len(set(order)) != len(order):
        return x.chart.zero()
    sorted_idx = tuple(sorted(order))
    sign = permutation_sign(order)
    base = x.terms.get(sorted_idx)
    if base is None:
        return x.chart.zero()
    return base if sign == 1 else -base


low_degree_elements = st.integers(0, 4).flatmap(lambda k: graded(KForm, k) | graded(KVector, k))


@SETTINGS
@given(low_degree_elements)
def test_coeff_matches_its_oracle_on_every_index_tuple(x):
    # every ordered tuple of up to 4 indices in -1..NG: repeated, unsorted and out-of-block ones included
    for length in range(5):
        for order in product(range(-1, NG + 1), repeat=length):
            got, want = x.coeff(order), oracle_coeff(x, order)
            assert got == want and got.chart is x.chart, order


def oracle_ext_d_merge(a: KForm) -> KForm:
    """``ext_d`` with the index of dv ^ dx_I merged for every geometric v, whether or not v occurs."""
    chart = a.chart
    den, terms = _lift(a)
    buckets: dict = {}
    for idx, coeff in terms:
        for v in range(chart.n_geom):
            merged = _merge_indices((v,), idx)
            if merged is None:
                continue
            sign, new_idx = merged
            bucket = None
            for exp, c in coeff.items():
                e = exp[v]
                if e:
                    if bucket is None:
                        bucket = buckets.setdefault(new_idx, {})
                    key = exp[:v] + (e - 1,) + exp[v + 1 :]
                    bucket[key] = bucket.get(key, 0) + c * (sign * e)
    return KForm._make(chart, min(a.degree + 1, chart.n_geom), polys_from_buckets(chart, buckets, den))


@st.composite
def charts_with_parameters(draw) -> Chart:
    dim = draw(st.integers(2, 6))
    return Chart(tuple(f"v{i}" for i in range(dim)), n_geom=draw(st.integers(1, dim - 1)))


def chart_forms(chart: Chart) -> st.SearchStrategy[KForm]:
    """Forms on any chart; the coefficients hold the parameters past n_geom too."""
    coeffs = st.dictionaries(st.tuples(*[st.integers(0, 2)] * chart.dim), coefficients, max_size=3)

    def of_degree(k: int):
        keys = st.lists(st.integers(0, chart.n_geom - 1), min_size=k, max_size=k, unique=True).map(sorted).map(tuple)
        terms = st.dictionaries(keys, coeffs.map(lambda t: Poly(chart, t)), max_size=3)
        return terms.map(lambda t: KForm(chart, k, t))

    return st.integers(0, chart.n_geom).flatmap(of_degree)


@SETTINGS
@given(st.one_of(st.sampled_from([CHART6, NS_CHART_EPS]), charts_with_parameters()).flatmap(chart_forms))
def test_ext_d_matches_its_per_v_merge_oracle(a):
    got, want = ext_d(a), oracle_ext_d_merge(a)
    assert_same(got, want)
    assert list(got.terms) == list(want.terms)  # the same terms in the same order


@SETTINGS
@given(polys(), forms, vector_fields, graded(KVector, 2), rationals, images)
def test_operations_on_zero_operands_leave_the_shared_zero_empty(p, a, v, m, c, imgs):
    zero = CHART6.zero()
    no_form, no_vector = KForm(CHART6, a.degree, {}), KVector(CHART6, 1, {})
    polys_out = [p + zero, zero + p, zero - p, p - zero, zero + zero, -zero, p * zero, zero * p, zero * zero]
    polys_out += [zero**2, zero.scale(c), p.scale(0), zero.differentiate("x1"), zero.compose(imgs, CHART6)]
    polys_out += [p.compose([zero] * CHART6.dim, CHART6), linalg.poly_det([[zero, p], [zero, p]])]
    graded_out = [ext_d(no_form), ext_d(scalar_form(p)), wedge(a, no_form), wedge(no_form, a), -no_form]
    graded_out += [no_form + a, a + no_form, a.scale(zero), no_form.scale(p), interior(no_vector, a)]
    graded_out += [interior(v, no_form), schouten(m, m), schouten(m, KVector(CHART6, 2, {}))]
    graded_out += [scalar_form(a.coeff((0, 0)) + p)]
    for result in polys_out + graded_out:
        assert_clean(result)
    assert zero.terms == {} and zero is CHART6.zero()


# -- pullback in one lift, and one Fraction per distinct numerator in the unlift -----------


def chart_polys(chart: Chart, max_terms: int = 2, max_exp: int = 1) -> st.SearchStrategy[Poly]:
    exponents = st.tuples(*[st.integers(0, max_exp)] * chart.dim)
    return st.dictionaries(exponents, coefficients, max_size=max_terms).map(lambda t: Poly(chart, t))


def maps_to_target4(source: Chart) -> st.SearchStrategy[PolyMap]:
    return st.tuples(*[chart_polys(source)] * TARGET4.dim).map(lambda comps: PolyMap(source, TARGET4, comps))


w1, w2, w3, w4 = (TARGET4.var(name) for name in TARGET4.names)
BIG_MAP = PolyMap(
    CHART6, TARGET4, (BIG, BIG.scale(Fraction(1, 65_537)) + CHART6.var("t2"), CHART6.var("x1"), BIG * BIG)
)
CUSP_MAP = ns_model("cusp").fibration()
BIG_FORM = KForm(TARGET4, 2, {(0, 1): w1 * w3.scale(Fraction(1, 999_983)), (1, 3): w2 - Fraction(5, 1_000_003)})
# coefficients of total degree 3, 1 and 0, composed over one denominator: padded to the top degree
MIXED_DEGREES = KForm(
    TARGET4, 1, {(0,): w1**2 * w2 + Fraction(1, 3), (2,): w4 - Fraction(2, 5), (3,): TARGET4.const(7)}
)


@SETTINGS
# the calculus check pulls back from CHART6, build_omega0 from NS_CHART_EPS, whose eps the components may hold
@given(st.tuples(chart_forms(TARGET4), st.sampled_from([CHART6, NS_CHART_EPS]).flatmap(maps_to_target4)))
@example((BIG_FORM, BIG_MAP))
@example((KForm(TARGET4, 2, {}), BIG_MAP))
@example((scalar_form(w1 * w2 - w4.scale(Fraction(3, 7))), CUSP_MAP))
@example((MIXED_DEGREES, CUSP_MAP))
@example((KForm(TARGET4, 2, {(0, 1): TARGET4.one(), (2, 3): TARGET4.one()}), ns_model("butterfly").fibration()))
def test_pullback_along_the_product_maps_matches_its_oracle(case):
    a, f = case
    got = pullback(a, f)
    assert_same(got, oracle_pullback(a, f))
    assert pullback(ext_d(a), f) == ext_d(got)


# numerators from a small range, so that a call sees each value several times
repeated_numerators = st.dictionaries(st.tuples(*[st.integers(0, 2)] * CHART6.dim), st.integers(-6, 6), max_size=8)


@SETTINGS
@given(st.lists(repeated_numerators, max_size=4), st.sampled_from([1, 4, 6, 999_983]) | st.integers(1, 10**6))
def test_the_unlift_builds_one_fraction_per_distinct_numerator(buckets, den):
    from_buckets = polys_from_buckets(CHART6, dict(enumerate(buckets)), den)
    assert set(from_buckets) == {i for i, t in enumerate(buckets) if any(t.values())}
    for i, terms in enumerate(buckets):
        want = Poly(CHART6, {e: Fraction(n, den) for e, n in terms.items()})
        for got in (poly_over(CHART6, terms, den), from_buckets.get(i, CHART6.zero())):
            assert_clean(got)
            assert got.terms == want.terms
    # within one call, equal numerators share one Fraction instance
    for polys_of_one_call in [list(from_buckets.values())] + [[poly_over(CHART6, t, den)] for t in buckets]:
        seen: dict = {}
        for p in polys_of_one_call:
            for c in p.terms.values():
                assert seen.setdefault(c, c) is c


def test_polys_sharing_fractions_stay_independent():
    x1, x2, x3 = (CHART6.var(name) for name in ("x1", "x2", "x3"))
    e1, e2, e3 = (next(iter(v.terms)) for v in (x1, x2, x3))
    p, q = polys_from_buckets(CHART6, {0: {e1: 3, e2: 3}, 1: {e1: 3, e3: -3}}, 6).values()
    assert p.terms[e1] is q.terms[e1] is p.terms[e2]
    half = Fraction(1, 2)
    assert p - q == (x2 + x3).scale(half)
    assert q - p == -(x2 + x3).scale(half)
    assert p.scale(2) == x1 + x2 and q.scale(-4) == (x3 - x1).scale(2)
    assert p + q == x1 + (x2 - x3).scale(half)
    assert -p == -(x1 + x2).scale(half)
    # neither operand changed, and each keeps its own terms dict
    assert p == (x1 + x2).scale(half) and q == (x1 - x3).scale(half)
    assert p.terms is not q.terms


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
    general = st.dictionaries(exponents, coefficients, max_size=4).map(lambda t: Poly(chart, t))
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
    num, den = scaled = integer_point(point)
    assert den > 0 and all(type(x) is int for x in num)
    assert [Fraction(x, den) for x in num] == scaled.fractions() == [Fraction(v) for v in point]
    # the least common denominator, so equal points scale to equal IntegerPoints
    assert gcd(den, *num) == 1 and integer_point(scaled) is scaled
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


@SETTINGS
@given(st.lists(st.integers(-60, 60), max_size=7))
def test_primitive_divides_by_the_gcd_of_the_entries(vec):
    out = linalg.primitive(list(vec))
    g = gcd(*vec)
    if g == 0:
        assert out == vec  # the zero vector, and the empty one, come back unchanged
        return
    assert [x * g for x in out] == vec  # so every sign is kept
    assert gcd(*out) == 1


def cycle_parity_sign(order) -> int:
    """(-1)^(length - number of cycles) of the permutation that sorts ``order``."""
    rank = {x: r for r, x in enumerate(sorted(order))}
    perm = [rank[x] for x in order]
    seen: set[int] = set()
    cycles = 0
    for start in range(len(perm)):
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return (-1) ** (len(perm) - cycles)


@SETTINGS
@given(st.lists(st.integers(-20, 20), unique=True, max_size=8))
def test_permutation_sign_is_the_parity_of_the_cycle_count(order):
    assert permutation_sign(order) == permutation_sign(tuple(order)) == cycle_parity_sign(order)


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


# -- [k pi, k pi] = k^2 [pi, pi] + 2k pi ^ pi^#(dk) -----------------------------------

S_CHART = chart_2n(3, ("s_par",))
nonzero_rationals = st.builds(Fraction, st.integers(1, 5) | st.integers(-5, -1), st.integers(1, 4))
#: any model on the chart; the bracket reads only the bivector and k
CHART_MODELS = {CHART6: get_model("fold", 3), S_CHART: get_model("w_s", 3)}


def small_polys(
    chart: Chart, min_terms: int = 0, max_terms: int = 2, geometric: bool = True
) -> st.SearchStrategy[Poly]:
    """Polynomials of degree <= 1 per variable; with ``geometric`` they do not involve s_par."""
    n = chart.n_geom if geometric else chart.dim
    exponents = st.tuples(*[st.integers(0, 1)] * n).map(lambda e: e + (0,) * (chart.dim - n))
    terms = st.dictionaries(exponents, nonzero_rationals, min_size=min_terms, max_size=max_terms)
    return terms.map(lambda t: Poly(chart, t))


def bivectors(chart: Chart) -> st.SearchStrategy[KVector]:
    pairs = [(i, j) for i in range(chart.n_geom) for j in range(i + 1, chart.n_geom)]
    coeffs = small_polys(chart, 1, geometric=False)
    return st.dictionaries(st.sampled_from(pairs), coeffs, min_size=2, max_size=4).map(
        lambda t: KVector(chart, 2, t)
    )


def scales(chart: Chart, kind: str) -> st.SearchStrategy[Poly]:
    if kind == "constant":
        return nonzero_rationals.map(chart.const)
    if kind == "polynomial":
        return small_polys(chart, 1, 3).filter(lambda k: any(sum(e) for e in k.terms))
    s = chart.var("s_par")
    return st.tuples(small_polys(chart, 1), small_polys(chart)).map(lambda pq: s * pq[0] + pq[1])


@pytest.mark.parametrize("kind", ["constant", "polynomial", "parameter"])
@settings(max_examples=15, deadline=None)  # three dense brackets per example
@given(data=st.data())
def test_scaled_bracket_is_the_direct_bracket(kind, data):
    # a parameter-dependent k needs the s_par chart; the other two draw either chart
    chart = S_CHART if kind == "parameter" else data.draw(st.sampled_from([CHART6, S_CHART]), label="chart")
    base = data.draw(bivectors(chart).filter(lambda pi: not schouten(pi, pi).is_zero()), label="base")
    k = data.draw(scales(chart, kind), label="k")
    b = PoissonBivector(CHART_MODELS[chart], k, base)
    direct = schouten(b.pi, b.pi)
    assert self_bracket(b) == direct
    report = jacobi(b)
    assert (report.status, report.witness) == (("pass", None) if direct.is_zero() else ("fail", str(direct)))


def test_scaled_bracket_sign_convention():
    # pi = e_t1^e_t2 + e_x1^e_x2 is constant, so [pi, pi] = 0, and pi^pi = 2 e_t1^e_t2^e_x1^e_x2;
    # with k = x1, i_{dk} contracts e_x1, the third slot, so i_{dk}(pi^pi) = 2 e_t1^e_t2^e_x2
    # and the identity gives -k i_{dk}(pi^pi) = -2 x1 e_t1^e_t2^e_x2
    c = CHART6
    base = vector_term(c, 1, ("t1", "t2")) + vector_term(c, 1, ("x1", "x2"))
    b = PoissonBivector(CHART_MODELS[c], c.var("x1"), base)
    expected = vector_term(c, -2 * c.var("x1"), ("t1", "t2", "x2"))
    assert self_bracket(b) == expected
    assert schouten(b.pi, b.pi) == expected
