"""Poisson layer: determinant construction, axioms, catalogue audit."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from singfib import poisson
from singfib.catalog import (
    ALL_KINDS,
    DEFORMATION_KINDS,
    DIM6_KINDS,
    PARAMETRIC_KINDS,
    FibrationModel,
    critical_points_sample,
    get_model,
    noncritical_kernel,
    random_noncritical_point,
)
from singfib.exterior import KVector, ext_d, interior, scalar_form, schouten, vector_term, wedge
from singfib.poisson import (
    PoissonBivector,
    _decomposable_rank,
    casimir_annihilation,
    decomposability,
    flaschka_ratiu,
    jacobi,
    match_claimed_bivector,
    rank_at,
    rank_stratification,
    self_bracket,
)
from singfib.poly import CHART6, Poly, parse_poly


def synthetic_model(casimirs, name="synthetic"):
    return FibrationModel(
        name=name,
        kind="fold",
        n=3,
        chart=CHART6,
        casimirs=tuple(casimirs),
        critical_locus=(CHART6.one(),),  # empty zero set
    )


def test_fold_raw_bivector_and_matrix():
    b = flaschka_ratiu(get_model("fold", 3), 1)
    c = CHART6
    x1, x2, x3 = c.var("x1"), c.var("x2"), c.var("x3")
    expect = (
        vector_term(c, 2 * x3, ("x1", "x2"))
        + vector_term(c, -2 * x2, ("x1", "x3"))
        + vector_term(c, -2 * x1, ("x2", "x3"))
    )
    assert b.pi == expect
    # the x-block of the matrix at the anchor point matches the catalogued solve
    mat = b.matrix_at((0, 0, 0, 1, 0, 1))
    xb = [row[3:] for row in mat[3:]]
    assert xb == [
        [Fraction(0), Fraction(2), Fraction(0)],
        [Fraction(-2), Fraction(0), Fraction(-2)],
        [Fraction(0), Fraction(2), Fraction(0)],
    ]


def test_permutation_casimirs_give_unit_bivector():
    c = CHART6
    model = synthetic_model([c.var("t1"), c.var("t2"), c.var("t3"), c.var("x1")])
    b = flaschka_ratiu(model, 1)
    assert b.pi == vector_term(c, 1, ("x2", "x3"))


def test_butterfly_distinguished_coefficient():
    b = flaschka_ratiu(get_model("butterfly", 3), 1)
    c = CHART6
    t1, t2, t3, x1 = c.var("t1"), c.var("t2"), c.var("t3"), c.var("x1")
    # coefficient on e_x3 ^ e_x2 of the construction equals the x1-derivative
    got = b.pi.coeff((c.index("x3"), c.index("x2")))
    assert got == -(5 * x1**4 + 3 * t1 * x1**2 + 2 * t2 * x1 + t3)


def test_lefschetz_normalized_leading_term():
    model = get_model("lefschetz", 4)
    b = flaschka_ratiu(model, 1)
    c = model.chart
    it, ix1 = c.index("t5"), c.index("x1")
    got = b.pi.coeff((it, ix1)).scale(Fraction(1, 4))
    assert got == c.var("x2") ** 2 + c.var("x3") ** 2


def test_k_must_be_nonzero():
    with pytest.raises(ValueError):
        flaschka_ratiu(get_model("fold", 3), 0)


def test_casimir_annihilation_catalogue():
    for kind in ("fold", "cusp", "w_s", "lefschetz"):
        model = get_model(kind, 3)
        k = model.chart.one() + model.chart.var("x1") ** 2
        assert casimir_annihilation(flaschka_ratiu(model, k)).status == "pass"


def test_casimir_failure_reports_the_first_component_of_pi_sharp():
    # casimir_annihilation contracts dC into base; its witness is still (k base)^# dC
    c = CHART6
    model = get_model("fold", 3)
    pi = vector_term(c, c.var("x3"), ("t1", "x1")) + vector_term(c, c.var("t1"), ("x2", "x3"))
    fake = PoissonBivector(model, parse_poly("1 + x1^2", c), pi)
    residual = dense_sharp(fake.pi, model.casimirs[0])
    first = next(i for i, r in enumerate(residual) if r)
    assert interior(ext_d(scalar_form(model.casimirs[0])), fake.pi).terms == sparse_oracle(residual)
    rep = casimir_annihilation(fake)
    assert rep.status == "fail"
    assert rep.detail == f"pi^# dC_1 has nonzero component {c.names[first]}"
    assert rep.witness == str(residual[first])


def test_foreign_casimir_fails():
    model = get_model("fold", 3)
    b = flaschka_ratiu(model, 1)
    h = model.chart.var("x1")
    contracted = interior(ext_d(scalar_form(h)), b.pi).terms
    assert contracted and contracted == sparse_oracle(dense_sharp(b.pi, h))


def dense_sharp(pi, h):
    """(pi^# dh)^i as the full skew matrix of Polys times the gradient of h.

    The oracle of the contraction ``interior(dh, pi)`` that ``casimir_annihilation`` runs;
    that contraction is -pi^# dh.
    """
    chart = pi.chart
    grad = [h.differentiate(v) for v in chart.geometric_names()]
    return [sum((m * g for m, g in zip(row, grad)), chart.zero()) for row in pi.coefficient_matrix()]


def sparse_oracle(sharp):
    """The terms ``interior(dh, pi)`` should hold, read off the dense pi^# dh: -(pi^# dh)^i at (i,), zeros left out."""
    return {(i,): -r for i, r in enumerate(sharp) if r}


@pytest.mark.parametrize("kind, n", [(kind, 3) for kind in ALL_KINDS] + [(kind, 5) for kind in PARAMETRIC_KINDS])
def test_sparse_sharp_equals_the_dense_matrix_product(kind, n):
    model = get_model(kind, n)
    chart = model.chart
    k = parse_poly("1 + x1^2 - 3*x2", chart)
    # the Casimirs (sharp 0), a scaling function k, and functions that are not Casimirs
    foreign = [parse_poly(text, chart) for text in ("x1", "t1*x2 - x3^2", "x1^2*x2*x3 + 2*t1 - 1")]
    # the model's bivectors hold only pairs of free indices; the last has a term at every pair
    ng = chart.n_geom
    pairs = [(i, j) for i in range(ng) for j in range(i + 1, ng)]
    every_pair = KVector(chart, 2, {(i, j): chart.var(chart.names[(i + j) % ng]) + (i - j) for i, j in pairs})
    for pi in (flaschka_ratiu(model, 1).pi, flaschka_ratiu(model, k).pi, every_pair):
        for h in (*model.casimirs, k, *foreign):
            assert interior(ext_d(scalar_form(h)), pi).terms == sparse_oracle(dense_sharp(pi, h)), (pi, h)
        assert any(interior(ext_d(scalar_form(h)), pi).terms for h in foreign)


def test_zero_bivector_annihilates_everything():
    model = get_model("fold", 3)
    zero = PoissonBivector(model, CHART6.one(), KVector(CHART6, 2, {}))
    assert casimir_annihilation(zero).status == "pass"


def test_rank_values():
    b = flaschka_ratiu(get_model("fold", 3), 1)
    assert rank_at(b, (0, 0, 0, 1, 0, 0)) == 2
    assert rank_at(b, (0, 0, 0, 0, 0, 0)) == 0
    bc = flaschka_ratiu(get_model("cusp", 3), 1)
    assert rank_at(bc, (1, 0, 0, 1, 0, 0)) == 0  # on the critical locus


def test_jacobi_catalogue_and_scales():
    for kind in ALL_KINDS:
        model = get_model(kind, 3)
        for text in ("1", "1 + x1^2", "7"):
            k = parse_poly(text, model.chart)
            assert jacobi(flaschka_ratiu(model, k)).status == "pass", (kind, text)


def test_a_constant_k_scales_pi0_as_its_rational(monkeypatch):
    # k = 1 hands back the model's pi_0 itself, and no constant k multiplies a polynomial per entry
    model = get_model("cusp", 3)
    pi0 = model.determinant_bivector
    k = parse_poly("1 + x1^2", CHART6)
    products = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda p, q: products.append(q) or mul(p, q))
    assert flaschka_ratiu(model, 1).pi is pi0
    assert flaschka_ratiu(model, CHART6.one()).pi is pi0
    for c in (2, Fraction(-3, 2), CHART6.const(Fraction(5, 7))):
        rational = c.constant_value() if isinstance(c, Poly) else Fraction(c)
        assert flaschka_ratiu(model, c).pi.terms == {ij: e.scale(rational) for ij, e in pi0.terms.items()}
    assert products == []
    # a k that is not constant multiplies each entry once
    flaschka_ratiu(model, k).pi
    assert len(products) == len(pi0.terms)


@pytest.mark.parametrize("kind, n", [(kind, 3) for kind in ALL_KINDS] + [(kind, 5) for kind in PARAMETRIC_KINDS])
def test_every_k_brackets_as_k_squared_times_base(kind, n):
    # base ^ base = 0, and contraction is a derivation, so for every k
    # [k base, k base] = k^2 [base, base]: Jacobi for base is Jacobi for every k
    model = get_model(kind, n)
    k = parse_poly("1 + x1^2 - 3*t1*x2 + x3^5", model.chart)
    b = flaschka_ratiu(model, k)
    assert wedge(b.base, b.base).is_zero()
    assert self_bracket(b) == schouten(b.pi, b.pi) == schouten(b.base, b.base).scale(k * k)


def test_non_poisson_bivector_detected():
    c = CHART6
    pi = vector_term(c, c.var("x3"), ("t1", "x1")) + vector_term(c, c.var("t1"), ("x2", "x3"))
    fake = PoissonBivector(get_model("fold", 3), c.one(), pi)
    rep = jacobi(fake)
    assert rep.status == "fail"
    assert rep.witness  # nonzero trivector witness


def test_non_poisson_bivector_with_nonconstant_k_detected():
    # a bivector made by hand gets its own bracket, whatever was bracketed before
    c = CHART6
    pi = vector_term(c, c.var("x3"), ("t1", "x1")) + vector_term(c, c.var("t1"), ("x2", "x3"))
    jacobi(flaschka_ratiu(get_model("fold", 3), parse_poly("1 + x1^2", c)))
    fake = PoissonBivector(get_model("fold", 3), parse_poly("1 + x1^2", c), pi)
    rep = jacobi(fake)
    assert rep.status == "fail"
    assert rep.detail == "[pi,pi] != 0 with k = x1^2 + 1"
    assert rep.witness == str(schouten(fake.pi, fake.pi))


def test_jacobi_check_brackets_each_model_once(monkeypatch):
    from singfib.suite import JACOBI_SCALES, check_jacobi

    calls = []

    def counting_schouten(a, b):
        calls.append(a)
        return schouten(a, b)

    poisson._self_bracket.cache_clear()
    monkeypatch.setattr(poisson, "schouten", counting_schouten)
    reports = [r for kind in ALL_KINDS for r in check_jacobi(kind, 7, 1)]
    assert len(reports) == len(ALL_KINDS) * len(JACOBI_SCALES) == 54
    assert all(r.status == "pass" for r in reports)
    # one bracket per distinct bivector: fold and fold-2n have equal Casimirs at
    # n = 3, so their determinant bivectors are equal and share one bracket
    bases = [get_model(kind, 3).determinant_bivector for kind in ALL_KINDS]
    assert bases[ALL_KINDS.index("fold")] == bases[ALL_KINDS.index("fold-2n")]
    assert calls == list(dict.fromkeys(bases))
    assert len(calls) == 17
    for kind in ALL_KINDS:
        check_jacobi(kind, 7, 1)
    assert len(calls) == 17


# the definite variants are catalogued in dimension 6 only
@pytest.mark.parametrize("kind, n", [(k, n) for n in (3, 4) for k in ALL_KINDS if n == 3 or "-def" not in k])
def test_pi_is_k_times_each_determinant(kind, n):
    model = get_model(kind, n)
    for text in ("1", "1 + x1^2", "7"):
        k = parse_poly(text, model.chart)
        expected = KVector(model.chart, 2, {ij: k * det for ij, det in model.casimir_determinants.items()})
        assert flaschka_ratiu(model, k).pi == expected


def test_decomposability_catalogue():
    for kind in ALL_KINDS:
        assert decomposability(flaschka_ratiu(get_model(kind, 3), 1)).status == "pass"


def test_matrix_antisymmetry_symbolic():
    for kind in ("fold", "w_s", "lefschetz"):
        b = flaschka_ratiu(get_model(kind, 3), 1)
        mat = b.pi.coefficient_matrix()
        n = len(mat)
        for i in range(n):
            assert mat[i][i].is_zero()
            for j in range(n):
                assert mat[i][j] == -mat[j][i]


# the catalogue audit: every formula matches up to one global sign except the
# two documented single-term defects
#: the parametric kinds are matched at these half-dimensions; the suite itself runs 4 and 5
MATCH_NS = (3, 4, 5, 8)

EXPECTED_MISMATCHES = {
    ("fold-def2", 3): (("x2", "x3"),),
    **{("m_s", n): (("x2", "x3"),) for n in MATCH_NS},
}


@pytest.mark.parametrize("kind", DIM6_KINDS)
def test_bivector_match_dim6(kind):
    m = match_claimed_bivector(get_model(kind, 3))
    names = m.model.chart.names
    got = tuple(tuple(names[i] for i in pair) for pair in m.mismatched)
    assert got == EXPECTED_MISMATCHES.get((kind, 3), ())
    assert m.sign == -1
    assert m.scale == 1


# each parametric kind with s symbolic, and the deformation kinds also at s = 0, the value the
# rank check pins, and at s = 1/2, the one the leaf audit pins
PARAMETRIC_MATCHES = [pytest.param(kind, None, id=kind) for kind in PARAMETRIC_KINDS] + [
    pytest.param(kind, param, id=f"{kind}-s={param}")
    for kind in DEFORMATION_KINDS
    for param in (Fraction(0), Fraction(1, 2))
]


@pytest.mark.parametrize("kind, param", PARAMETRIC_MATCHES)
@pytest.mark.parametrize("n", MATCH_NS)
def test_bivector_match_parametric(kind, param, n):
    m = match_claimed_bivector(get_model(kind, n, param))
    names = m.model.chart.names
    got = tuple(tuple(names[i] for i in pair) for pair in m.mismatched)
    assert got == EXPECTED_MISMATCHES.get((kind, n), ())
    if kind == "lefschetz":
        assert m.scale == 4 and m.sign == 1
    elif kind == "fold-2n":
        assert m.scale == 2 and m.sign == -1
    else:
        assert m.scale == 1 and m.sign == -1


def test_rank_stratification_quick():
    for kind in ("fold", "cusp", "w_s"):
        param = Fraction(0) if kind in DEFORMATION_KINDS else None
        model = get_model(kind, 3, param)
        rep = rank_stratification(model, 10, random.Random(f"strat:{kind}"))
        assert rep.status == "pass", rep.detail


def test_rank_stratification_insensitive_to_k():
    # rank(k pi) = rank(pi) wherever k does not vanish
    for kind in ("fold", "cusp"):
        model = get_model(kind, 3)
        for text in ("1 + x1^2", "7"):
            k = parse_poly(text, model.chart)
            b = flaschka_ratiu(model, k)
            rng = random.Random(f"rank-k:{kind}:{text}")
            for _ in range(5):
                from singfib.catalog import random_noncritical_point

                assert rank_at(b, random_noncritical_point(model, rng).fractions()) == 2
            from singfib.catalog import critical_points_sample

            for p in critical_points_sample(model, 5, rng):
                assert rank_at(b, p.fractions()) == 0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_rank_read_from_entries_equals_the_elimination(kind):
    param = Fraction(0) if kind in DEFORMATION_KINDS else None
    model = get_model(kind, 3, param)
    b = flaschka_ratiu(model, 1)
    # the kernel the rank check reads: the critical equations, then the entries of pi
    kernel = noncritical_kernel(model, list(b.pi.terms.values()))
    m = len(model.critical_locus)
    rng = random.Random(f"rank-entries:{kind}")
    points = [random_noncritical_point(model, rng) for _ in range(20)]
    points += critical_points_sample(model, 20, rng)
    for p in points:
        assert _decomposable_rank(kernel(*p)[0][m:]) == rank_at(b, p.fractions())


def test_rank_check_fails_when_pi_wedge_pi_is_not_zero(monkeypatch):
    # e_t1^e_t2 + e_x1^e_x2 has rank 4 wherever it is evaluated
    def rank_four(model, k=1):
        pi = KVector(model.chart, 2, {(0, 1): model.chart.one(), (3, 4): model.chart.one()})
        return PoissonBivector(model, model.chart.one(), pi)

    model = get_model("fold", 3)
    pi = rank_four(model).pi
    monkeypatch.setattr(poisson, "flaschka_ratiu", rank_four)
    rep = rank_stratification(model, 5, random.Random(1))
    assert rep.status == "fail"
    assert rep.detail == "pi^pi != 0, so rank <= 2 fails"
    assert rep.witness == str(wedge(pi, pi))
