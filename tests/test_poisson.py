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
    FibrationModel,
    critical_points_sample,
    get_model,
    random_noncritical_point,
)
from singfib.exterior import KVector, vector_term, wedge
from singfib.poisson import (
    PoissonBivector,
    _decomposable_rank_at,
    casimir_annihilation,
    decomposability,
    flaschka_ratiu,
    foreign_casimir_residual,
    jacobi,
    match_claimed_bivector,
    rank_at,
    rank_stratification,
)
from singfib.poly import CHART6, parse_poly


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


def test_foreign_casimir_fails():
    model = get_model("fold", 3)
    b = flaschka_ratiu(model, 1)
    residual = foreign_casimir_residual(b, model.chart.var("x1"))
    assert any(not r.is_zero() for r in residual)


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


def test_non_poisson_bivector_detected():
    c = CHART6
    pi = vector_term(c, c.var("x3"), ("t1", "x1")) + vector_term(c, c.var("t1"), ("x2", "x3"))
    fake = PoissonBivector(get_model("fold", 3), c.one(), pi)
    rep = jacobi(fake)
    assert rep.status == "fail"
    assert rep.witness  # nonzero trivector witness


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
EXPECTED_MISMATCHES = {
    ("fold-def2", 3): (("x2", "x3"),),
    ("m_s", 4): (("x2", "x3"),),
    ("m_s", 5): (("x2", "x3"),),
}


@pytest.mark.parametrize("kind", DIM6_KINDS)
def test_bivector_match_dim6(kind):
    m = match_claimed_bivector(get_model(kind, 3))
    names = m.model.chart.names
    got = tuple(tuple(names[i] for i in pair) for pair in m.mismatched)
    assert got == EXPECTED_MISMATCHES.get((kind, 3), ())
    assert m.sign == -1
    assert m.scale == 1


@pytest.mark.parametrize("kind", ("lefschetz", "fold-2n", "b_s", "m_s", "f_s", "w_s"))
@pytest.mark.parametrize("n", (4, 5))
def test_bivector_match_parametric(kind, n):
    m = match_claimed_bivector(get_model(kind, n))
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

                assert rank_at(b, random_noncritical_point(model, rng)) == 2
            from singfib.catalog import critical_points_sample

            for p in critical_points_sample(model, 5, rng):
                assert rank_at(b, p) == 0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_rank_read_from_entries_equals_the_elimination(kind):
    param = Fraction(0) if kind in DEFORMATION_KINDS else None
    model = get_model(kind, 3, param)
    b = flaschka_ratiu(model, 1)
    rng = random.Random(f"rank-entries:{kind}")
    points = [random_noncritical_point(model, rng) for _ in range(20)]
    points += critical_points_sample(model, 20, rng)
    for p in points:
        assert _decomposable_rank_at(b, p) == rank_at(b, p)


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
