"""Model catalogue: maps, Jacobians, critical loci, parametric families."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from singfib import linalg
from singfib.catalog import (
    ALL_KINDS,
    DEFORMATION_KINDS,
    ModelError,
    UnknownKind,
    _shared_model,
    build_model,
    critical_points_sample,
    get_model,
    manifest_text,
    random_noncritical_point,
    random_rational,
)
from singfib.poisson import flaschka_ratiu, match_claimed_bivector
from singfib.poly import integer_point, parse_poly


#: chart, printed Casimirs, printed critical locus and scale of every model
#: buildable with n in {3, 4, 5} (and param in {None, 0, 1/2} on the
#: deformation kinds); a model that changes on purpose changes its row
MODEL_TABLE = json.loads(Path(__file__).with_name("catalog_models.json").read_text())
GRID_PARAMS = (None, Fraction(0), Fraction(1, 2))


def _table_param(row):
    return None if row["param"] is None else Fraction(row["param"])


def test_model_table_covers_every_buildable_model():
    built = set()
    for kind in ALL_KINDS:
        for n in (3, 4, 5):
            for param in GRID_PARAMS:
                try:
                    build_model(kind, n, param)
                except ModelError:
                    continue
                built.add((kind, n, param))
    assert {(r["kind"], r["n"], _table_param(r)) for r in MODEL_TABLE} == built
    assert len(MODEL_TABLE) == len(built) == 62


@pytest.mark.parametrize("row", MODEL_TABLE, ids=lambda r: f"{r['kind']}-{r['n']}-{r['param']}")
def test_build_model_matches_the_table(row):
    m = build_model(row["kind"], row["n"], _table_param(row))
    assert list(m.chart.names) == row["chart"]
    assert [str(c) for c in m.casimirs] == row["casimirs"]
    assert [str(c) for c in m.critical_locus] == row["critical_locus"]
    assert str(m.claimed_scale) == row["claimed_scale"]
    assert m.param == _table_param(row)


def test_cusp_fourth_component():
    m = get_model("cusp", 3)
    assert str(m.casimirs[3]) == "x1^3 - 3*t1*x1 + x2^2 - x3^2"


def test_ws_components_at_zero_parameter():
    m = get_model("w_s", 4, param=0)
    assert str(m.casimirs[-2]) == "t5^2 - x1^2 + x2^2 - x3^2"
    assert str(m.casimirs[-1]) == "2*t5*x1 + 2*x2*x3"


def test_lefschetz_casimirs_match_complex_square():
    sympy = pytest.importorskip("sympy")
    m = get_model("lefschetz", 3)
    t3, x1, x2, x3 = sympy.symbols("t3 x1 x2 x3", real=True)
    w = (t3 + sympy.I * x1) ** 2 + (x2 + sympy.I * x3) ** 2
    re, im = sympy.expand(sympy.re(w)), sympy.expand(sympy.im(w))
    syms = dict(zip(("t1", "t2", "t3", "x1", "x2", "x3"), sympy.symbols("t1 t2 t3 x1 x2 x3", real=True)))

    def to_sympy(p):
        total = sympy.Integer(0)
        for exp, coeff in p.terms.items():
            term = sympy.Rational(coeff.numerator, coeff.denominator)
            for name, e in zip(p.chart.names, exp):
                term *= syms[name] ** e
            total += term
        return sympy.expand(total)

    assert to_sympy(m.casimirs[-2]) == re
    assert to_sympy(m.casimirs[-1]) == im


def test_jacobian_fold_last_row():
    m = get_model("fold", 3)
    last = [str(p) for p in m.casimir_gradients[-1]]
    assert last == ["0", "0", "0", "-2*x1", "2*x2", "2*x3"]


def test_jacobian_swallowtail_entry():
    m = get_model("swallowtail", 3)
    assert str(m.casimir_gradients[-1][3]) == "4*x1^3 + 2*t1*x1 + t2"


@pytest.mark.parametrize("kind, n", [("lefschetz", 3), ("w_s", 4), ("cusp", 3)])
def test_casimir_gradients_are_built_once(kind, n):
    m = get_model(kind, n)
    names = m.chart.geometric_names()
    assert m.casimir_gradients == tuple(tuple(c.differentiate(v) for v in names) for c in m.casimirs)
    assert m.casimir_gradients is m.casimir_gradients


@pytest.mark.parametrize("kind, n", [("lefschetz", 3), ("w_s", 4), ("cusp", 3)])
def test_gradient_kernel_gives_the_gradient_rows_times_one_scale(kind, n):
    m = get_model(kind, n)
    assert m.gradient_kernel is m.gradient_kernel
    rng = random.Random(f"kernel:{kind}")
    for _ in range(5):
        q = random_noncritical_point(m, rng)
        values, scale = m.gradient_kernel(*integer_point(q))
        assert scale > 0
        assert values == [scale * g.evaluate(q) for row in m.casimir_gradients for g in row]


@pytest.mark.parametrize("args", [(), (1, 1), (3, 7), (20, 2)])
def test_random_rational_draws_the_same_stream(args):
    bound, den = args or (6, 4)
    for seed in range(5):
        table, direct = random.Random(seed), random.Random(seed)
        for _ in range(200):
            got = random_rational(table, *args)
            assert got == Fraction(direct.randint(-bound, bound), direct.randint(1, den))
        assert table.getstate() == direct.getstate()


@pytest.mark.parametrize("kind, n, param", [("cusp", 3, None), ("w_s", 4, Fraction(1, 2)), ("b_s", 3, None)])
def test_get_model_builds_each_model_once(kind, n, param):
    assert get_model(kind, n, param) is get_model(kind, n, param)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_get_model_call_forms_share_one_model(kind):
    assert get_model(kind, 3) is get_model(kind, 3, None)
    assert get_model(kind) is get_model(kind, n=3, param=None)


def test_model_checks_build_each_model_once():
    from singfib.suite import run_suite

    _shared_model.cache_clear()
    model_checks = ["bivector", "casimir", "jacobi", "decomposable", "rank", "leaf-relations", "leaf-audit"]
    run_suite(checks=model_checks, samples=1)
    # 12 dim-6 kinds at n = 3, the 6 parametric kinds symbolic at n = 3, 4 and 5,
    # and the 4 deformation kinds pinned at s = 0 (n = 3) and s = 1/2 (n = 3 and 4)
    assert _shared_model.cache_info().currsize == 12 + 6 * 3 + 4 * 3


@pytest.mark.parametrize("args", [("saddle", 3), ("cusp-def1", 4), ("b_s", 2), ("cusp", 3, 1)])
def test_bad_models_raise_on_every_call(args):
    for _ in range(3):
        with pytest.raises(ModelError):
            get_model(*args)


@pytest.mark.parametrize("kind, n", [("cusp", 3), ("w_s", 4)])
def test_flaschka_ratiu_scales_the_shared_determinants(kind, n):
    m = get_model(kind, n)
    k = parse_poly("1 + x1^2 - 3*x2", m.chart)
    assert flaschka_ratiu(m, k).pi == flaschka_ratiu(m, 1).pi.scale(k)
    assert flaschka_ratiu(m, 7).pi == flaschka_ratiu(m, 1).pi.scale(7)


@pytest.mark.parametrize("kind, n", [("lefschetz", 3), ("w_s", 4), ("cusp", 3)])
def test_casimir_determinants_are_expanded_once(monkeypatch, kind, n):
    calls = []
    poly_det = linalg.poly_det

    def counting_det(rows):
        calls.append(1)
        return poly_det(rows)

    monkeypatch.setattr(linalg, "poly_det", counting_det)
    m = build_model(kind, n)  # a fresh model, outside the cache
    flaschka_ratiu(m, 1)
    flaschka_ratiu(m, parse_poly("1 + x1^2", m.chart))
    match_claimed_bivector(m)
    ng = m.chart.n_geom
    assert len(calls) == ng * (ng - 1) // 2
    assert m.casimir_determinants is m.casimir_determinants


def test_jacobian_identity_block():
    m = get_model("butterfly", 3)
    jac = m.casimir_gradients
    for i in range(3):
        for j in range(3):
            assert jac[i][j] == (m.chart.one() if i == j else m.chart.zero())


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_critical_samples_and_rank(kind):
    param = Fraction(0) if kind in DEFORMATION_KINDS else None
    m = get_model(kind, 3, param)
    rng = random.Random(f"crit:{kind}")
    # the two-component singular charts drop rank by 2 at their deepest stratum
    expected = 2 * m.n - 4 if kind in ("lefschetz", "w_s") else 2 * m.n - 3

    def jacobian_rank_at(p):
        return linalg.rank([[g.evaluate(p) for g in row] for row in m.casimir_gradients])

    for p in critical_points_sample(m, 8, rng):
        assert m.is_critical(p)
        assert jacobian_rank_at(p) == expected
    for _ in range(8):
        q = random_noncritical_point(m, rng)
        assert jacobian_rank_at(q) == 2 * m.n - 2


def test_parametric_kinds_at_higher_dimension():
    for kind in ("lefschetz", "fold-2n", "b_s", "m_s", "f_s", "w_s"):
        m = get_model(kind, 5)
        assert m.dim == 10
        assert len(m.casimirs) == 8


def test_dim6_is_the_n3_specialization():
    fold6 = get_model("fold", 3)
    fold2n = get_model("fold-2n", 3)
    assert fold6.casimirs == fold2n.casimirs
    for kind in ("cusp", "swallowtail", "butterfly"):
        m3 = get_model(kind, 3)
        m4 = get_model(kind, 4)
        # the distinguished component agrees after the coordinate chart embeds
        sub = {f"t{i}": m4.chart.var(f"t{i}") for i in range(1, 4)}
        lifted = m3.casimirs[-1]
        mapped = parse_poly(str(lifted), m4.chart)
        assert mapped == m4.casimirs[-1]


def test_errors():
    with pytest.raises(UnknownKind):
        get_model("saddle", 3)
    with pytest.raises(ValueError):
        get_model("cusp-def1", 4)
    with pytest.raises(ValueError):
        get_model("b_s", 2)
    with pytest.raises(ValueError):
        get_model("cusp", 3, param=1)


def test_manifest_round_trip():
    text = manifest_text()
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert len(lines) == len(ALL_KINDS)
    for line in lines:
        kind, _, _, comps = (part.strip() for part in line.split("|"))
        model = get_model(kind, 3)
        parsed = [parse_poly(c.strip(), model.chart) for c in comps.split(";")]
        assert tuple(parsed) == model.casimirs
