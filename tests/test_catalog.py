"""Model catalogue: maps, Jacobians, critical loci, parametric families."""

from __future__ import annotations

import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from singfib import catalog, leaves, linalg, poisson
from singfib.catalog import (
    ALL_KINDS,
    DEFORMATION_KINDS,
    MAX_N,
    PARAMETRIC_KINDS,
    ModelError,
    UnknownKind,
    _shared_model,
    build_model,
    critical_points_sample,
    get_model,
    manifest_text,
    noncritical_kernel,
    noncritical_sample,
    random_noncritical_point,
    random_point,
    sample_locus,
)
from singfib.poisson import flaschka_ratiu, match_claimed_bivector
from singfib.poly import Chart, IntegerKernel, integer_point, parse_poly
from singfib.reference import leaf_claim
from singfib.suite import leaf_model


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


@pytest.mark.parametrize("kind, n", [(kind, 3) for kind in ALL_KINDS] + [(kind, 6) for kind in PARAMETRIC_KINDS])
def test_frame_kernel_gives_the_kept_rows_on_the_free_columns_times_one_scale(kind, n):
    # the one kernel the leaf frame is read from (``leaves.leaf_kernel``): the critical equations, the kept
    # gradient rows on N, row after row, then the entries of the bivector under test in the order of its
    # terms, all times one positive scale
    m = get_model(kind, n, Fraction(1, 2) if kind in DEFORMATION_KINDS else None)
    _, rows, free = m.casimir_split
    rng = random.Random(f"kernel:{kind}:{n}")
    for k in ("1", "1 + x1^2"):
        b = flaschka_ratiu(m, parse_poly(k, m.chart))
        kernel = leaves.leaf_kernel(b)
        for _ in range(5):
            q = random_noncritical_point(m, rng)
            values, scale = kernel(*q)
            assert scale > 0
            x = q.fractions()
            critical = [c.evaluate(x) for c in m.critical_locus]
            grads = [[g.evaluate(x) for g in row] for row in m.casimir_gradients]
            entries = [e.evaluate(x) for e in b.pi.terms.values()]
            want = critical + [grads[c][a] for c in rows for a in free] + entries
            assert values == [scale * w for w in want]


def full_determinants(m):
    """Every det(e_i | e_j | grad C_1 | ... | grad C_{2n-2}), i < j, by ``linalg.poly_det`` on the full matrix."""
    ng = m.chart.n_geom
    zero, one = m.chart.zero(), m.chart.one()
    dets = {}
    for i in range(ng):
        for j in range(i + 1, ng):
            cols = [[one if r == c else zero for r in range(ng)] for c in (i, j)] + list(m.casimir_gradients)
            dets[(i, j)] = linalg.poly_det([[col[r] for col in cols] for r in range(ng)])
    return dets


def assert_reduced_determinants_are_full(m):
    full = full_determinants(m)
    assert m.casimir_determinants == {ij: det for ij, det in full.items() if det}
    free = set(m.casimir_split.free)
    assert all(i in free and j in free for i, j in m.casimir_determinants)


DETERMINANT_MODELS = [(kind, 3, None) for kind in ALL_KINDS] + [
    (kind, n, param)
    for kind in PARAMETRIC_KINDS
    for n in range(3, 9)
    for param in ((None, Fraction(1, 2)) if kind in DEFORMATION_KINDS else (None,))
]


@pytest.mark.parametrize("kind, n, param", DETERMINANT_MODELS)
def test_reduced_determinants_equal_the_full_expansion(kind, n, param):
    m = get_model(kind, n, param)
    # the catalogue's coordinate Casimirs are t_1, t_2, ... and leave r + 2 free indices
    units, rows, free = m.casimir_split
    assert len(free) == len(rows) + 2 and len(rows) in (1, 2)
    assert all(units[k] == k for k in range(len(units)) if k not in rows)
    assert_reduced_determinants_are_full(m)


@pytest.mark.parametrize("kind", ["cusp", "w_s", "lefschetz"])
def test_reduced_determinants_read_the_casimirs_not_the_kind(kind):
    m = get_model(kind, 3)
    chart, casimirs = m.chart, m.casimirs
    t1, x1 = chart.var("t1"), chart.var("x1")
    base = len(casimirs) - len(m.casimir_split.rows)
    variants = {
        # coordinate Casimirs after the others and out of order: the column sign moves
        "reversed": (tuple(reversed(casimirs)), base),
        # a coefficient other than 1 is no coordinate Casimir
        "scaled": ((t1.scale(2),) + casimirs[1:], base - 1),
        "not a unit row": ((t1 + x1 * x1,) + casimirs[1:], base - 1),
        # a constant term keeps the unit row
        "shifted": ((t1 + 3,) + casimirs[1:], base),
        # a repeated coordinate is one coordinate Casimir; the copy is a row of the minor
        "repeated": ((t1, t1) + casimirs[2:], base - 1),
        "none": (tuple(c.scale(2) for c in casimirs), 0),
        # every Casimir a coordinate: r = 0, and the one pair left has determinant +-1
        "projection": (tuple(chart.var(v) for v in chart.geometric_names()[: len(casimirs)]), len(casimirs)),
    }
    for name, (cs, coordinates) in variants.items():
        v = dataclasses.replace(m, casimirs=cs)
        units, rows, free = v.casimir_split
        assert len(units) - len(rows) == coordinates, name
        assert len(free) == m.chart.n_geom - coordinates, name
        assert_reduced_determinants_are_full(v)


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


@pytest.mark.parametrize("args", [("saddle", 3), ("cusp-def1", 4), ("b_s", 2), ("cusp", 3, 1), ("fold", MAX_N + 1)])
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
    # one r x r minor per pair i < j of the free indices N, none of the full 2n x 2n matrix
    free = len(m.casimir_split.free)
    assert len(calls) == free * (free - 1) // 2
    assert m.casimir_determinants is m.casimir_determinants


def test_jacobian_identity_block():
    m = get_model("butterfly", 3)
    jac = m.casimir_gradients
    for i in range(3):
        for j in range(3):
            assert jac[i][j] == (m.chart.one() if i == j else m.chart.zero())


# -- the Fraction sampler, the oracle of the integer one ---------------------------


def fraction_rational(rng):
    """Fraction(randint(-6, 6), randint(1, 4)), drawn in that order: one sampled coordinate."""
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def fraction_noncritical_point(model, rng):
    """The first point drawn as Fractions, coordinate by coordinate, where some critical equation is nonzero."""
    for _ in range(1000):
        p = [fraction_rational(rng) for _ in range(model.chart.dim)]
        if any(eq.evaluate(p) for eq in model.critical_locus):
            return p
    raise RuntimeError("no non-critical point in 1000 draws")


def per_kind_critical_points(model, count, rng):
    """The hand-solved critical-point sampler, one branch per kind: the oracle for ``sample_locus``."""
    pts = []
    chart = model.chart
    n = model.n
    has_param = chart.dim > chart.n_geom

    def base_point():
        p = [fraction_rational(rng) for _ in range(chart.dim)]
        if has_param:
            p[chart.index("s_par")] = Fraction(0)
        return p

    ix1, ix2, ix3 = chart.index("x1"), chart.index("x2"), chart.index("x3")
    it_last = chart.index(f"t{2 * n - 3}")
    while len(pts) < count:
        p = base_point()
        p[ix2] = Fraction(0)
        p[ix3] = Fraction(0)
        kind = model.kind
        s_val = model.param if model.param is not None else Fraction(0)
        if kind.startswith("fold"):
            p[ix1] = Fraction(0)
        elif kind.startswith("cusp"):
            p[chart.index("t1")] = p[ix1] ** 2
        elif kind.startswith("swallowtail"):
            x1, t1 = p[ix1], p[chart.index("t1")]
            p[chart.index("t2")] = -4 * x1**3 - 2 * t1 * x1
        elif kind.startswith("butterfly"):
            x1, t1, t2 = p[ix1], p[chart.index("t1")], p[chart.index("t2")]
            p[chart.index("t3")] = -(5 * x1**4 + 3 * t1 * x1**2 + 2 * t2 * x1)
        elif kind == "b_s":
            # x1^2 = t^2 - s; solvable over Q with x1 = +-t when s = 0
            if s_val != 0:
                raise NotImplementedError("b_s sampling requires parameter 0")
            p[ix1] = p[it_last] * rng.choice((1, -1))
        elif kind == "m_s":
            if s_val != 0:
                raise NotImplementedError("m_s sampling requires parameter 0")
            p[ix1] = Fraction(0)
            p[it_last] = Fraction(0)
        elif kind == "f_s":
            x1 = p[ix1]
            p[it_last] = 2 * s_val * x1 - 4 * x1**3
        elif kind == "w_s":
            if s_val != 0:
                raise NotImplementedError("w_s sampling requires parameter 0")
            p[ix1] = Fraction(0)
            p[it_last] = Fraction(0)
        elif kind == "lefschetz":
            p[ix1] = Fraction(0)
            p[it_last] = Fraction(0)
        else:
            raise UnknownKind(kind)
        pts.append(p)
    return pts


@pytest.mark.parametrize("row", MODEL_TABLE, ids=lambda r: f"{r['kind']}-{r['n']}-{r['param']}")
def test_critical_points_equal_the_per_kind_sampler(row):
    m = build_model(row["kind"], row["n"], _table_param(row))
    label = f"crit-oracle:{m.name}:{row['param']}"
    rng, oracle = random.Random(label), random.Random(label)
    try:
        want = per_kind_critical_points(m, 12, oracle)
    except NotImplementedError:
        with pytest.raises(NotImplementedError):
            critical_points_sample(m, 12, rng)
        return
    assert critical_points_sample(m, 12, rng) == [integer_point(p) for p in want]
    assert rng.getstate() == oracle.getstate()


@pytest.mark.parametrize("row", MODEL_TABLE, ids=lambda r: f"{r['kind']}-{r['n']}-{r['param']}")
def test_sampled_points_are_the_fraction_samplers_draws(row):
    # the integer samplers draw exactly the points the Fraction sampler drew,
    # in integer_point's form, and leave the generator in the same state
    m = build_model(row["kind"], row["n"], _table_param(row))
    for seed in range(3):
        rng, oracle = random.Random(seed), random.Random(seed)
        for _ in range(20):
            assert random_noncritical_point(m, rng) == integer_point(fraction_noncritical_point(m, oracle))
        assert rng.getstate() == oracle.getstate()
        try:
            want = per_kind_critical_points(m, 12, oracle)
        except NotImplementedError:
            continue
        assert critical_points_sample(m, 12, rng) == [integer_point(p) for p in want]
        assert rng.getstate() == oracle.getstate()


def is_critical(model, point):
    """Every critical equation vanishes at the point, read from a kernel of the critical equations alone."""
    values, _ = noncritical_kernel(model, ())(*integer_point(point))
    return not any(values)


def per_call_noncritical_point(model, rng):
    """The per-call loop: ``random_point`` until ``is_critical`` is false, the oracle for ``noncritical_sample``."""
    for _ in range(1000):
        p = random_point(model, rng)
        if not is_critical(model, p):
            return p
    raise RuntimeError("failed to sample a non-critical point")


def sampled_polys(check, kind):
    """The model a sampled check draws from and the polynomials it reads past the critical rows."""
    if check == "leaf-audit":
        model = leaf_model(kind, for_audit=True)
        claim = leaf_claim(model)
        return model, [*flaschka_ratiu(model, 1).pi.terms.values(), claim.num, *claim.den]
    model = get_model(kind, 3, Fraction(0) if kind in DEFORMATION_KINDS else None)
    return model, [] if check == "critical" else list(flaschka_ratiu(model, 1).pi.terms.values())


@pytest.mark.parametrize("check", ["critical", "rank", "leaf-audit"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_one_kernel_sampler_draws_the_per_call_loops_points(check, kind):
    # the same points and generator state as the per-call loop, with the read values times one scale
    model, polys = sampled_polys(check, kind)
    kernel = noncritical_kernel(model, polys)
    label = f"one-kernel:{check}:{kind}"
    rng, oracle = random.Random(label), random.Random(label)
    for _ in range(25):
        q, values, scale = noncritical_sample(model, kernel, rng)
        assert q == per_call_noncritical_point(model, oracle)
        assert rng.getstate() == oracle.getstate()
        x = q.fractions()
        assert scale > 0 and [Fraction(v, scale) for v in values] == [p.evaluate(x) for p in polys], q
    assert random_noncritical_point(model, rng) == per_call_noncritical_point(model, oracle)
    assert rng.getstate() == oracle.getstate()


def test_a_critical_draw_is_drawn_again_whatever_the_other_rows_read(monkeypatch):
    # the constant 1 is nonzero at the origin, where every critical equation of the fold vanishes
    model = get_model("fold", 3)
    drawn = iter([integer_point([0] * 6), integer_point([1, 0, 0, 0, 0, Fraction(1, 2)])])
    monkeypatch.setattr(catalog, "random_point", lambda m, rng: next(drawn))
    kernel = noncritical_kernel(model, [model.chart.one()])
    q, values, scale = noncritical_sample(model, kernel, random.Random(0))
    assert q.fractions() == [1, 0, 0, 0, 0, Fraction(1, 2)]
    assert values == [scale]


@pytest.mark.parametrize("kind", ["fold", "cusp", "lefschetz", "w_s"])
def test_leaf_audit_and_rank_read_one_kernel_per_drawn_point(monkeypatch, kind):
    draws, reads = [], []
    draw, read = catalog.random_point, IntegerKernel.__call__
    monkeypatch.setattr(catalog, "random_point", lambda m, rng: draws.append(1) or draw(m, rng))
    monkeypatch.setattr(IntegerKernel, "__call__", lambda self, *a: reads.append(1) or read(self, *a))
    leaves.audit_leaf_formulas(leaf_model(kind, for_audit=True), 10, random.Random(kind))
    assert len(reads) == len(draws) >= 10
    # the rank check's critical points are drawn on the locus; only its non-critical draws are counted here
    monkeypatch.setattr(poisson, "critical_points_sample", lambda m, count, rng: [])
    draws.clear()
    reads.clear()
    poisson.rank_stratification(sampled_polys("rank", kind)[0], 10, random.Random(kind))
    assert len(reads) == len(draws) >= 10


def test_sample_locus_raises_on_equations_it_does_not_solve():
    chart = Chart(("t1", "x1"))
    t1, x1 = chart.var("t1"), chart.var("x1")
    rng = random.Random(0)
    # no variable of constant coefficient, an irrational ratio, and a form that is not binary
    for eq in (t1 * x1, 2 * t1 * t1 - x1 * x1, t1 * t1 - x1 * x1 + 1):
        with pytest.raises(NotImplementedError):
            sample_locus(chart, [eq], 1, rng, {})
    # x1 = -t1^2 would read t1 at the drawn point, after t1 - 1 = 0 has set it
    with pytest.raises(ValueError, match="earlier equation"):
        sample_locus(chart, [t1 - 1, x1 + t1 * t1], 1, rng, {})


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_critical_samples_and_rank(kind):
    param = Fraction(0) if kind in DEFORMATION_KINDS else None
    m = get_model(kind, 3, param)
    rng = random.Random(f"crit:{kind}")
    # the two-component singular charts drop rank by 2 at their deepest stratum
    expected = 2 * m.n - 4 if kind in ("lefschetz", "w_s") else 2 * m.n - 3

    def jacobian_rank_at(p):
        return linalg.rank([[g.evaluate(p.fractions()) for g in row] for row in m.casimir_gradients])

    for p in critical_points_sample(m, 8, rng):
        assert is_critical(m, p)
        assert jacobian_rank_at(p) == expected
    for _ in range(8):
        q = random_noncritical_point(m, rng)
        assert jacobian_rank_at(q) == 2 * m.n - 2


@pytest.mark.parametrize(
    "kind, param", [(k, None) for k in ALL_KINDS] + [(k, Fraction(1, 2)) for k in DEFORMATION_KINDS]
)
def test_is_critical_is_every_equation_vanishing(kind, param):
    m = get_model(kind, 3, param)
    rng = random.Random(f"is-critical:{kind}")
    points = [[fraction_rational(rng) for _ in range(m.chart.dim)] for _ in range(20)]
    points.append([0] * m.chart.dim)
    if param is None:
        # sampled on the locus at s = 0, with the parameter coordinate pinned there
        points += [p.fractions() for p in critical_points_sample(m, 20, rng)]
    verdicts = [is_critical(m, p) for p in points]
    assert verdicts == [all(eq.evaluate(p) == 0 for eq in m.critical_locus) for p in points]
    assert False in verdicts and (param is not None or True in verdicts)


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
