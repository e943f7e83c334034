"""The full verification suite: every check, in a fixed deterministic order.

``CHECKS`` declares each check once, in suite order, with the scopes it runs
on; a check function runs one scope, and ``run_suite`` does the selection.
Each check draws its randomness from a generator seeded by the global
seed together with the check and model labels, so any subset of the suite
reproduces the corresponding full-suite records byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

from . import leaves, nearsymp, poisson
from .catalog import ALL_KINDS, DEFORMATION_KINDS, DIM6_KINDS, FibrationModel, get_model
from .exterior import (
    KForm,
    KVector,
    PolyMap,
    ext_d,
    hodge_star,
    poincare_homotopy,
    pullback,
    schouten,
    volume_form,
    wedge,
)
from .poly import CHART6, Chart, Poly, add_term, parse_poly
from .report import FAIL, MISMATCH, PASS, CheckReport

#: parametric kinds are matched against the catalogue at these half-dimensions
MATCH_DIMS = (4, 5)

JACOBI_SCALES = ("1", "1 + x1^2", "7")


def _rng(seed: int, *labels: str) -> random.Random:
    return random.Random(f"{seed}:" + ":".join(labels))


def check_bivector(kind: str, seed: int, samples: int) -> list[CheckReport]:
    dims = (3,) if kind in DIM6_KINDS else MATCH_DIMS
    return [poisson.match_claimed_bivector(get_model(kind, n)).report() for n in dims]


def check_casimir(kind: str, seed: int, samples: int) -> list[CheckReport]:
    model = get_model(kind, 3)
    k = model.chart.one() + model.chart.var("x1") ** 2
    return [poisson.casimir_annihilation(poisson.flaschka_ratiu(model, k))]


def check_jacobi(kind: str, seed: int, samples: int) -> list[CheckReport]:
    model = get_model(kind, 3)
    return [poisson.jacobi(poisson.flaschka_ratiu(model, parse_poly(text, model.chart))) for text in JACOBI_SCALES]


def check_decomposable(kind: str, seed: int, samples: int) -> list[CheckReport]:
    return [poisson.decomposability(poisson.flaschka_ratiu(get_model(kind, 3), 1))]


def check_rank(kind: str, seed: int, samples: int) -> list[CheckReport]:
    param = Fraction(0) if kind in DEFORMATION_KINDS else None
    model = get_model(kind, 3, param)
    return [poisson.rank_stratification(model, samples, _rng(seed, "rank", kind))]


def leaf_model(kind: str, for_audit: bool) -> FibrationModel:
    """The model of ``kind`` that the leaf-audit (or the leaf-relations) check samples."""
    if kind in DIM6_KINDS:
        return get_model(kind, 3)
    param = Fraction(1, 2) if kind in DEFORMATION_KINDS else None
    return get_model(kind, 4 if for_audit else 3, param)


def check_leaf_relations(kind: str, seed: int, samples: int) -> list[CheckReport]:
    model = leaf_model(kind, for_audit=False)
    return [leaves.defining_relations_check(model, samples, _rng(seed, "leaf-relations", model.name))]


def check_leaf_audit(kind: str, seed: int, samples: int) -> list[CheckReport]:
    model = leaf_model(kind, for_audit=True)
    return [leaves.audit_leaf_formulas(model, samples, _rng(seed, "leaf-audit", model.name))[0]]


def check_near_symplectic(kind: str, seed: int, samples: int) -> list[CheckReport]:
    count = max(1, min(samples, 20))
    reports = nearsymp.verify_claimed_form(kind, count, _rng(seed, "ns-claimed", kind))
    _, reps = nearsymp.assemble_and_verify(kind, "claimed", count, _rng(seed, "ns-assemble", kind))
    return reports + reps


def check_fibre_positivity(kind: str, seed: int, samples: int) -> list[CheckReport]:
    _, reports = nearsymp.fibre_positivity(kind)
    bound = nearsymp.epsilon_bound(kind)
    reports.append(CheckReport(kind, "fibre-bound", PASS, f"certified fibre positivity: {bound.describe()}"))
    cand = nearsymp.assemble(kind, "claimed")
    if not cand.closed():
        cand = nearsymp.assemble(kind, "repair")
    try:
        rbound = nearsymp.epsilon_bound(kind, omega=cand.omega)
        reports.append(
            CheckReport(
                kind,
                "fibre-bound-repaired",
                PASS,
                f"closed candidate ({cand.eta_source}): {rbound.describe()}",
            )
        )
    except nearsymp.RejectedBox as exc:
        reports.append(CheckReport(kind, "fibre-bound-repaired", MISMATCH, str(exc)))
    return reports


def check_darboux(scope: str, seed: int, samples: int) -> list[CheckReport]:
    return [nearsymp.darboux_normal_form_check()]


# -- calculus property suite -------------------------------------------------------


#: a random polynomial has 1 to ``_POLY_TERMS`` terms, each of degree at most ``_POLY_DEGREE``
_POLY_TERMS = 3
_POLY_DEGREE = 2


def _random_poly(chart: Chart, rng: random.Random) -> Poly:
    """A nonzero random polynomial; a draw that sums to zero is drawn again.

    Each term is a coefficient times one geometric coordinate per unit of
    degree, counted straight into its exponent; ``choice`` of a range draws
    what ``choice`` of the names would, so a zero coefficient still draws them.
    """
    coords = range(chart.n_geom)
    while True:
        terms: dict = {}
        for _ in range(rng.randint(1, _POLY_TERMS)):
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            exp = [0] * chart.dim
            for _ in range(rng.randint(0, _POLY_DEGREE)):
                exp[rng.choice(coords)] += 1
            add_term(terms, tuple(exp), c)
        if terms:
            return Poly._make(chart, terms)


def _random_form(
    chart: Chart, rng: random.Random, degree: int, element: type[KForm | KVector] = KForm, max_terms: int = 2
) -> KForm | KVector:
    """A random ``element`` of ``degree`` with 1 to ``max_terms`` terms (a repeated index keeps the last draw)."""
    terms = {}
    ng = chart.n_geom
    for _ in range(rng.randint(1, max_terms)):
        idx = tuple(sorted(rng.sample(range(ng), degree)))
        terms[idx] = _random_poly(chart, rng)
    return element(chart, degree, terms)


def _jacobiator_oracle(a: KVector) -> KVector:
    """Coordinate Jacobiator computed through nested brackets of coordinates.

    Independent route: {f, g} = sum_ij a^{ij} d_i f d_j g expanded on
    polynomials, applied to coordinate triples.  The Schouten self-bracket
    must equal exactly twice this trivector.
    """
    chart = a.chart
    ng = chart.n_geom
    names = chart.geometric_names()

    def bracket(f: Poly, g: Poly) -> Poly:
        total = chart.zero()
        for (i, j), c in a.terms.items():
            total = total + c * (
                f.differentiate(names[i]) * g.differentiate(names[j])
                - f.differentiate(names[j]) * g.differentiate(names[i])
            )
        return total

    coords = [chart.var(n) for n in names]
    # each coordinate bracket {x_j, x_k}, j < k, once; {x_k, x_i} is -{x_i, x_k}
    inner = {(j, k): bracket(coords[j], coords[k]) for j, k in combinations(range(ng), 2)}
    out = {}
    for i, j, k in combinations(range(ng), 3):
        val = (
            bracket(coords[i], inner[j, k])
            + bracket(coords[j], -inner[i, k])
            + bracket(coords[k], inner[i, j])
        )
        if not val.is_zero():
            out[(i, j, k)] = val
    return KVector(chart, 3, out)


def _trials(check: str, label: str, seed: int, count: int, trial: Callable, passed: str) -> CheckReport:
    """Run ``trial`` up to ``count`` times on the generator of ``label``.

    A trial draws one example from the generator and returns None, or
    (message, witness) when the identity fails; the first failure is the
    check's record.
    """
    rng = _rng(seed, "calculus", label)
    for i in range(count):
        failure = trial(rng)
        if failure is not None:
            message, witness = failure
            return CheckReport("calculus", check, FAIL, f"{message} at trial {i}", witness=witness)
    return CheckReport("calculus", check, PASS, passed)


def check_calculus(scope: str, seed: int, samples: int) -> list[CheckReport]:
    chart = CHART6
    ng = chart.n_geom

    def d2(rng: random.Random):
        form = _random_form(chart, rng, rng.randint(0, 4))
        if not ext_d(ext_d(form)).is_zero():
            return "d(d(a)) != 0", str(form)

    def leibniz(rng: random.Random):
        ka, kb = rng.randint(0, 3), rng.randint(0, 3)
        fa, fb = _random_form(chart, rng, ka), _random_form(chart, rng, kb)
        lhs = ext_d(wedge(fa, fb))
        rhs = wedge(ext_d(fa), fb) + wedge(fa, ext_d(fb)).scale(Fraction((-1) ** ka))
        if lhs != rhs:
            return "Leibniz failed", None

    def pullback_d(rng: random.Random):
        comps = tuple(_random_poly(chart, rng) for _ in range(4))
        fmap = PolyMap(chart, nearsymp.TARGET4, comps)
        form = _random_form(nearsymp.TARGET4, rng, rng.randint(0, 3))
        if pullback(ext_d(form), fmap) != ext_d(pullback(form, fmap)):
            return "pullback/d failed", None

    def hodge(rng: random.Random):
        k = rng.randint(0, ng)
        form = _random_form(chart, rng, k)
        if hodge_star(hodge_star(form)) != form.scale(Fraction((-1) ** (k * (ng - k)))):
            return "involution failed", None
        cform = KForm(chart, k, {idx: chart.const(Fraction(rng.randint(-5, 5))) for idx in form.terms})
        norm_sq = sum((c.constant_value() ** 2 for c in cform.terms.values()), Fraction(0))
        if wedge(cform, hodge_star(cform)) != volume_form(chart).scale(norm_sq):
            return "pairing failed", None

    def homotopy(rng: random.Random):
        k = rng.randint(1, ng)
        form = _random_form(chart, rng, k)
        recovered = ext_d(poincare_homotopy(form))
        if k < ng:
            recovered = recovered + poincare_homotopy(ext_d(form))
        if recovered != form:
            return "dK + Kd != id", None

    def bracket(rng: random.Random):
        biv = _random_form(chart, rng, 2, KVector, 3)
        if schouten(biv, biv) != _jacobiator_oracle(biv).scale(2):
            return "bracket disagrees with the Jacobiator", None

    brackets = max(1, samples // 10)  # two nested symbolic brackets per trial
    jacobiator = f"self-bracket equals twice the nested-bracket Jacobiator on {brackets} random bivectors"
    runs = (
        ("d2", "d2", samples, d2, f"d(d(a)) = 0 on {samples} random forms"),
        ("leibniz", "leibniz", samples, leibniz, f"Leibniz rule on {samples} random pairs"),
        ("pullback-d", "pullback", samples, pullback_d, f"pullback commutes with d on {samples} random maps"),
        ("hodge", "hodge", samples, hodge, f"involution sign law and pairing on {samples} random forms"),
        ("homotopy", "homotopy", samples, homotopy, f"dK + Kd = id on {samples} random positive-degree forms"),
        ("schouten", "schouten", brackets, bracket, jacobiator),
    )
    return [_trials(check, label, seed, count, trial, passed) for check, label, count, trial, passed in runs]


#: every check once, in suite order: the scopes it runs on, and the function
#: that runs it on one scope
CHECKS = {
    "bivector": (ALL_KINDS, check_bivector),
    "casimir": (ALL_KINDS, check_casimir),
    "jacobi": (ALL_KINDS, check_jacobi),
    "decomposable": (ALL_KINDS, check_decomposable),
    "rank": (ALL_KINDS, check_rank),
    "leaf-relations": (ALL_KINDS, check_leaf_relations),
    "leaf-audit": (ALL_KINDS, check_leaf_audit),
    "near-symplectic": (nearsymp.NS_KINDS, check_near_symplectic),
    "fibre-positivity": (nearsymp.FIBRE_KINDS, check_fibre_positivity),
    "darboux": (("darboux",), check_darboux),
    "calculus": (("calculus",), check_calculus),
}

CHECK_NAMES = tuple(CHECKS)

#: values of ``scope`` besides None (everything): a model kind, or one of the
#: two checks that belong to no model
SCOPES = tuple(dict.fromkeys(scope for scopes, _ in CHECKS.values() for scope in scopes))


class SelectionError(ValueError):
    """A ``run_suite`` selection that is invalid or checks nothing."""


def run_suite(
    scope: str | None = None,
    checks: Sequence[str] | None = None,
    seed: int = 7,
    samples: int = 100,
) -> list[CheckReport]:
    """Run the requested checks (all by default) in the fixed order.

    The first report is the run's manifest.  Raises ``SelectionError``,
    before any check runs, for a non-positive sample count, an unknown
    scope or check, and a selection with no (check, scope) pair in
    ``CHECKS``, so no run passes having checked nothing.
    """
    if samples < 1:
        raise SelectionError(f"samples must be a positive integer, got {samples}")
    if scope is not None and scope not in SCOPES:
        raise SelectionError(f"unknown scope {scope!r}; available: {list(SCOPES)}")
    selected = list(checks) if checks else list(CHECK_NAMES)
    unknown = [c for c in selected if c not in CHECKS]
    if unknown:
        raise SelectionError(f"unknown checks: {unknown}; available: {list(CHECK_NAMES)}")
    pairs = [
        (fn, s)
        for name, (scopes, fn) in CHECKS.items()
        if name in selected
        for s in scopes
        if scope in (None, s)
    ]
    if not pairs:
        raise SelectionError(f"nothing to check: {','.join(selected)} has no report for scope {scope}")
    reports: list[CheckReport] = [
        CheckReport(
            "-",
            "manifest",
            PASS,
            f"seed={seed} samples={samples} scope={scope or 'all'} checks={','.join(selected)}",
        )
    ]
    for fn, s in pairs:
        reports.extend(fn(s, seed, samples))
    return reports
