"""The full verification suite: every check, in a fixed deterministic order.

Each check draws its randomness from a generator seeded by the global
seed together with the check and model labels, so any subset of the suite
reproduces the corresponding full-suite records byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Sequence

from . import leaves, nearsymp, poisson
from .catalog import ALL_KINDS, DEFORMATION_KINDS, DIM6_KINDS, PARAMETRIC_KINDS, get_model
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
from .poly import CHART6, Chart, Poly
from .report import FAIL, MISMATCH, PASS, CheckReport

CHECK_NAMES = (
    "bivector",
    "casimir",
    "jacobi",
    "decomposable",
    "rank",
    "leaf-relations",
    "leaf-audit",
    "near-symplectic",
    "fibre-positivity",
    "darboux",
    "calculus",
)

#: values of ``scope`` besides None (everything): a model kind, or one of the
#: two checks that belong to no model
SCOPES = ALL_KINDS + ("darboux", "calculus")

#: parametric kinds are matched against the catalogue at these half-dimensions
MATCH_DIMS = (4, 5)

JACOBI_SCALES = ("1", "1 + x1^2", "7")


def _rng(seed: int, *labels: str) -> random.Random:
    return random.Random(f"{seed}:" + ":".join(labels))


def _kind_selected(kind: str, scope: str | None) -> bool:
    return scope is None or scope == kind


def check_bivector(scope: str | None, seed: int, samples: int) -> list[CheckReport]:
    reports = []
    for kind in DIM6_KINDS:
        if not _kind_selected(kind, scope):
            continue
        reports.append(poisson.match_claimed_bivector(get_model(kind, 3)).report())
    for kind in PARAMETRIC_KINDS:
        if not _kind_selected(kind, scope):
            continue
        for n in MATCH_DIMS:
            reports.append(poisson.match_claimed_bivector(get_model(kind, n)).report())
    return reports


def _poisson_models(scope: str | None):
    for kind in ALL_KINDS:
        if _kind_selected(kind, scope):
            yield get_model(kind, 3)


def check_casimir(scope: str | None, seed: int, samples: int) -> list[CheckReport]:
    reports = []
    for model in _poisson_models(scope):
        k = model.chart.one() + model.chart.var("x1") ** 2
        reports.append(poisson.casimir_annihilation(poisson.flaschka_ratiu(model, k)))
    return reports


def check_jacobi(scope: str | None, seed: int, samples: int) -> list[CheckReport]:
    from .poly import parse_poly

    reports = []
    for model in _poisson_models(scope):
        for text in JACOBI_SCALES:
            k = parse_poly(text, model.chart)
            reports.append(poisson.jacobi(poisson.flaschka_ratiu(model, k)))
    return reports


def check_decomposable(scope: str | None, seed: int, samples: int) -> list[CheckReport]:
    return [poisson.decomposability(poisson.flaschka_ratiu(m, 1)) for m in _poisson_models(scope)]


def check_rank(scope: str | None, seed: int, samples: int) -> list[CheckReport]:
    reports = []
    for kind in ALL_KINDS:
        if not _kind_selected(kind, scope):
            continue
        param = Fraction(0) if kind in DEFORMATION_KINDS else None
        model = get_model(kind, 3, param)
        reports.append(poisson.rank_stratification(model, samples, _rng(seed, "rank", kind)))
    return reports


def _leaf_models(scope: str | None, for_audit: bool):
    for kind in ALL_KINDS:
        if not _kind_selected(kind, scope):
            continue
        if kind in DIM6_KINDS:
            yield get_model(kind, 3)
        else:
            n = 4 if for_audit else 3
            param = Fraction(1, 2) if kind in DEFORMATION_KINDS else None
            yield get_model(kind, n, param)


def check_leaf_relations(scope: str | None, seed: int, samples: int) -> list[CheckReport]:
    reports = []
    for model in _leaf_models(scope, for_audit=False):
        reports.append(
            leaves.defining_relations_check(model, samples, _rng(seed, "leaf-relations", model.name))
        )
    return reports


def check_leaf_audit(scope: str | None, seed: int, samples: int) -> list[CheckReport]:
    reports = []
    for model in _leaf_models(scope, for_audit=True):
        rep, _ = leaves.audit_leaf_formulas(model, samples, _rng(seed, "leaf-audit", model.name))
        reports.append(rep)
    return reports


def check_near_symplectic(scope: str | None, seed: int, samples: int) -> list[CheckReport]:
    reports = []
    count = max(1, min(samples, 20))
    for kind in nearsymp.NS_KINDS:
        if not _kind_selected(kind, scope):
            continue
        reports.extend(nearsymp.verify_claimed_form(kind, count, _rng(seed, "ns-claimed", kind)))
        _, reps = nearsymp.assemble_and_verify(kind, "claimed", count, _rng(seed, "ns-assemble", kind))
        reports.extend(reps)
    return reports


def check_fibre_positivity(scope: str | None, seed: int, samples: int) -> list[CheckReport]:
    reports = []
    for kind in ("cusp", "swallowtail", "butterfly"):
        if not _kind_selected(kind, scope):
            continue
        result, reps = nearsymp.fibre_positivity(kind)
        reports.extend(reps)
        bound = nearsymp.epsilon_bound(kind)
        reports.append(
            CheckReport(kind, "fibre-bound", PASS, f"certified fibre positivity: {bound.describe()}")
        )
        cand, _ = nearsymp.assemble_and_verify(kind, "claimed", 1, _rng(seed, "fibre-repair", kind))
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


def check_darboux(scope: str | None, seed: int, samples: int) -> list[CheckReport]:
    if scope is not None and scope != "darboux":
        return []
    return [nearsymp.darboux_normal_form_check()]


# -- calculus property suite -------------------------------------------------------


def _random_poly(chart: Chart, rng: random.Random, max_terms: int = 3, max_deg: int = 2) -> Poly:
    p = chart.zero()
    for _ in range(rng.randint(1, max_terms)):
        term = chart.const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(rng.randint(0, max_deg)):
            term = term * chart.var(rng.choice(chart.geometric_names()))
        p = p + term
    return p


def _random_form(chart: Chart, rng: random.Random, degree: int) -> KForm:
    terms = {}
    ng = chart.n_geom
    for _ in range(rng.randint(1, 2)):
        idx = tuple(sorted(rng.sample(range(ng), degree)))
        terms[idx] = _random_poly(chart, rng)
    return KForm(chart, degree, terms)


def _random_bivector(chart: Chart, rng: random.Random) -> KVector:
    terms = {}
    ng = chart.n_geom
    for _ in range(rng.randint(1, 3)):
        idx = tuple(sorted(rng.sample(range(ng), 2)))
        terms[idx] = _random_poly(chart, rng)
    return KVector(chart, 2, terms)


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
    out = {}
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


def check_calculus(scope: str | None, seed: int, samples: int) -> list[CheckReport]:
    if scope is not None and scope != "calculus":
        return []
    chart = CHART6
    target = Chart(("w1", "w2", "w3", "w4"))
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
        fmap = PolyMap(chart, target, comps)
        form = _random_form(target, rng, rng.randint(0, 3))
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
        biv = _random_bivector(chart, rng)
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


CHECKS = {
    "bivector": check_bivector,
    "casimir": check_casimir,
    "jacobi": check_jacobi,
    "decomposable": check_decomposable,
    "rank": check_rank,
    "leaf-relations": check_leaf_relations,
    "leaf-audit": check_leaf_audit,
    "near-symplectic": check_near_symplectic,
    "fibre-positivity": check_fibre_positivity,
    "darboux": check_darboux,
    "calculus": check_calculus,
}


class SelectionError(ValueError):
    """A ``run_suite`` selection that is invalid or checks nothing."""


def run_suite(
    scope: str | None = None,
    checks: Sequence[str] | None = None,
    seed: int = 7,
    samples: int = 100,
) -> list[CheckReport]:
    """Run the requested checks (all by default) in the fixed order.

    The first report is the run's manifest.  Raises ``SelectionError`` for
    a non-positive sample count, an unknown scope or check, and a selection
    whose checks emit no report for the scope, so no run passes having
    checked nothing.
    """
    if samples < 1:
        raise SelectionError(f"samples must be a positive integer, got {samples}")
    if scope is not None and scope not in SCOPES:
        raise SelectionError(f"unknown scope {scope!r}; available: {list(SCOPES)}")
    selected = list(checks) if checks else list(CHECK_NAMES)
    unknown = [c for c in selected if c not in CHECKS]
    if unknown:
        raise SelectionError(f"unknown checks: {unknown}; available: {list(CHECK_NAMES)}")
    reports: list[CheckReport] = [
        CheckReport(
            "-",
            "manifest",
            PASS,
            f"seed={seed} samples={samples} scope={scope or 'all'} checks={','.join(selected)}",
        )
    ]
    for name in CHECK_NAMES:
        if name in selected:
            reports.extend(CHECKS[name](scope, seed, samples))
    if len(reports) == 1:
        raise SelectionError(f"nothing to check: {','.join(selected)} has no report for scope {scope}")
    return reports
