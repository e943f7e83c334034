"""The three benchmark workloads, built from a seed.

An item is one timed call into singfib's public API.  ``build(workload,
seed)`` returns the items of one pass in their fixed order; later items may
read what earlier ones made (the ``derive`` checks take the bivector that
its ``flaschka_ratiu`` item built), so a pass always runs from the start.

Each item carries a ``check`` that turns the call's result into a record
line and says whether the result is right.  Checks run outside the timed
call.  ``gate`` then checks the records of a whole run against the stored
golden files (default seed) or the seed-independent invariants.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Any, Callable

from singfib import catalog, exterior, interval, nearsymp, poisson, poly, suite
from singfib.report import FAIL, MISMATCH, PASS, render_records

WORKLOADS = ("audit", "derive", "forms")
DEFAULT_SEED = 7
GOLDEN = Path(__file__).resolve().parent / "golden"

#: exceptions that are documented answers of the program, not failures
DOMAIN_ANSWERS = (nearsymp.RejectedBox,)


@dataclass
class Item:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[str, bool]]


def build(workload: str, seed: int) -> list[Item]:
    if workload == "audit":
        return _audit_items(seed)
    if workload == "derive":
        return _derive_items(seed)
    if workload == "forms":
        return _forms_items(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _rng(seed: object, *labels: object) -> random.Random:
    return random.Random(":".join(str(x) for x in (seed, "perfbench") + labels))


# -- audit: the product run, one (check, scope) call at a time ---------------------

AUDIT_SAMPLES = 100


def audit_pairs() -> list[tuple[str, str]]:
    """Every (check, scope) for which ``run_suite`` emits records, in full-run order.

    Concatenating their records (manifests dropped) gives the records of one
    full ``run_suite`` call byte for byte.
    """
    scopes = {
        "near-symplectic": nearsymp.NS_KINDS,
        "fibre-positivity": ("cusp", "swallowtail", "butterfly"),
        "darboux": ("darboux",),
        "calculus": ("calculus",),
    }
    return [(check, scope) for check in suite.CHECK_NAMES for scope in scopes.get(check, catalog.ALL_KINDS)]


def _audit_items(seed: int) -> list[Item]:
    def check(reports) -> tuple[str, bool]:
        ok = bool(reports) and reports[0].check == "manifest" and len(reports) > 1
        ok = ok and all(r.status in (PASS, MISMATCH) for r in reports)
        return render_records(reports[1:]), ok

    items = []
    for check_name, scope in audit_pairs():
        def run(check_name=check_name, scope=scope):
            return suite.run_suite(scope=scope, checks=[check_name], seed=seed, samples=AUDIT_SAMPLES)

        items.append(Item(f"{check_name}/{scope}", run, check))
    return items


# -- derive: symbolic construction, nothing evaluated at points --------------------

DERIVE_DIMS = range(3, 9)


def derive_inputs(seed: int) -> list[tuple[catalog.FibrationModel, poly.Poly]]:
    """(model, k) for every parametric kind and n in DERIVE_DIMS; the parameter stays symbolic."""
    rng = _rng(seed, "derive")
    out = []
    for kind in catalog.PARAMETRIC_KINDS:
        for n in DERIVE_DIMS:
            model = catalog.get_model(kind, n)
            num = rng.choice([v for v in range(-9, 10) if v])
            k = model.chart.const(Fraction(num, rng.randint(1, 5)))
            out.append((model, k))
    return out


def _derive_items(seed: int) -> list[Item]:
    made: dict[str, poisson.PoissonBivector] = {}

    def report_check(expected: tuple[str, ...]):
        def check(report) -> tuple[str, bool]:
            return report.to_record() + "\n", report.status in expected

        return check

    def bivector_check(b) -> tuple[str, bool]:
        text = str(b.pi)
        record = {
            "model": b.model.name,
            "check": "flaschka-ratiu",
            "k": str(b.k),
            "terms": len(b.pi.terms),
            "pi_sha256": hashlib.sha256(text.encode()).hexdigest()[:16],
        }
        return json.dumps(record, separators=(",", ":")) + "\n", True

    items = []
    for model, k in derive_inputs(seed):
        key = model.name

        def build_pi(model=model, k=k, key=key):
            made[key] = b = poisson.flaschka_ratiu(model, k)
            return b

        items.append(Item(f"flaschka_ratiu/{key}", build_pi, bivector_check))
        for label, fn_name in (
            ("casimir", "casimir_annihilation"),
            ("jacobi", "jacobi"),
            ("decomposable", "decomposability"),
        ):
            # looked up at call time, so a traced pass calls the traced function
            items.append(
                Item(
                    f"{label}/{key}",
                    lambda fn_name=fn_name, key=key: getattr(poisson, fn_name)(made[key]),
                    report_check((PASS,)),
                )
            )
        items.append(
            Item(
                f"bivector-match/{key}",
                lambda model=model: poisson.match_claimed_bivector(model).report(),
                report_check((PASS, MISMATCH)),
            )
        )
    return items


# -- forms: exterior calculus identities, near-symplectic assembly, epsilon boxes ---

FORM_TRIALS = {"d2": 40, "leibniz": 40, "pullback": 24, "hodge": 40, "homotopy": 40}
NS_SAMPLES = 20
EPS_BOX_VARS = {"cusp": ("x",), "swallowtail": ("x", "s"), "butterfly": ("x", "u", "s")}
EPS_BOXES_PER_CASE = 10
EPS_INTERIOR_POINTS = 8
TARGET4 = poly.Chart(("w1", "w2", "w3", "w4"))


NONZERO = [v for v in range(-5, 6) if v]


class Draw:
    """Two random streams: ``shape`` picks monomials and slots and does not
    depend on the seed, ``value`` picks coefficients and does.

    So every seed builds forms of the same shapes and a pass does the same
    exterior work on every seed; only the rational coefficients change.
    """

    def __init__(self, seed: int, *labels: object) -> None:
        self.shape = _rng("shape", *labels)
        self.value = _rng(seed, *labels)


def _random_poly(chart: poly.Chart, draw: Draw, n_terms: int = 5, max_degree: int = 3) -> poly.Poly:
    """n_terms monomials of degrees 1..max_degree in turn, with seeded nonzero coefficients."""
    names = chart.geometric_names()
    terms: dict[tuple[int, ...], Fraction] = {}
    for t in range(n_terms):
        exp = [0] * chart.dim
        for _ in range(1 + t % max_degree):
            exp[chart.index(draw.shape.choice(names))] += 1
        terms[tuple(exp)] = Fraction(draw.value.choice(NONZERO), draw.value.randint(1, 3))
    return poly.Poly(chart, terms)


def _random_form(
    chart: poly.Chart, draw: Draw, degree: int, n_terms: int = 4, poly_shape: tuple[int, int] = (5, 3)
) -> exterior.KForm:
    slots = list(combinations(range(chart.n_geom), degree))
    picked = draw.shape.sample(slots, min(n_terms, len(slots)))
    return exterior.KForm(chart, degree, {idx: _random_poly(chart, draw, *poly_shape) for idx in picked})


def _identity_items(seed: int) -> list[Item]:
    """Seeded forms on CHART6; each item computes both sides of an exact identity.

    Form degrees cycle through every value an identity admits.
    """
    chart = poly.CHART6
    ng = chart.n_geom
    items = []

    def equal_sides(sides) -> tuple[str, bool]:
        lhs, rhs = sides
        ok = lhs == rhs
        return json.dumps({"identity": "holds" if ok else "broken", "lhs_terms": len(lhs.terms)}) + "\n", ok

    draw = Draw(seed, "forms", "d2")
    for i in range(FORM_TRIALS["d2"]):
        a = _random_form(chart, draw, i % (ng - 1))
        zero = exterior.KForm(chart, a.degree + 2, {})
        items.append(Item(f"d2/{i}", lambda a=a, zero=zero: (exterior.ext_d(exterior.ext_d(a)), zero), equal_sides))

    draw = Draw(seed, "forms", "leibniz")
    for i in range(FORM_TRIALS["leibniz"]):
        ka, kb = i % 4, (i // 4) % 4
        a, b = _random_form(chart, draw, ka), _random_form(chart, draw, kb)

        def leibniz(a=a, b=b, ka=ka):
            d, w = exterior.ext_d, exterior.wedge
            return d(w(a, b)), w(d(a), b) + w(a, d(b)).scale((-1) ** ka)

        items.append(Item(f"leibniz/{i}", leibniz, equal_sides))

    draw = Draw(seed, "forms", "pullback")
    for i in range(FORM_TRIALS["pullback"]):
        # small polynomials: composition multiplies degrees, so larger ones would dwarf every other item
        fmap = exterior.PolyMap(chart, TARGET4, tuple(_random_poly(chart, draw, 3, 2) for _ in range(4)))
        a = _random_form(TARGET4, draw, i % 4, poly_shape=(3, 2))

        def pull(a=a, fmap=fmap):
            d, f = exterior.ext_d, exterior.pullback
            return f(d(a), fmap), d(f(a, fmap))

        items.append(Item(f"pullback-d/{i}", pull, equal_sides))

    draw = Draw(seed, "forms", "hodge")
    for i in range(FORM_TRIALS["hodge"]):
        k = i % (ng + 1)
        a = _random_form(chart, draw, k)
        expected = a.scale((-1) ** (k * (ng - k)))
        items.append(
            Item(
                f"hodge/{i}",
                lambda a=a, expected=expected: (exterior.hodge_star(exterior.hodge_star(a)), expected),
                equal_sides,
            )
        )

    draw = Draw(seed, "forms", "homotopy")
    for i in range(FORM_TRIALS["homotopy"]):
        a = _random_form(chart, draw, 1 + i % ng)

        def homotopy(a=a):
            d, h = exterior.ext_d, exterior.poincare_homotopy
            out = d(h(a))
            if a.degree < ng:
                out = out + h(d(a))
            return out, a

        items.append(Item(f"homotopy/{i}", homotopy, equal_sides))
    return items


def _ns_items(seed: int) -> list[Item]:
    def check(reports) -> tuple[str, bool]:
        return render_records(reports), all(r.status != FAIL for r in reports)

    items = []
    for kind in nearsymp.NS_KINDS:
        items.append(
            Item(
                f"verify_claimed_form/{kind}",
                lambda kind=kind: nearsymp.verify_claimed_form(kind, NS_SAMPLES, _rng(seed, "ns-claimed", kind)),
                check,
            )
        )
        items.append(
            Item(
                f"assemble_and_verify/{kind}",
                lambda kind=kind: nearsymp.assemble_and_verify(
                    kind, "claimed", NS_SAMPLES, _rng(seed, "ns-assemble", kind)
                )[1],
                check,
            )
        )
    return items


def _constraint_polys(kind: str, omega) -> dict[str, poly.Poly]:
    """The eps-linear parts b of the y^2 and z^2 coefficients of the fibre numerator.

    ``epsilon_bound`` certifies min b over the box for each; the gate
    recomputes them here to check those minima.
    """
    numerator = nearsymp.fibre_positivity(kind, omega)[0].numerator
    chart = numerator.chart
    iy, iz, ieps = chart.index("y"), chart.index("z"), chart.index("eps")
    out: dict[str, dict[tuple[int, ...], Fraction]] = {"y^2": {}, "z^2": {}}
    for exp, coeff in numerator.terms.items():
        label = {(2, 0): "y^2", (0, 2): "z^2"}.get((exp[iy], exp[iz]))
        if label is None or exp[ieps] != 1:
            continue
        stripped = list(exp)
        stripped[iy] = stripped[iz] = stripped[ieps] = 0
        out[label][tuple(stripped)] = coeff
    return {label: poly.Poly(chart, terms) for label, terms in out.items()}


def _random_box(rng: random.Random, names: tuple[str, ...]) -> dict[str, interval.Interval]:
    """Endpoints are integers over 20 in [-6/5, 6/5]; boxes are not centred on 0."""
    box = {}
    for name in names:
        lo, hi = sorted(rng.sample(range(-24, 25), 2))
        box[name] = interval.Interval(Fraction(lo, 20), Fraction(hi, 20))
    return box


def _straddles_zero(iv: interval.Interval) -> bool:
    return iv.lo < 0 < iv.hi


def certifiable(kind: str, source: str, box: dict[str, interval.Interval]) -> bool:
    """Whether every constraint of ``epsilon_bound(kind, box)`` has its minimum at a box corner.

    That is the case ``certified_minimum`` is documented for.  The
    constraints (``_constraint_polys``) are c*x for cusp, +-(12 x^2 + 2 s) up
    to a factor for swallowtail, and +-(20 x^3 - 6 u x + 2 s) up to a factor
    for butterfly.  Their minimum leaves the corners only where x = 0 lies
    inside the box (swallowtail) or, for butterfly with u > 0, where
    x = +sqrt(u/10) (catalogued form) or x = +-sqrt(u/10) (repaired form) does.
    """
    if kind == "cusp":
        return True
    if kind == "swallowtail":
        return not _straddles_zero(box["x"])
    if source == "catalogued":
        return box["x"].hi <= 0
    return box["u"].hi <= 0 and not _straddles_zero(box["x"])


def _check_minimum(b: poly.Poly, box, m: Fraction, rng: random.Random) -> bool:
    """m is the exact minimum of b on the box: attained by a witness, below corners and samples."""
    m2, witness = interval.certified_minimum(b, box)
    if m2 != m or interval.eval_at(b, witness) != m:
        return False
    if any(not box[n].lo <= v <= box[n].hi for n, v in witness.items()):
        return False
    points = interval.corners(box)
    for _ in range(EPS_INTERIOR_POINTS):
        points.append(
            {n: iv.lo + iv.width * Fraction(rng.randint(0, 40), 40) for n, iv in box.items()}
        )
    return all(interval.eval_at(b, p) >= m for p in points)


def _eps_cases():
    """(kind, source, omega, box variables) for the catalogued and the repaired form of each kind."""
    for kind, names in EPS_BOX_VARS.items():
        repaired = nearsymp.assemble(kind, "repair").omega
        yield kind, "catalogued", None, names
        yield kind, "repaired", repaired, names


def _eps_items(seed: int) -> list[Item]:
    """EPS_BOXES_PER_CASE seeded boxes per case, each drawn until it is ``certifiable``."""
    items = []
    for kind, source, omega, names in _eps_cases():
        rng = _rng(seed, "forms", "eps", kind, source)
        for i in range(EPS_BOXES_PER_CASE):
            box = _random_box(rng, names)
            while not certifiable(kind, source, box):
                box = _random_box(rng, names)
            point_rng_seed = rng.random()

            def check(result, kind=kind, omega=omega, box=box, point_rng_seed=point_rng_seed):
                rng = random.Random(point_rng_seed)
                polys = _constraint_polys(kind, omega)
                ok = True
                for label, _, m in result.constraints:
                    b = polys[label]
                    ok = ok and (m == 0 if b.is_zero() else _check_minimum(b, box, m, rng))
                negatives = [a / -m for _, a, m in result.constraints if m < 0]
                ok = ok and result.bound == (min(negatives) if negatives else None)
                return json.dumps({"eps": result.describe()}) + "\n", ok

            items.append(
                Item(
                    f"epsilon_bound/{kind}/{source}/{interval.format_box(box)}",
                    lambda kind=kind, box=box, omega=omega: nearsymp.epsilon_bound(kind, box, omega),
                    check,
                )
            )
    return items


def uncertified_ratio(seed: int) -> float:
    """The share of unrestricted seeded boxes on which ``epsilon_bound`` raises CertificationFailure.

    A known defect: ``certified_minimum`` cannot settle a minimum away from
    the box corners and gives up at depth 24.  The timed ``forms`` items keep
    to ``certifiable`` boxes, since a benchmark operation may not fail; these
    EPS_BOXES_PER_CASE boxes per case are drawn with no such restriction, and
    run untimed after the traced pass, so the defect stays counted.
    """
    failed = total = 0
    for kind, source, omega, names in _eps_cases():
        rng = _rng(seed, "forms", "eps-probe", kind, source)
        for _ in range(EPS_BOXES_PER_CASE):
            box = _random_box(rng, names)
            total += 1
            try:
                nearsymp.epsilon_bound(kind, box, omega)
            except interval.CertificationFailure:
                failed += 1
            except DOMAIN_ANSWERS:
                pass
    return failed / total


def _forms_items(seed: int) -> list[Item]:
    return _identity_items(seed) + _ns_items(seed) + _eps_items(seed)


# -- whole-run gates ----------------------------------------------------------------


def golden_records(workload: str) -> list[str]:
    """Stored records of the default seed: one line per record, items in pass order."""
    path = GOLDEN / f"{workload}_seed{DEFAULT_SEED}.jsonl"
    return path.read_text().splitlines(keepends=True)


def _lines(records: list[str]) -> list[str]:
    return [line for text in records for line in text.splitlines(keepends=True)]


def _status_pairs(lines: list[str], status: str) -> set[tuple[str, str]]:
    out = set()
    for line in lines:
        rec = json.loads(line)
        if rec.get("status") == status:
            out.add((rec["model"], rec["check"]))
    return out


def gate(workload: str, seed: int, passes: list[list[str | None]], n_items: int) -> list[str]:
    """Problems found in a run's records; ``passes[p][i]`` is item i's record in pass p.

    A pass may stop early (the run's time was up); its records are a prefix.
    Failed items have record None.  Every pass must agree with every other
    on each item it ran.
    """
    problems = []
    for p, records in enumerate(passes[1:], start=1):
        for i, (a, b) in enumerate(zip(passes[0], records)):
            if a != b:
                problems.append(f"pass {p} item {i}: record differs from pass 0")
    first = passes[0]
    if len(first) != n_items:
        problems.append(f"the first pass ran {len(first)} of {n_items} items")
        return problems
    if any(r is None for r in first):
        problems.append("failed items")
    if workload == "audit":
        golden = golden_records("audit")
        lines = _lines([r or "" for r in first])
        if seed == DEFAULT_SEED:
            if lines != golden[1:]:
                problems.append("audit records differ from the golden records")
        else:
            if _status_pairs(lines, FAIL):
                problems.append("audit has fail records")
            want = _status_pairs(golden[1:], MISMATCH)
            if _status_pairs(lines, MISMATCH) != want:
                problems.append(f"audit mismatch set differs from the {len(want)} golden mismatches")
    elif workload == "derive":
        golden = golden_records("derive")
        lines = _lines([r or "" for r in first])
        if len(lines) != len(golden):
            problems.append("derive emitted a different number of records")
        elif seed == DEFAULT_SEED:
            if lines != golden:
                problems.append("derive records differ from the golden records")
        else:
            # the catalogue match uses k = 1, so it does not depend on the seed
            for got, want in zip(lines, golden):
                if json.loads(want)["check"] == "bivector-match" and got != want:
                    problems.append("derive bivector-match records differ from the golden records")
                    break
    return problems
