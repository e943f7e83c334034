"""Near-symplectic 2-forms for the dim-6 singularity models.

The chart here is (u, s, t, x, y, z) with the scale symbol ``eps`` as a
coefficient parameter.  The base 2-form follows the recipe

    omega0 = f* omega_X + star(du ^ ds ^ dt ^ df4),

a form omega0 that is not closed is rescaled to
eps omega0 + (1 - eps)(c_us du^ds + g b2 + h b3), which multiplies the
(dt^dx + dy^dz)-component and the residue (the du/ds-wedged leftovers of
f* omega_X) by eps, and a correction 2-form scaled by eps restores
closedness.  When a catalogued correction fails, the repair path
integrates the defect with the homotopy operator radial in the fibre
directions (y, z), so the repaired correction vanishes on the critical
locus and the kernel conditions survive.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Callable

from . import linalg
from .catalog import sample_locus
from .exterior import (
    KForm,
    PolyMap,
    evaluate_form,
    ext_d,
    form_term,
    hodge_star,
    poincare_homotopy,
    pullback,
    scalar_form,
    vector_term,
    volume_form,
    wedge,
    wedge_power,
)
from .interval import Box, certified_minimum, enclose, format_box, parse_box
from .poly import Chart, IntegerKernel, IntegerPoint, Point, Poly, integer_point
from .report import FAIL, MISMATCH, PASS, CheckReport
from .reference import (
    NS_CHART_EPS,
    NS_KINDS,
    claimed_assembled_form,
    claimed_correction,
    claimed_fibre_numerator,
)

TARGET4 = Chart(("w1", "w2", "w3", "w4"))

_IDX = {name: NS_CHART_EPS.index(name) for name in ("u", "s", "t", "x", "y", "z")}
_FIBRE_BLOCK = (_IDX["y"], _IDX["z"])

#: the scale eps at which the degeneracy checks sample the critical locus
DEGENERACY_EPS = Fraction(1, 8)


@dataclass(frozen=True)
class NSModel:
    kind: str
    f4: Poly

    def fibration(self) -> PolyMap:
        c = NS_CHART_EPS
        return PolyMap(c, TARGET4, (c.var("u"), c.var("s"), c.var("t"), self.f4))

    def denominator(self) -> Poly:
        """The x-derivative of f4; the fibre frames clear this factor."""
        return self.f4.differentiate("x")

    def critical_points(self, count: int, rng: random.Random) -> list[IntegerPoint]:
        """Rational points where grad f4 = 0, at eps = ``DEGENERACY_EPS``."""
        grad = [self.f4.differentiate(name) for name in ("x", "y", "z")]
        return sample_locus(NS_CHART_EPS, grad, count, rng, {"eps": DEGENERACY_EPS})


def ns_model(kind: str) -> NSModel:
    c = NS_CHART_EPS
    u, s, t, x, y, z = (c.var(n) for n in ("u", "s", "t", "x", "y", "z"))
    if kind == "fold":
        f4 = (x * x + y * y).scale(Fraction(1, 2)) - z * z
        return NSModel(kind, f4)
    if kind == "cusp":
        return NSModel(kind, x**3 - 3 * t * x + y * y - z * z)
    if kind == "swallowtail":
        return NSModel(kind, x**4 + s * x * x + t * x + y * y - z * z)
    if kind == "butterfly":
        return NSModel(kind, x**5 - u * x**3 + s * x * x - t * x + y * y - z * z)
    raise ValueError(f"no near-symplectic model for kind {kind!r}")


def build_omega0(model: NSModel) -> KForm:
    """f* omega_X plus the Hodge dual of du^ds^dt^df4."""
    c = NS_CHART_EPS
    omega_x = form_term(TARGET4, 1, ("w1", "w2")) + form_term(TARGET4, 1, ("w3", "w4"))
    f_star = pullback(omega_x, model.fibration())
    df4 = ext_d(scalar_form(model.f4))
    dust = form_term(c, 1, ("u", "s", "t"))
    return f_star + hodge_star(wedge(dust, df4))


def _self_dual_part(omega: KForm, f: Poly) -> KForm:
    """c_us du^ds + f b1 + g b2 + h b3, with omega's c_us, g and h.

    b1 = dt^dx + dy^dz, b2 = dt^dy + dz^dx, b3 = dt^dz + dx^dy.
    """
    iu, isx, it, ix, iy, iz = (_IDX[n] for n in ("u", "s", "t", "x", "y", "z"))
    g, h = omega.coeff((it, iy)), omega.coeff((it, iz))
    terms = {(iu, isx): omega.coeff((iu, isx)), (it, ix): f, (iy, iz): f}
    terms.update({(it, iy): g, (ix, iz): -g, (it, iz): h, (ix, iy): h})
    return KForm(NS_CHART_EPS, 2, terms)


def rescale(omega: KForm) -> KForm:
    """eps omega + (1 - eps)(c_us du^ds + g b2 + h b3).

    This scales the (dt^dx + dy^dz) component and the residue by eps and
    leaves the du^ds and the two remaining self-dual components untouched.
    Scaling the residue along with the leading component is what the
    catalogued assembled forms do, and it is what keeps the defect of the
    rescaled form divisible by eps (so a correction scaled by eps can
    close it).
    """
    eps = NS_CHART_EPS.var("eps")
    return omega.scale(eps) + _self_dual_part(omega, NS_CHART_EPS.zero()).scale(1 - eps)


#: multinomial factor in the cube of a 2-form: 3!/(1!2!) choices times
#: (dt^dx + dy^dz)^2 = 2 dt^dx^dy^dz.
SOS_CUBE_FACTOR = 6


def sos_top_power(omega0: KForm) -> tuple[tuple[Poly, Poly, Poly], CheckReport]:
    """omega0^3 equals 6 (f^2 + g^2 + h^2) times the volume form, exactly.

    The catalogued statement drops the combinatorial factor; the sign
    content (a sum of squares, so nonnegative) is identical.
    """
    it = _IDX["t"]
    f, g, h = (omega0.coeff((it, _IDX[n])) for n in ("x", "y", "z"))
    cube = wedge_power(omega0, 3)
    expected = volume_form(NS_CHART_EPS).scale((f**2 + g**2 + h**2).scale(SOS_CUBE_FACTOR))
    if cube == expected:
        note = "" if omega0 == _self_dual_part(omega0, f) else "; residue terms wedge to zero"
        rep = CheckReport(
            "-",
            "sos",
            PASS,
            f"omega0^3 = 6*(({f})^2 + ({g})^2 + ({h})^2) vol{note}",
        )
    else:
        rep = CheckReport(
            "-", "sos", FAIL, "omega0^3 is not the expected sum of squares", witness=str(cube - expected)
        )
    return (f, g, h), rep


# -- pointwise degeneracy checks ----------------------------------------------------


def compile_degeneracy(omega: KForm) -> Callable[[Point], tuple[list[list[int]], list[list[int]]]]:
    """omega's kernel basis and intrinsic-gradient rows at a point, from one integer kernel.

    The kernel is compiled once over omega's entries and their first
    partials in the geometric coordinates.  At a point the kernel basis is
    ``linalg.integer_nullspace`` of the scaled skew matrix; the gradient has
    one row per kernel vector w and one column per basis pair (v_a, v_b),
    sum_l w_l sum_{i<j} (v_a^i v_b^j - v_a^j v_b^i) d_l omega^{ij}: the pair
    function omega(v_a, v_b) differentiated with the basis held constant.
    Each basis vector and partial is a positive multiple of its rational
    counterpart, so rows and columns scale by positive factors and
    ``linalg.rank`` of the rows is the rational rank.
    """
    chart = omega.chart
    n = chart.n_geom
    pairs = list(omega.terms)
    m = len(pairs)
    coeffs = list(omega.terms.values())
    partials = [c.differentiate(x) for x in chart.geometric_names() for c in coeffs]
    kernel = IntegerKernel(chart, coeffs + partials)

    def at(point: Point) -> tuple[list[list[int]], list[list[int]]]:
        values, _ = kernel(*integer_point(point))
        mat = [[0] * n for _ in range(n)]
        for (i, j), e in zip(pairs, values):
            mat[i][j] = e
            mat[j][i] = -e
        basis = linalg.integer_nullspace(mat)
        grad = [values[m * (l + 1) : m * (l + 2)] for l in range(n)]
        factors = [[va[i] * vb[j] - va[j] * vb[i] for i, j in pairs] for va, vb in combinations(basis, 2)]
        rows = []
        for w in basis:
            # the derivative of every entry of omega along w
            along = [sum(w[l] * grad[l][p] for l in range(n) if w[l]) for p in range(m)]
            rows.append([sum(map(operator.mul, along, f)) for f in factors])
        return basis, rows

    return at


def degeneracy_checks(
    omega: KForm, model: NSModel, count: int, rng: random.Random, label: str = "near-symplectic"
) -> CheckReport:
    """Kernel dimension 4 and intrinsic-gradient rank 3 at sampled critical points."""
    degeneracy = compile_degeneracy(omega)
    for point in model.critical_points(count, rng):
        kernel, rows = degeneracy(point)
        if len(kernel) != 4:
            return CheckReport(
                model.kind,
                label,
                FAIL,
                f"kernel dimension {len(kernel)} != 4 at a critical point (eps={DEGENERACY_EPS})",
                witness=str(point.fractions()),
            )
        r = linalg.rank(rows)
        if r != 3:
            return CheckReport(
                model.kind,
                label,
                FAIL,
                f"intrinsic gradient rank {r} != 3 at a critical point (eps={DEGENERACY_EPS})",
                witness=str(point.fractions()),
            )
    return CheckReport(
        model.kind,
        label,
        PASS,
        f"kernel dim 4 and gradient rank 3 at {count} critical points (eps={DEGENERACY_EPS})",
    )


# -- assembly and verification -------------------------------------------------------


@dataclass(frozen=True)
class NearSymplecticCandidate:
    model: NSModel
    eta: KForm
    eta_source: str  # "claimed" | "repair"
    omega: KForm

    def closed(self) -> bool:
        return ext_d(self.omega).is_zero()


class RepairFailure(RuntimeError):
    pass


def _divide_by_eps(p: Poly) -> Poly:
    i = NS_CHART_EPS.index("eps")
    out: dict[tuple[int, ...], Fraction] = {}
    for exp, c in p.terms.items():
        if exp[i] < 1:
            raise RepairFailure("defect is not divisible by eps")
        out[exp[:i] + (exp[i] - 1,) + exp[i + 1 :]] = c
    return Poly(NS_CHART_EPS, out)


def repair_correction(omega_rescaled: KForm) -> KForm:
    """Integrate the defect of the rescaled form into a correction 2-form.

    The defect d(omega_rescaled) is eps times a closed eps-free 3-form
    gamma; the correction is the fibre-radial primitive of -gamma, which
    by construction vanishes wherever y = z = 0.  A zero defect gives the
    zero correction; a defect term of degree zero in (y, z) has no
    fibre-radial primitive and raises ``ValueError``.
    """
    defect = ext_d(omega_rescaled)
    gamma = KForm(NS_CHART_EPS, 3, {idx: _divide_by_eps(c) for idx, c in defect.terms.items()})
    if not ext_d(gamma).is_zero():
        raise RepairFailure("defect of the rescaled form is not closed")
    return poincare_homotopy(-gamma, directions=_FIBRE_BLOCK)


def assemble(kind: str, eta_source: str) -> NearSymplecticCandidate:
    """omega0, rescaled unless it is already closed, plus eps times the chosen correction."""
    model = ns_model(kind)
    omega0 = build_omega0(model)
    base = omega0 if ext_d(omega0).is_zero() else rescale(omega0)
    if eta_source == "claimed":
        eta = claimed_correction(kind)
    elif eta_source == "repair":
        eta = repair_correction(base)
    else:
        raise ValueError(f"unknown eta source {eta_source!r}")
    omega = base + eta.scale(NS_CHART_EPS.var("eps"))
    return NearSymplecticCandidate(model, eta, eta_source, omega)


def assemble_and_verify(
    kind: str, eta_source: str, samples: int, rng: random.Random
) -> tuple[NearSymplecticCandidate, list[CheckReport]]:
    """Run the definition-level checks; fall back to the repair on a failed claim.

    Reports: closedness of the requested candidate (mismatch when a
    catalogued correction fails), the repair path when taken (with the
    symbolic difference), degeneracy checks and the sum-of-squares check
    of the eps-independent part for the closed candidate that results.
    """
    reports: list[CheckReport] = []
    cand = assemble(kind, eta_source)
    model = cand.model
    if cand.closed():
        reports.append(
            CheckReport(kind, "closedness", PASS, f"d(omega) = 0 with eta source {cand.eta_source!r}")
        )
    else:
        status = MISMATCH if eta_source == "claimed" else FAIL
        reports.append(
            CheckReport(
                kind,
                "closedness",
                status,
                f"d(omega) != 0 with eta source {cand.eta_source!r}",
                witness=str(ext_d(cand.omega)),
            )
        )
        if eta_source == "claimed":
            repaired = assemble(kind, "repair")
            if not repaired.closed():
                raise RepairFailure(f"repair failed to close omega for {kind}")
            diff = repaired.eta - cand.eta
            reports.append(
                CheckReport(
                    kind,
                    "repair",
                    PASS,
                    "repaired correction closes omega exactly",
                    witness=f"repaired - catalogued = {diff}",
                )
            )
            cand = repaired

    reports.append(degeneracy_checks(cand.omega, model, samples, rng))

    eps0 = KForm(
        NS_CHART_EPS,
        2,
        {idx: c.substitute({"eps": 0}) for idx, c in cand.omega.terms.items()},
    )
    _, sos_rep = sos_top_power(eps0)
    reports.append(
        CheckReport(kind, "sos-eps0", sos_rep.status, sos_rep.detail, witness=sos_rep.witness)
    )
    return cand, reports


def verify_claimed_form(kind: str, samples: int, rng: random.Random) -> list[CheckReport]:
    """Definition-level checks on the catalogued assembled 2-form itself."""
    model = ns_model(kind)
    omega = claimed_assembled_form(kind)
    reports: list[CheckReport] = []
    d = ext_d(omega)
    if d.is_zero():
        reports.append(CheckReport(kind, "claimed-form-closed", PASS, "catalogued assembled form is closed"))
        reports.append(degeneracy_checks(omega, model, samples, rng, label="claimed-form-degeneracy"))
    else:
        reports.append(
            CheckReport(
                kind,
                "claimed-form-closed",
                MISMATCH,
                "catalogued assembled form is not closed",
                witness=str(d),
            )
        )
    return reports


# -- fibre positivity -----------------------------------------------------------------


DEFAULT_BOXES: dict[str, str] = {
    "cusp": "|x|<=1",
    "swallowtail": "|x|<=1,|s|<=1/10",
    "butterfly": "|x|<=1,|u|<=1/10,|s|<=1/10",
}
#: the kinds whose fibre numerator ``fibre_positivity`` audits and ``epsilon_bound`` certifies
FIBRE_KINDS = tuple(DEFAULT_BOXES)


@dataclass(frozen=True)
class FibrePositivity:
    kind: str
    numerator: Poly  # exact D * omega(v1, v2)
    claimed: Poly
    frame_ok: bool
    identity_ok: bool

    @property
    def matches_claim(self) -> bool:
        return self.numerator == self.claimed


def fibre_numerator(omega: KForm, denominator: Poly) -> Poly:
    """N = a D + 2y b - 2z c, with a, b, c omega's dy^dz, dz^dx and dx^dy coefficients."""
    ix, iy, iz = _IDX["x"], _IDX["y"], _IDX["z"]
    y, z = NS_CHART_EPS.var("y"), NS_CHART_EPS.var("z")
    a, b, c = omega.coeff((iy, iz)), -omega.coeff((ix, iz)), omega.coeff((ix, iy))
    return a * denominator + 2 * y * b - 2 * z * c


def fibre_positivity(kind: str, omega: KForm | None = None) -> tuple[FibrePositivity, list[CheckReport]]:
    """Exact cleared numerator of omega(v1, v2) on the fibre frame, audited.

    v1 = (2z/D) d_x + d_z and v2 = (2y/D) d_x - d_y with D the x-derivative
    of the fourth component; both are exact Jacobian kernel vectors after
    clearing D.  The numerator N = D * omega(v1, v2) is ``fibre_numerator``,
    re-derived through interior products as omega(D v1, D v2) = D * N.
    """
    if kind not in FIBRE_KINDS:
        raise ValueError(f"fibre positivity applies to {'/'.join(FIBRE_KINDS)}, not {kind!r}")
    model = ns_model(kind)
    if omega is None:
        omega = claimed_assembled_form(kind)
    c = NS_CHART_EPS
    d_poly = model.denominator()
    y, z = c.var("y"), c.var("z")

    # cleared frames D*v1, D*v2
    v1 = vector_term(c, 2 * z, ("x",)) + vector_term(c, d_poly, ("z",))
    v2 = vector_term(c, 2 * y, ("x",)) + vector_term(c, -d_poly, ("y",))

    frame_ok = all(
        evaluate_form(ext_d(scalar_form(comp)), [vec]).is_zero()
        for comp in model.fibration().components
        for vec in (v1, v2)
    )

    numerator = fibre_numerator(omega, d_poly)
    identity_ok = evaluate_form(omega, [v1, v2]) == d_poly * numerator

    claimed = claimed_fibre_numerator(kind)
    result = FibrePositivity(kind, numerator, claimed, frame_ok, identity_ok)

    reports = [
        CheckReport(
            kind,
            "fibre-frame",
            PASS if frame_ok else FAIL,
            "cleared fibre frame lies in the Jacobian kernel" if frame_ok else "fibre frame fails Df.v = 0",
        ),
        CheckReport(
            kind,
            "fibre-identity",
            PASS if identity_ok else FAIL,
            "cleared numerator agrees with the interior-product evaluation"
            if identity_ok
            else "numerator identity failed",
        ),
    ]
    if result.matches_claim:
        reports.append(
            CheckReport(kind, "fibre-numerator", PASS, "numerator equals the catalogued expression")
        )
    else:
        reports.append(
            CheckReport(
                kind,
                "fibre-numerator",
                MISMATCH,
                "numerator differs from the catalogued expression",
                witness=f"derived - catalogued = {numerator - claimed}",
            )
        )
    return result, reports


class RejectedBox(ValueError):
    pass


@dataclass(frozen=True)
class EpsilonBound:
    box: Box
    bound: Fraction | None  # None = positivity holds for every eps > 0 on this box
    constraints: tuple[tuple[str, Fraction, Fraction], ...]  # (label, a, min b)

    def describe(self) -> str:
        where = format_box(self.box)
        if self.bound is None:
            return f"positive for every eps > 0 on {where}"
        return f"eps* = {self.bound} on {where}"


@dataclass(frozen=True)
class FibreDecomposition:
    """The fibre numerator as eps D^2 + y^2 L1 + z^2 L2, with L_i = a_i + eps b_i."""

    denominator: Poly  # D
    constraints: tuple[tuple[str, Fraction, Poly], ...]  # (label, a_i > 0, b_i)


@lru_cache(maxsize=64)
def fibre_decomposition(kind: str, omega: KForm | None = None) -> FibreDecomposition:
    """The fibre numerator of omega in the shape ``epsilon_bound`` certifies.

    ``omega=None`` is the catalogued form.  Keyed by value, so a form rebuilt term by term reads the same entry;
    bounded, so a long process does not grow without limit.  A numerator
    of any other shape raises ``RejectedBox``, which is never cached.
    """
    if kind not in FIBRE_KINDS:
        raise ValueError(f"fibre positivity applies to {'/'.join(FIBRE_KINDS)}, not {kind!r}")
    c = NS_CHART_EPS
    d_poly = ns_model(kind).denominator()
    numerator = fibre_numerator(claimed_assembled_form(kind) if omega is None else omega, d_poly)
    iy, iz, ieps = _IDX["y"], _IDX["z"], c.index("eps")
    buckets: dict[tuple[int, int], dict[tuple[int, ...], Fraction]] = {}
    for exp, coeff in numerator.terms.items():
        stripped = list(exp)
        stripped[iy] = stripped[iz] = 0
        buckets.setdefault((exp[iy], exp[iz]), {})[tuple(stripped)] = coeff
    extra = set(buckets) - {(0, 0), (2, 0), (0, 2)}
    if extra:
        raise RejectedBox(f"numerator is not of the certified shape: extra terms {extra}")
    if Poly(c, buckets.get((0, 0), {})) != c.var("eps") * d_poly * d_poly:
        raise RejectedBox("numerator (y,z)-free part is not eps * D^2")
    constraints = []
    for key, label in (((2, 0), "y^2"), ((0, 2), "z^2")):
        terms = buckets.get(key)
        if not terms:
            raise RejectedBox(f"missing {label} term in the numerator")
        if any(e[ieps] > 1 for e in terms):
            raise RejectedBox("numerator is not linear in eps")
        a_poly = Poly(c, {e: v for e, v in terms.items() if e[ieps] == 0})
        if not a_poly.is_constant() or a_poly.constant_value() <= 0:
            raise RejectedBox(f"{label} coefficient has a non-constant eps-free part")
        b_poly = Poly(c, {e[:ieps] + (0,) + e[ieps + 1 :]: v for e, v in terms.items() if e[ieps] == 1})
        constraints.append((label, a_poly.constant_value(), b_poly))
    return FibreDecomposition(d_poly, tuple(constraints))


def epsilon_bound(kind: str, box: Box | None = None, omega: KForm | None = None) -> EpsilonBound:
    """Largest eps* with the fibre numerator positive for all 0 < eps < eps*.

    The numerator decomposes exactly as eps D^2 + y^2 L1 + z^2 L2 with
    L_i = a_i + eps b_i, a_i a positive constant (``fibre_decomposition``,
    built once per form).  With y, z, t unbounded the positivity
    requirement on the punctured fibre is L1, L2 > 0 over the box, so
    eps* = min a_i / (-min b_i) over the constraints with a negative
    certified minimum.
    """
    dec = fibre_decomposition(kind, omega)
    if box is None:
        box = parse_box(DEFAULT_BOXES[kind])
    unknown = sorted(set(box) - set(NS_CHART_EPS.geometric_names()))
    if unknown:
        raise RejectedBox(f"box bounds {unknown}, which are not among the coordinates u, s, t, x, y, z")

    # reject boxes that pin the denominator near zero
    if dec.denominator.variables() <= set(box):
        margin = max(iv.width for iv in box.values()) / 64
        encl = enclose(dec.denominator, box)
        if encl.lo <= margin and encl.hi >= -margin:
            raise RejectedBox("box meets (or comes within margin of) the frame denominator's zero set")

    constraints: list[tuple[str, Fraction, Fraction]] = []
    bound: Fraction | None = None
    for label, a, b_poly in dec.constraints:
        needed = b_poly.variables()
        if not needed <= set(box):
            raise RejectedBox(f"box must bound {sorted(needed)} for the {label} constraint")
        if b_poly.is_zero():
            constraints.append((label, a, Fraction(0)))
            continue
        m, _ = certified_minimum(b_poly, box)
        constraints.append((label, a, m))
        if m < 0:
            candidate = a / (-m)
            bound = candidate if bound is None else min(bound, candidate)
    return EpsilonBound(dict(box), bound, tuple(constraints))


# -- Darboux-type normal form -------------------------------------------------------


@dataclass(frozen=True)
class DarbouxVerdict:
    closed: bool
    kernel_dim: int
    gradient_rank: int
    kernel_dim_on_locus: int  # with the normal coordinates zeroed


def darboux_normal_form(beta2_sign: int = 1) -> KForm:
    """The normal-form 2-form on Z x R^3, with the second self-dual term's sign chosen."""
    chart = Chart(("z0", "z1", "z2", "x1", "x2", "x3"))
    x1, x2, x3 = chart.var("x1"), chart.var("x2"), chart.var("x3")

    def f(coeff, *names):
        return form_term(chart, coeff, names)

    return (
        f(1, "z1", "z2")
        + f(-2 * x1, "z0", "x1") + f(-2 * x1, "x2", "x3")
        + f(x2.scale(beta2_sign), "z0", "x2") + f(-x2.scale(beta2_sign), "x1", "x3")
        + f(x3, "z0", "x3") + f(x3, "x1", "x2")
    )


def darboux_normal_form_data(beta2_sign: int = 1) -> DarbouxVerdict:
    """Degeneracy data of the normal-form 2-form on Z x R^3 at the origin.

    With the standard sign the form is closed; flipping the second
    self-dual term breaks closedness but the kernel and rank conditions
    are sign-robust, which is what the perturbed variant demonstrates.
    """
    omega = darboux_normal_form(beta2_sign)
    origin = [Fraction(0)] * 6
    kernel, rows = compile_degeneracy(omega)(origin)
    restricted = KForm(
        omega.chart, 2, {idx: c.substitute({"x1": 0, "x2": 0, "x3": 0}) for idx, c in omega.terms.items()}
    )
    kernel_locus, _ = compile_degeneracy(restricted)(origin)
    return DarbouxVerdict(ext_d(omega).is_zero(), len(kernel), linalg.rank(rows), len(kernel_locus))


def darboux_normal_form_check() -> CheckReport:
    """Closedness, kernel dim 4 and rank 3 for the normal form; sign-robust rank."""
    std = darboux_normal_form_data(1)
    flipped = darboux_normal_form_data(-1)
    ok = (
        std.closed
        and std.kernel_dim == 4
        and std.gradient_rank == 3
        and std.kernel_dim_on_locus == 4
        and flipped.kernel_dim == 4
        and flipped.gradient_rank == 3
    )
    if ok:
        return CheckReport(
            "darboux",
            "darboux",
            PASS,
            "normal form closed with kernel dim 4 and gradient rank 3 at the origin; "
            "rank condition robust under a flipped self-dual term",
        )
    return CheckReport(
        "darboux",
        "darboux",
        FAIL,
        f"normal form data {std}, flipped {flipped}",
    )
