"""Near-symplectic 2-forms for the dim-6 singularity models.

The chart here is (u, s, t, x, y, z) with the scale symbol ``eps`` as a
coefficient parameter.  The base 2-form follows the recipe

    omega0 = f* omega_X + star(du ^ ds ^ dt ^ df4),

the rescaling multiplies the (dt^dx + dy^dz)-component and the residue
(the du/ds-wedged leftovers of f* omega_X) by eps, and a correction
2-form scaled by eps restores closedness.  When a catalogued correction
fails, the repair path integrates the defect with the homotopy operator
radial in the fibre directions (y, z), so the repaired correction
vanishes on the critical locus and the kernel conditions survive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from . import linalg
from .catalog import random_rational
from .exterior import (
    KForm,
    PolyMap,
    block_degree,
    evaluate_form,
    ext_d,
    form_term,
    hodge_star,
    poincare_homotopy,
    pullback,
    vector_term,
    volume_form,
    wedge,
    wedge_power,
)
from .interval import Box, certified_minimum, enclose, format_box
from .poly import Chart, Poly, Rational
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
    rescaled: bool  # the fold is already closed and is never rescaled

    @property
    def chart(self) -> Chart:
        return NS_CHART_EPS

    def fibration(self) -> PolyMap:
        c = NS_CHART_EPS
        return PolyMap(c, TARGET4, (c.var("u"), c.var("s"), c.var("t"), self.f4))

    def denominator(self) -> Poly:
        """The x-derivative of f4; the fibre frames clear this factor."""
        return self.f4.differentiate("x")

    def critical_points(self, count: int, rng: random.Random) -> list[list[Fraction]]:
        """Rational points on the critical locus at eps = ``DEGENERACY_EPS``, checked against grad f4."""
        pts: list[list[Fraction]] = []
        grad = [self.f4.differentiate(n) for n in ("x", "y", "z")]
        while len(pts) < count:
            vals = {name: random_rational(rng) for name in ("u", "s", "x")}
            vals["y"] = Fraction(0)
            vals["z"] = Fraction(0)
            x = vals["x"]
            if self.kind == "fold":
                vals["x"] = Fraction(0)
                vals["t"] = random_rational(rng)
            elif self.kind == "cusp":
                vals["t"] = x * x
            elif self.kind == "swallowtail":
                vals["t"] = -4 * x**3 - 2 * vals["s"] * x
            elif self.kind == "butterfly":
                vals["t"] = 5 * x**4 - 3 * vals["u"] * x * x + 2 * vals["s"] * x
            else:
                raise ValueError(self.kind)
            point = [vals[name] for name in ("u", "s", "t", "x", "y", "z")] + [DEGENERACY_EPS]
            if any(g.evaluate(point) != 0 for g in grad):
                raise AssertionError("sampler missed the critical locus")
            pts.append(point)
        return pts


def ns_model(kind: str) -> NSModel:
    c = NS_CHART_EPS
    u, s, t, x, y, z = (c.var(n) for n in ("u", "s", "t", "x", "y", "z"))
    if kind == "fold":
        f4 = (x * x + y * y).scale(Fraction(1, 2)) - z * z
        return NSModel(kind, f4, rescaled=False)
    if kind == "cusp":
        return NSModel(kind, x**3 - 3 * t * x + y * y - z * z, rescaled=True)
    if kind == "swallowtail":
        return NSModel(kind, x**4 + s * x * x + t * x + y * y - z * z, rescaled=True)
    if kind == "butterfly":
        return NSModel(kind, x**5 - u * x**3 + s * x * x - t * x + y * y - z * z, rescaled=True)
    raise ValueError(f"no near-symplectic model for kind {kind!r}")


def build_omega0(model: NSModel) -> KForm:
    """f* omega_X plus the Hodge dual of du^ds^dt^df4."""
    c = NS_CHART_EPS
    omega_x = form_term(TARGET4, 1, ("w1", "w2")) + form_term(TARGET4, 1, ("w3", "w4"))
    f_star = pullback(omega_x, model.fibration())
    df4 = ext_d(KForm(c, 0, {(): model.f4}))
    dust = wedge(wedge(form_term(c, 1, ("u",)), form_term(c, 1, ("s",))), form_term(c, 1, ("t",)))
    return f_star + hodge_star(wedge(dust, df4))


@dataclass(frozen=True)
class Decomposition:
    """omega = c_us du^ds + F b1 + G b2 + H b3 + residue, b1 = dt^dx + dy^dz etc."""

    c_us: Poly
    f: Poly
    g: Poly
    h: Poly
    residue: KForm

    def reassemble(self, f_scale: Poly | Rational = 1, residue_scale: Poly | Rational = 1) -> KForm:
        c = NS_CHART_EPS
        b1 = form_term(c, 1, ("t", "x")) + form_term(c, 1, ("y", "z"))
        b2 = form_term(c, 1, ("t", "y")) + form_term(c, 1, ("z", "x"))
        b3 = form_term(c, 1, ("t", "z")) + form_term(c, 1, ("x", "y"))
        out = form_term(c, self.c_us, ("u", "s"))
        out = out + b1.scale(self.f).scale(f_scale)
        out = out + b2.scale(self.g) + b3.scale(self.h)
        out = out + self.residue.scale(residue_scale)
        return out


def decompose(omega: KForm) -> Decomposition:
    iu, isx, it, ix, iy, iz = (_IDX[n] for n in ("u", "s", "t", "x", "y", "z"))
    c_us = omega.coeff((iu, isx))
    f = omega.coeff((it, ix))
    g = omega.coeff((it, iy))
    h = omega.coeff((it, iz))
    residue = omega - Decomposition(c_us, f, g, h, KForm(NS_CHART_EPS, 2, {})).reassemble()
    return Decomposition(c_us, f, g, h, residue)


def rescale(omega: KForm) -> KForm:
    """Scale the (dt^dx + dy^dz) component and the residue by eps.

    The du^ds and the two remaining self-dual components are untouched.
    Scaling the residue along with the leading component is what the
    catalogued assembled forms do, and it is what keeps the defect of the
    rescaled form divisible by eps (so a correction scaled by eps can
    close it).
    """
    eps = NS_CHART_EPS.var("eps")
    return decompose(omega).reassemble(f_scale=eps, residue_scale=eps)


#: multinomial factor in the cube of a 2-form: 3!/(1!2!) choices times
#: (dt^dx + dy^dz)^2 = 2 dt^dx^dy^dz.
SOS_CUBE_FACTOR = 6


def sos_top_power(omega0: KForm) -> tuple[tuple[Poly, Poly, Poly], CheckReport]:
    """omega0^3 equals 6 (f^2 + g^2 + h^2) times the volume form, exactly.

    The catalogued statement drops the combinatorial factor; the sign
    content (a sum of squares, so nonnegative) is identical.
    """
    dec = decompose(omega0)
    cube = wedge_power(omega0, 3)
    expected = volume_form(NS_CHART_EPS).scale((dec.f**2 + dec.g**2 + dec.h**2).scale(SOS_CUBE_FACTOR))
    if cube == expected:
        note = "" if dec.residue.is_zero() else "; residue terms wedge to zero"
        rep = CheckReport(
            "-",
            "sos",
            PASS,
            f"omega0^3 = 6*(({dec.f})^2 + ({dec.g})^2 + ({dec.h})^2) vol{note}",
        )
    else:
        rep = CheckReport(
            "-", "sos", FAIL, "omega0^3 is not the expected sum of squares", witness=str(cube - expected)
        )
    return (dec.f, dec.g, dec.h), rep


# -- pointwise degeneracy checks ----------------------------------------------------


def kernel_at(omega: KForm, point: Sequence[Fraction]) -> list[list[Fraction]]:
    return linalg.nullspace(omega.coefficient_matrix(point))


def dk_rank_at(omega: KForm, point: Sequence[Fraction], kernel: Sequence[Sequence[Fraction]]) -> int:
    """Rank of the intrinsic gradient of omega restricted to the kernel block.

    Rows: derivative directions (the kernel basis).  Columns: the pair
    functions omega(v_a, v_b) for kernel basis pairs, differentiated with
    the basis vectors held constant.
    """
    chart = omega.chart
    names = chart.geometric_names()
    pair_polys: list[Poly] = []
    for a, b in combinations(range(len(kernel)), 2):
        va, vb = kernel[a], kernel[b]
        poly = chart.zero()
        for (i, j), c in omega.terms.items():
            factor = va[i] * vb[j] - va[j] * vb[i]
            if factor != 0:
                poly = poly + c.scale(factor)
        pair_polys.append(poly)
    rows = []
    for w in kernel:
        row = []
        for poly in pair_polys:
            acc = Fraction(0)
            for i, name in enumerate(names):
                if w[i] != 0:
                    acc += w[i] * poly.differentiate(name).evaluate(point)
            row.append(acc)
        rows.append(row)
    return linalg.rank(rows)


def degeneracy_checks(
    omega: KForm, model: NSModel, count: int, rng: random.Random, label: str = "near-symplectic"
) -> CheckReport:
    """Kernel dimension 4 and intrinsic-gradient rank 3 at sampled critical points."""
    for point in model.critical_points(count, rng):
        kernel = kernel_at(omega, point)
        if len(kernel) != 4:
            return CheckReport(
                model.kind,
                label,
                FAIL,
                f"kernel dimension {len(kernel)} != 4 at a critical point (eps={DEGENERACY_EPS})",
                witness=str(point),
            )
        r = dk_rank_at(omega, point, kernel)
        if r != 3:
            return CheckReport(
                model.kind,
                label,
                FAIL,
                f"intrinsic gradient rank {r} != 3 at a critical point (eps={DEGENERACY_EPS})",
                witness=str(point),
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
    by construction vanishes wherever y = z = 0.
    """
    defect = ext_d(omega_rescaled)
    gamma = KForm(NS_CHART_EPS, 3, {idx: _divide_by_eps(c) for idx, c in defect.terms.items()})
    if not ext_d(gamma).is_zero():
        raise RepairFailure("defect of the rescaled form is not closed")
    if block_degree(gamma, _FIBRE_BLOCK) < 1 and not gamma.is_zero():
        # fall back to the full radial primitive; the kernel checks will
        # then judge the outcome
        return poincare_homotopy(-gamma)
    if gamma.is_zero():
        return KForm(NS_CHART_EPS, 2, {})
    return poincare_homotopy(-gamma, directions=_FIBRE_BLOCK)


def assemble(kind: str, eta_source: str) -> NearSymplecticCandidate:
    """omega = rescaled omega0 plus eps times the chosen correction."""
    model = ns_model(kind)
    omega0 = build_omega0(model)
    eps = NS_CHART_EPS.var("eps")
    base = rescale(omega0) if model.rescaled else omega0
    if eta_source == "claimed":
        eta = claimed_correction(kind)
    elif eta_source == "repair":
        eta = repair_correction(base) if model.rescaled else KForm(NS_CHART_EPS, 2, {})
    else:
        raise ValueError(f"unknown eta source {eta_source!r}")
    omega = base + eta.scale(eps)
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


def fibre_positivity(kind: str, omega: KForm | None = None) -> tuple[FibrePositivity, list[CheckReport]]:
    """Exact cleared numerator of omega(v1, v2) on the fibre frame, audited.

    v1 = (2z/D) d_x + d_z and v2 = (2y/D) d_x - d_y with D the x-derivative
    of the fourth component; both are exact Jacobian kernel vectors after
    clearing D.  The numerator N = D * omega(v1, v2) is computed from the
    coefficient pattern and re-derived through interior products as
    omega(D v1, D v2) = D * N.
    """
    if kind not in ("cusp", "swallowtail", "butterfly"):
        raise ValueError(f"fibre positivity applies to cusp/swallowtail/butterfly, not {kind!r}")
    model = ns_model(kind)
    if omega is None:
        omega = claimed_assembled_form(kind)
    c = NS_CHART_EPS
    d_poly = model.denominator()
    y, z = c.var("y"), c.var("z")
    zero = c.zero()

    # cleared frames D*v1, D*v2
    v1 = vector_term(c, 2 * z, ("x",)) + vector_term(c, d_poly, ("z",))
    v2 = vector_term(c, 2 * y, ("x",)) + vector_term(c, -d_poly, ("y",))

    frame_ok = True
    for comp in model.fibration().components:
        for vec in (v1, v2):
            acc = zero
            for (i,), coeff in vec.terms.items():
                acc = acc + comp.differentiate(c.names[i]) * coeff
            if not acc.is_zero():
                frame_ok = False

    iy, iz, ix = _IDX["y"], _IDX["z"], _IDX["x"]
    a = omega.coeff((iy, iz))
    b = -omega.coeff((ix, iz))  # coefficient of dz^dx
    c_xy = omega.coeff((ix, iy))
    numerator = a * d_poly + 2 * y * b - 2 * z * c_xy
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


DEFAULT_BOXES: dict[str, str] = {
    "cusp": "|x|<=1",
    "swallowtail": "|x|<=1,|s|<=1/10",
    "butterfly": "|x|<=1,|u|<=1/10,|s|<=1/10",
}


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


def epsilon_bound(kind: str, box: Box | None = None, omega: KForm | None = None) -> EpsilonBound:
    """Largest eps* with the fibre numerator positive for all 0 < eps < eps*.

    The numerator decomposes exactly as eps D^2 + y^2 L1 + z^2 L2 with
    L_i = a_i + eps b_i, a_i a positive constant.  With y, z, t unbounded
    the positivity requirement on the punctured fibre is L1, L2 > 0 over
    the box, so eps* = min a_i / (-min b_i) over the constraints with a
    negative certified minimum.
    """
    model = ns_model(kind)
    if box is None:
        from .interval import parse_box

        box = parse_box(DEFAULT_BOXES[kind])
    unknown = sorted(set(box) - set(NS_CHART_EPS.geometric_names()))
    if unknown:
        raise RejectedBox(f"box bounds {unknown}, which are not among the coordinates u, s, t, x, y, z")
    result, _ = fibre_positivity(kind, omega)
    n = result.numerator
    c = NS_CHART_EPS
    iy, iz = _IDX["y"], _IDX["z"]

    buckets: dict[tuple[int, int], dict[tuple[int, ...], Fraction]] = {}
    for exp, coeff in n.terms.items():
        key = (exp[iy], exp[iz])
        stripped = list(exp)
        stripped[iy] = 0
        stripped[iz] = 0
        buckets.setdefault(key, {})[tuple(stripped)] = coeff
    allowed = {(0, 0), (2, 0), (0, 2)}
    if set(buckets) - allowed:
        raise RejectedBox(f"numerator is not of the certified shape: extra terms {set(buckets) - allowed}")

    d_poly = model.denominator()
    eps = c.var("eps")
    base = Poly(c, buckets.get((0, 0), {}))
    if base != eps * d_poly * d_poly:
        raise RejectedBox("numerator (y,z)-free part is not eps * D^2")

    # reject boxes that pin the denominator near zero
    d_vars = d_poly.variables()
    if d_vars <= set(box):
        margin = max(iv.width for iv in box.values()) / 64
        encl = enclose(d_poly, box)
        if encl.lo <= margin and encl.hi >= -margin:
            raise RejectedBox("box meets (or comes within margin of) the frame denominator's zero set")

    ieps = c.index("eps")
    constraints: list[tuple[str, Fraction, Fraction]] = []
    bound: Fraction | None = None
    for key, label in (((2, 0), "y^2"), ((0, 2), "z^2")):
        l_poly = Poly(c, buckets.get(key, {}))
        if l_poly.is_zero():
            raise RejectedBox(f"missing {label} term in the numerator")
        a_terms = {e: v for e, v in l_poly.terms.items() if e[ieps] == 0}
        b_terms = {}
        for e, v in l_poly.terms.items():
            if e[ieps] == 1:
                b_terms[e[:ieps] + (0,) + e[ieps + 1 :]] = v
            elif e[ieps] > 1:
                raise RejectedBox("numerator is not linear in eps")
        a_poly = Poly(c, a_terms)
        b_poly = Poly(c, b_terms)
        if not a_poly.is_constant() or a_poly.constant_value() <= 0:
            raise RejectedBox(f"{label} coefficient has a non-constant eps-free part")
        a = a_poly.constant_value()
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


def darboux_normal_form_data(beta2_sign: int = 1) -> DarbouxVerdict:
    """Degeneracy data of the normal-form 2-form on Z x R^3 at the origin.

    With the standard sign the form is closed; flipping the second
    self-dual term breaks closedness but the kernel and rank conditions
    are sign-robust, which is what the perturbed variant demonstrates.
    """
    chart = Chart(("z0", "z1", "z2", "x1", "x2", "x3"))
    x1, x2, x3 = chart.var("x1"), chart.var("x2"), chart.var("x3")

    def f(coeff, *names):
        return form_term(chart, coeff, names)

    omega = (
        f(1, "z1", "z2")
        + f(-2 * x1, "z0", "x1") + f(-2 * x1, "x2", "x3")
        + f(x2.scale(beta2_sign), "z0", "x2") + f(-x2.scale(beta2_sign), "x1", "x3")
        + f(x3, "z0", "x3") + f(x3, "x1", "x2")
    )
    origin = [Fraction(0)] * 6
    kernel = kernel_at(omega, origin)
    rank3 = dk_rank_at(omega, origin, kernel)
    restricted = KForm(
        chart, 2, {idx: c.substitute({"x1": 0, "x2": 0, "x3": 0}) for idx, c in omega.terms.items()}
    )
    kernel_locus = kernel_at(restricted, origin)
    return DarbouxVerdict(ext_d(omega).is_zero(), len(kernel), rank3, len(kernel_locus))


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
