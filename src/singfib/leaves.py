"""Leaf frames and the induced symplectic coefficient on leaves.

At a non-critical point q the leaf tangent plane is the common kernel of
the Casimir differentials.  Two independent derivations of the
coefficient lambda with omega_leaf = lambda * omega_area live here.

The frame derivation (``leaf_coefficient``, run by ``leaf-relations``)
builds the engine's own orthogonal frame (never reusing catalogued frame
vectors), finds alpha and beta with pi . alpha = u and pi . beta = v
exactly, and reports lambda as an exact certificate: a sign together with
the rational lambda^2.  Square roots never appear: frames stay
unnormalized and carry their squared norms.

Each point stays in integers from start to end.  The frame scales the
point once to q = Q / D, and the Casimir gradient rows and the entries of pi
are read from integer kernels compiled once per model and per bivector
(``poly.IntegerKernel``), as positive integer multiples of their values.
One fraction-free elimination gives the kernel of the gradient rows as
primitive integer vectors u and w, and one integer Gram-Schmidt step gives
v.  No second elimination is needed: a skew pi(q) of rank 2 whose image
is span(u, v), with u orthogonal to v, sends v to rho * u and u to
sigma * v (Damianou-Petalidou, Canad. J. Math. 2012).  With P = d * pi(q)
the integer matrix the kernel gives, alpha = (d / rho) v and
beta = (d / sigma) u; both proportionalities are checked in every
component by cross-multiplication.

The closed form (``audit_leaf_formulas``, run by ``leaf-audit``) uses
that a rank-2 bivector is pi = |pi| u^v in an orthonormal leaf frame, so
lambda^2 = 1 / sum_{i<j} (pi^{ij})^2 at every non-critical point.  The
frame derivation checks exactly that identity at each of its points,
which ties the two derivations together.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .catalog import FibrationModel, random_noncritical_point
from .poisson import PoissonBivector, flaschka_ratiu
from .poly import Poly, Rational, integer_point
from .report import FAIL, MISMATCH, PASS, CheckReport
from .reference import leaf_claim


class SingularPoint(ValueError):
    """Raised when a leaf-frame is requested on the critical locus."""


@dataclass(frozen=True)
class LeafFrame:
    """Orthogonal leaf-tangent pair with exact squared-norm certificates."""

    #: primitive integer vectors; u is the first kernel vector, v the second made orthogonal to u
    u: tuple[int, ...]
    v: tuple[int, ...]
    u_norm_sq: int
    v_norm_sq: int
    #: the Casimir gradients at the point, one row per Casimir, all times one positive integer
    gradients: tuple[tuple[int, ...], ...]
    #: the point as integer numerators over one positive denominator (``poly.integer_point``)
    scaled_point: tuple[tuple[int, ...], int]


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(operator.mul, a, b))


def leaf_frame(model: FibrationModel, q: Sequence[Rational]) -> LeafFrame:
    """Two orthogonal spanning vectors of the leaf tangent plane at q."""
    q = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in q)
    num, den = integer_point(q)
    values, _ = model.gradient_kernel(num, den)
    cols = model.chart.n_geom
    rows = tuple(tuple(values[r : r + cols]) for r in range(0, len(values), cols))
    kernel = linalg.integer_nullspace(rows)
    if len(kernel) != 2:
        raise SingularPoint(
            f"Casimir differentials drop rank at {q}: kernel dimension {len(kernel)}"
        )
    u, w = kernel
    # one integer Gram-Schmidt step: v is |u|^2 times w's component orthogonal to u
    uu = _dot(u, u)
    wu = _dot(w, u)
    v = [uu * wi - wu * ui for wi, ui in zip(w, u)]
    g = math.gcd(*v)
    if g > 1:
        v = [x // g for x in v]
    vv = _dot(v, v)
    if _dot(u, v) != 0 or uu == 0 or vv == 0:
        raise AssertionError("frame orthogonalization failed")
    return LeafFrame(tuple(u), tuple(v), uu, vv, rows, (tuple(num), den))


def solve_structure_covector(
    b: PoissonBivector, q: Sequence[Rational], w: Sequence[Fraction]
) -> list[Fraction]:
    """An exact covector alpha with pi(q) . alpha = w.

    Raises InconsistentSystem when w is not in the image of the evaluated
    coefficient matrix, which signals that w is not leaf-tangent.
    """
    mat = b.matrix_at(q)
    return linalg.solve(mat, list(w))


@dataclass(frozen=True)
class LeafCoefficient:
    """lambda with omega_leaf = lambda * omega_area, for the oriented frame (u, v)."""

    frame: LeafFrame
    pairing_uv: Fraction  # <alpha_raw, v_raw>
    pairing_vu: Fraction  # <beta_raw, u_raw>

    @property
    def value_sq(self) -> Fraction:
        return self.pairing_uv**2 / (self.frame.u_norm_sq * self.frame.v_norm_sq)

    @property
    def sign(self) -> int:
        p = self.pairing_uv
        return (p > 0) - (p < 0)

    @property
    def value_float(self) -> float:
        return self.sign * math.sqrt(float(self.value_sq))

    @property
    def pairing_antisymmetric(self) -> bool:
        return self.pairing_uv == -self.pairing_vu


def _skew_apply(b: PoissonBivector, entries: Sequence[int], x: Sequence[int]) -> list[int]:
    """P . x for the skew matrix with P[i][j] = -P[j][i] = entry, one entry per key of pi.terms."""
    out = [0] * len(x)
    for (i, j), e in zip(b.pi.terms, entries):
        out[i] += e * x[j]
        out[j] -= e * x[i]
    return out


def _multiplier(y: Sequence[int], x: Sequence[int], what: str) -> tuple[int, int]:
    """(a, c) with y = (a / c) * x and a != 0, checked in every component by cross-multiplication."""
    i = next(i for i, xi in enumerate(x) if xi)
    a, c = y[i], x[i]
    if not a or any(yj * c != a * xj for yj, xj in zip(y, x)):
        raise linalg.InconsistentSystem(f"pi(q) does not map the leaf plane onto itself: {what}")
    return a, c


def leaf_coefficient(
    model: FibrationModel,
    q: Sequence[Rational],
    k: Poly | Rational = 1,
    bivector: PoissonBivector | None = None,
) -> LeafCoefficient:
    """lambda at q from the closed-form solutions of pi . alpha = u and pi . beta = v.

    A rank-2 pi(q) whose image is the leaf plane sends v to a nonzero
    multiple rho u and u to a nonzero multiple sigma v; InconsistentSystem
    is raised where it does not, and where lambda^2 differs from
    1 / sum_{i<j} (pi^{ij})^2 (a pi of rank above 2 that keeps the leaf plane).
    """
    b = bivector if bivector is not None else flaschka_ratiu(model, k)
    frame = leaf_frame(model, q)
    u, v, uu, vv = frame.u, frame.v, frame.u_norm_sq, frame.v_norm_sq
    entries, d = b.entry_kernel(*frame.scaled_point)
    # P = d * pi(q): P.v = rho * u and P.u = sigma * v, rho = a / c and sigma = e / f
    a, c = _multiplier(_skew_apply(b, entries, v), u, "pi.v is not a nonzero multiple of u")
    e, f = _multiplier(_skew_apply(b, entries, u), v, "pi.u is not a nonzero multiple of v")
    # alpha = (d / rho) v and beta = (d / sigma) u, so <alpha, v> = d |v|^2 / rho
    pairing_uv = Fraction(d * vv * c, a)
    # lambda^2 = <alpha, v>^2 / (|u|^2 |v|^2) = 1 / sum_{i<j} (pi^{ij})^2, with P = d * pi
    if vv * c * c * _dot(entries, entries) != uu * a * a:
        raise linalg.InconsistentSystem("lambda^2 differs from 1 / sum_{i<j} (pi^{ij})^2")
    return LeafCoefficient(frame, pairing_uv, Fraction(d * uu * f, e))


def defining_relations_check(model: FibrationModel, samples: int, rng: random.Random) -> CheckReport:
    """pi.alpha = u, pi.beta = v and <alpha,v> + <beta,u> = 0, exactly, at random points (k = 1)."""
    bivector = flaschka_ratiu(model, 1)
    for _ in range(samples):
        q = random_noncritical_point(model, rng)
        try:
            coeff = leaf_coefficient(model, q, bivector=bivector)
        except (SingularPoint, linalg.InconsistentSystem) as exc:
            return CheckReport(model.name, "leaf-relations", FAIL, str(exc), witness=str(q))
        if not coeff.pairing_antisymmetric:
            return CheckReport(
                model.name,
                "leaf-relations",
                FAIL,
                "<alpha,v> != -<beta,u>",
                witness=str(q),
            )
        frame = coeff.frame
        for grad in frame.gradients:
            if _dot(grad, frame.u) or _dot(grad, frame.v):
                return CheckReport(
                    model.name, "leaf-relations", FAIL, "frame not Casimir-tangent", witness=str(q)
                )
    return CheckReport(
        model.name,
        "leaf-relations",
        PASS,
        f"defining relations exact at {samples} points (k = 1)",
    )


@dataclass(frozen=True)
class LeafAuditRow:
    point: tuple[Fraction, ...]
    derived_sq: Fraction
    claimed_sq: Fraction

    @property
    def match(self) -> bool:
        return self.derived_sq == self.claimed_sq


def audit_leaf_formulas(
    model: FibrationModel, samples: int, rng: random.Random
) -> tuple[CheckReport, list[LeafAuditRow]]:
    """Compare the closed-form leaf coefficient against the catalogued one.

    Each row takes lambda^2 = 1 / sum_{i<j} (pi^{ij}(q))^2 from the
    bivector's entry kernel at the point (no frame; ``leaf_coefficient``
    checks this identity wherever it runs).  The comparison is exact on
    squares (both sides are rational numbers), which is strictly finer
    than any floating-point tolerance; the floats in the witness are only
    renderings.  Points where either side divides by zero are skipped.
    """
    rows: list[LeafAuditRow] = []
    claim = leaf_claim(model)
    # the claimed formulas belong to the catalogued bivector, which is the
    # raw construction divided by the recorded scale; lambda scales inversely
    scale_sq = model.claimed_scale**2
    entry_kernel = flaschka_ratiu(model, 1).entry_kernel
    attempts = 0
    while len(rows) < samples and attempts < samples * 50:
        attempts += 1
        q = random_noncritical_point(model, rng)
        try:
            claimed_sq = claim.value_sq(q)
            # the kernel gives d * pi^{ij}(q), so sum (pi^{ij})^2 = sum (entries)^2 / d^2
            entries, d = entry_kernel(*integer_point(q))
            derived_sq = Fraction(scale_sq.numerator * d * d, scale_sq.denominator * _dot(entries, entries))
        except ZeroDivisionError:
            continue
        rows.append(LeafAuditRow(tuple(q), derived_sq, claimed_sq))
    matches = sum(1 for r in rows if r.match)
    if not rows:
        rep = CheckReport(
            model.name, "leaf-audit", FAIL, f"no usable point in {attempts} attempts for {samples} samples"
        )
    elif matches == len(rows):
        rep = CheckReport(
            model.name,
            "leaf-audit",
            PASS,
            f"derived coefficient equals {claim.text} at all {len(rows)} points",
        )
    else:
        bad = next(r for r in rows if not r.match)
        rep = CheckReport(
            model.name,
            "leaf-audit",
            MISMATCH,
            f"{len(rows) - matches} of {len(rows)} points disagree with {claim.text}",
            witness=(
                f"point {bad.point}: derived |lambda| = {math.sqrt(bad.derived_sq):.9g} "
                f"(lambda^2 = {bad.derived_sq}), catalogued |lambda| = {math.sqrt(bad.claimed_sq):.9g} "
                f"(lambda^2 = {bad.claimed_sq})"
            ),
        )
    return rep, rows
