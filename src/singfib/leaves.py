"""Leaf frames and the induced symplectic coefficient on leaves.

At a non-critical point q the leaf tangent plane is the common kernel of
the Casimir differentials.  Two independent derivations of the
coefficient lambda with omega_leaf = lambda * omega_area live here.

The frame solve (``leaf_coefficient``, run by ``leaf-relations``) builds
the engine's own orthogonal frame (never reusing catalogued frame
vectors), solves pi . alpha = u and pi . beta = v exactly, and reports
lambda as an exact certificate: a sign together with the rational
lambda^2.  Square roots never appear: frames stay unnormalized and carry
their squared norms.  Each point costs two eliminations: the kernel of
the Casimir gradient rows, which the frame keeps for the tangency check,
and one solve with the two right-hand sides u and v.

The closed form (``audit_leaf_formulas``, run by ``leaf-audit``) uses
that a rank-2 bivector is pi = |pi| u^v in an orthonormal leaf frame, so
lambda^2 = 1 / sum_{i<j} (pi^{ij})^2 at every non-critical point.  The
frame solve checks exactly that identity at each of its points, which
ties the two derivations together.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .catalog import FibrationModel, random_noncritical_point
from .poisson import PoissonBivector, flaschka_ratiu
from .poly import Poly, Rational
from .report import FAIL, MISMATCH, PASS, CheckReport
from .reference import leaf_claim, ws_leaf_claim, ws_leaf_claim_sq


class SingularPoint(ValueError):
    """Raised when a leaf-frame is requested on the critical locus."""


@dataclass(frozen=True)
class LeafFrame:
    """Orthogonal leaf-tangent pair with exact squared-norm certificates."""

    point: tuple[Fraction, ...]
    u: tuple[Fraction, ...]
    v: tuple[Fraction, ...]
    u_norm_sq: Fraction
    v_norm_sq: Fraction
    #: the Casimir gradients evaluated at the point, one row per Casimir
    gradients: tuple[tuple[Fraction, ...], ...]


def leaf_frame(model: FibrationModel, q: Sequence[Rational]) -> LeafFrame:
    """Two orthogonal spanning vectors of the leaf tangent plane at q."""
    q = tuple(Fraction(v) for v in q)
    rows = tuple(tuple(g.evaluate(q) for g in grad) for grad in model.casimir_gradients)
    kernel = linalg.nullspace(rows)
    if len(kernel) != 2:
        raise SingularPoint(
            f"Casimir differentials drop rank at {q}: kernel dimension {len(kernel)}"
        )
    u, w = kernel
    # one Gram-Schmidt step keeps everything rational
    uu = linalg.dot(u, u)
    coeff = linalg.dot(w, u) / uu
    v = [wi - coeff * ui for wi, ui in zip(w, u)]
    vv = linalg.dot(v, v)
    if linalg.dot(u, v) != 0 or uu == 0 or vv == 0:
        raise AssertionError("frame orthogonalization failed")
    return LeafFrame(q, tuple(u), tuple(v), uu, vv, rows)


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


def leaf_coefficient(
    model: FibrationModel,
    q: Sequence[Rational],
    k: Poly | Rational = 1,
    bivector: PoissonBivector | None = None,
) -> LeafCoefficient:
    b = bivector if bivector is not None else flaschka_ratiu(model, k)
    frame = leaf_frame(model, q)
    mat = b.matrix_at(frame.point)
    alpha, beta = linalg.solve(mat, frame.u, frame.v)
    if linalg.mat_vec(mat, alpha) != list(frame.u):
        raise AssertionError("alpha does not solve pi.alpha = u")
    if linalg.mat_vec(mat, beta) != list(frame.v):
        raise AssertionError("beta does not solve pi.beta = v")
    pairing_uv = linalg.dot(alpha, frame.v)
    upper = [x for i, row in enumerate(mat) for x in row[i + 1 :]]
    if pairing_uv**2 * linalg.dot(upper, upper) != frame.u_norm_sq * frame.v_norm_sq:
        raise AssertionError("lambda^2 differs from 1 / sum_{i<j} (pi^{ij})^2")
    return LeafCoefficient(frame, pairing_uv, linalg.dot(beta, frame.u))


def defining_relations_check(
    model: FibrationModel, samples: int, rng: random.Random, k: Poly | Rational = 1
) -> CheckReport:
    """pi.alpha = u, pi.beta = v and <alpha,v> + <beta,u> = 0, exactly, at random points."""
    bivector = flaschka_ratiu(model, k)
    for _ in range(samples):
        q = random_noncritical_point(model, rng)
        try:
            coeff = leaf_coefficient(model, q, k, bivector=bivector)
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
            if linalg.dot(grad, frame.u) != 0 or linalg.dot(grad, frame.v) != 0:
                return CheckReport(
                    model.name, "leaf-relations", FAIL, "frame not Casimir-tangent", witness=str(q)
                )
    return CheckReport(
        model.name,
        "leaf-relations",
        PASS,
        f"defining relations exact at {samples} points (k = {k})",
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
    bivector's entries at the point (no frame solve; ``leaf_coefficient``
    checks this identity wherever it runs).  The comparison is exact on
    squares (both sides are rational numbers), which is strictly finer
    than any floating-point tolerance; the floats in the witness are only
    renderings.  Points where either side divides by zero are skipped.
    """
    rows: list[LeafAuditRow] = []
    use_ws = model.kind == "w_s"
    claim = ws_leaf_claim(model) if use_ws else leaf_claim(model)
    # the claimed formulas belong to the catalogued bivector, which is the
    # raw construction divided by the recorded scale; lambda scales inversely
    scale_sq = model.claimed_scale**2
    entries = flaschka_ratiu(model, 1).pi.terms.values()
    attempts = 0
    while len(rows) < samples and attempts < samples * 50:
        attempts += 1
        q = random_noncritical_point(model, rng)
        try:
            claimed_sq = ws_leaf_claim_sq(claim, q) if use_ws else claim.value_sq(q)
            vals = [e.evaluate(q) for e in entries]
            derived_sq = scale_sq / linalg.dot(vals, vals)
        except ZeroDivisionError:
            continue
        rows.append(LeafAuditRow(tuple(q), derived_sq, claimed_sq))
    matches = sum(1 for r in rows if r.match)
    label = "w_s mu-expression" if use_ws else claim.describe()
    if not rows:
        rep = CheckReport(
            model.name, "leaf-audit", FAIL, f"no usable point in {attempts} attempts for {samples} samples"
        )
    elif matches == len(rows):
        rep = CheckReport(
            model.name,
            "leaf-audit",
            PASS,
            f"derived coefficient equals {label} at all {len(rows)} points",
        )
    else:
        bad = next(r for r in rows if not r.match)
        rep = CheckReport(
            model.name,
            "leaf-audit",
            MISMATCH,
            f"{len(rows) - matches} of {len(rows)} points disagree with {label}",
            witness=(
                f"point {bad.point}: derived |lambda| = {math.sqrt(bad.derived_sq):.9g} "
                f"(lambda^2 = {bad.derived_sq}), catalogued |lambda| = {math.sqrt(bad.claimed_sq):.9g} "
                f"(lambda^2 = {bad.claimed_sq})"
            ),
        )
    return rep, rows
