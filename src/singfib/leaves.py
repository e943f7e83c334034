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

Each point stays in integers from start to end.  The sampler draws it
as q = Q / D (``poly.IntegerPoint``), Fractions of q are built only for a
record that prints it, and ``leaf-relations`` reads one integer kernel per
drawn point (``leaf_kernel``, drawn through ``catalog.noncritical_sample``),
compiled once per check: the critical equations, which reject a critical
draw, then the kept gradient rows on the free columns N, then the entries
of pi, all as positive integer multiples of their values.  A coordinate
Casimir's row is a unit vector e_a, which only pins x_a = 0
(``FibrationModel.casimir_split``).  The symplectic leaves of a rank-2
pi = k pi_0 are the Casimir fibres, so the leaf plane is the image of pi(q)
itself (pi_0 the determinant bivector *(dC_1 ^ ... ^ dC_{2n-2}),
Damianou-Petalidou, Canad. J. Math. 2012), and the frame needs no
elimination: u is pi(q) e_f' and v = pi(q) u, the frame an elimination and
one integer Gram-Schmidt step would give.  ``leaf-relations`` checks that
frame against the gradient rows, so a pi whose image leaves the leaf plane
fails tangency.  Nor do alpha and beta need an elimination: a skew pi(q) of
rank 2 whose image is span(u, v), with u orthogonal to v, sends v to rho * u
and u to sigma * v.  With P = d * pi(q) the integer matrix the kernel read,
alpha = (d / rho) v and beta = (d / sigma) u; both proportionalities are
checked in every component by cross-multiplication, and a pi(q) of rank
above 2 fails one of them or the lambda^2 identity below.

The closed form (``audit_leaf_formulas``, run by ``leaf-audit``) uses
that a rank-2 bivector is pi = |pi| u^v in an orthonormal leaf frame, so
lambda^2 = 1 / sum_{i<j} (pi^{ij})^2 at every non-critical point.  The
frame derivation checks exactly that identity at each of its points,
which ties the two derivations together.  The audit reads one kernel per
drawn point too: the critical equations, the entries of pi, and the
claim's num and den factors.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg
from .catalog import FibrationModel, noncritical_kernel, noncritical_sample
from .poisson import PoissonBivector, flaschka_ratiu
from .poly import IntegerKernel, IntegerPoint, Rational
from .report import FAIL, MISMATCH, PASS, CheckReport
from .reference import leaf_claim


class SingularPoint(ValueError):
    """Raised when a leaf-frame is requested on the critical locus."""


@dataclass(frozen=True)
class LeafFrame:
    """Orthogonal leaf-tangent pair with exact squared-norm certificates."""

    #: primitive integer vectors in the image of pi(q): u is pi(q) e_f' with u[f] > 0, for f < f' the last
    #: key of pi's terms with pi^{ff'}(q) != 0, and v is pi(q) u with v[f'] > 0
    u: tuple[int, ...]
    v: tuple[int, ...]
    u_norm_sq: int
    v_norm_sq: int
    #: the kept (non-coordinate) Casimir gradients at the point on the free columns N
    #: (``FibrationModel.casimir_split``), one row per kept Casimir, all times one positive integer
    gradients: tuple[tuple[int, ...], ...]


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(operator.mul, a, b))


def _skew_apply(keys: Iterable[tuple[int, ...]], entries: Sequence[int], x: Sequence[int]) -> list[int]:
    """P . x for the skew matrix with P[i][j] = -P[j][i] = entry, one entry per key (i, j)."""
    out = [0] * len(x)
    for (i, j), e in zip(keys, entries):
        out[i] += e * x[j]
        out[j] -= e * x[i]
    return out


def leaf_kernel(b: PoissonBivector) -> IntegerKernel:
    """The one kernel ``leaf-relations`` reads per drawn point (``catalog.noncritical_sample``).

    The critical equations, then the kept gradient rows on the free
    columns N, row after row, then the entries of pi in the order of
    ``b.pi.terms``.
    """
    model = b.model
    _, rows, free = model.casimir_split
    grads = [model.casimir_gradients[k][a] for k in rows for a in free]
    return noncritical_kernel(model, [*grads, *b.pi.terms.values()])


def leaf_frame(b: PoissonBivector, q: IntegerPoint, values: Sequence[int]) -> LeafFrame:
    """Two orthogonal spanning vectors of the image of pi(q), from one read of ``leaf_kernel(b)`` at q.

    ``values`` are the kernel's values past the critical rows, as
    ``noncritical_sample`` returns them, all times one positive integer.
    q only names the point in the message of ``SingularPoint``, raised
    where pi(q) = 0.
    """
    free = b.model.casimir_split.free
    width = len(free)
    size = width * len(b.model.casimir_split.rows)
    rows = tuple(tuple(values[r : r + width]) for r in range(0, size, width))
    # P = d * pi(q), d > 0, one entry per key
    keys, entries = b.pi.terms, values[size:]
    pairs = [ij for ij, e in zip(keys, entries) if e]
    if not pairs:
        raise SingularPoint(
            f"Casimir differentials drop rank at {tuple(q.fractions())}: "
            f"kernel dimension {width - linalg.rank(rows)}"
        )
    f, g = pairs[-1]
    # u = P e_f' has u[f] = P[f][f'] != 0 and u[f'] = 0; v = P u is in the image too and orthogonal to u
    e = [0] * b.model.chart.n_geom
    e[g] = 1
    u = linalg.primitive(_skew_apply(keys, entries, e))
    if u[f] < 0:
        u = [-x for x in u]
    v = linalg.primitive(_skew_apply(keys, entries, u))
    if v[g] < 0:
        v = [-x for x in v]
    return LeafFrame(tuple(u), tuple(v), _dot(u, u), _dot(v, v), rows)


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
    """lambda with omega_leaf = lambda * omega_area, for the oriented frame (u, v).

    The two pairings are held as integers (numerator, nonzero denominator);
    a Fraction is built only when a property reads one.
    """

    frame: LeafFrame
    uv: tuple[int, int]  # <alpha_raw, v_raw>
    vu: tuple[int, int]  # <beta_raw, u_raw>

    @property
    def pairing_uv(self) -> Fraction:
        return Fraction(*self.uv)

    @property
    def pairing_vu(self) -> Fraction:
        return Fraction(*self.vu)

    @property
    def value_sq(self) -> Fraction:
        return self.pairing_uv**2 / (self.frame.u_norm_sq * self.frame.v_norm_sq)

    @property
    def pairing_antisymmetric(self) -> bool:
        (a, b), (c, d) = self.uv, self.vu
        return a * d == -c * b


def _multiplier(y: Sequence[int], x: Sequence[int], what: str) -> tuple[int, int]:
    """(a, c) with y = (a / c) * x and a != 0, checked in every component by cross-multiplication."""
    i = next(i for i, xi in enumerate(x) if xi)
    a, c = y[i], x[i]
    if not a or any(yj * c != a * xj for yj, xj in zip(y, x)):
        raise linalg.InconsistentSystem(f"pi(q) does not map the leaf plane onto itself: {what}")
    return a, c


def leaf_coefficient(b: PoissonBivector, q: IntegerPoint, values: Sequence[int], scale: int) -> LeafCoefficient:
    """lambda of b at q from the closed-form solutions of pi . alpha = u and pi . beta = v.

    Takes the one read of ``leaf_kernel(b)`` that ``leaf_frame`` takes, and
    reads pi(q) from the same entries.  A rank-2 pi(q) whose image is
    span(u, v) sends v to a nonzero multiple rho u and u to a nonzero
    multiple sigma v; InconsistentSystem is raised where it does not, and
    where lambda^2 differs from 1 / sum_{i<j} (pi^{ij})^2 (a pi of rank
    above 2).
    """
    frame = leaf_frame(b, q, values)
    u, v, uu, vv = frame.u, frame.v, frame.u_norm_sq, frame.v_norm_sq
    # P = scale * pi(q), one entry per key of pi, past the gradient rows: P.v = rho * u and P.u = sigma * v,
    # rho = a / c and sigma = e / f
    keys = b.pi.terms
    entries = values[len(values) - len(keys) :]
    a, c = _multiplier(_skew_apply(keys, entries, v), u, "pi.v is not a nonzero multiple of u")
    e, f = _multiplier(_skew_apply(keys, entries, u), v, "pi.u is not a nonzero multiple of v")
    # alpha = (d / rho) v and beta = (d / sigma) u with d = scale, so <alpha, v> = d |v|^2 / rho and
    # <beta, u> = d |u|^2 / sigma; lambda^2 = <alpha, v>^2 / (|u|^2 |v|^2) = 1 / sum_{i<j} (pi^{ij})^2
    if vv * c * c * _dot(entries, entries) != uu * a * a:
        raise linalg.InconsistentSystem("lambda^2 differs from 1 / sum_{i<j} (pi^{ij})^2")
    return LeafCoefficient(frame, (scale * vv * c, a), (scale * uu * f, e))


def defining_relations_check(model: FibrationModel, samples: int, rng: random.Random) -> CheckReport:
    """pi.alpha = u, pi.beta = v and <alpha,v> + <beta,u> = 0, exactly, at random points (k = 1)."""
    bivector = flaschka_ratiu(model, 1)
    kernel = leaf_kernel(bivector)
    units = [a for a in model.casimir_split.units if a is not None]
    free = model.casimir_split.free
    for _ in range(samples):
        q, values, scale = noncritical_sample(model, kernel, rng)
        try:
            coeff = leaf_coefficient(bivector, q, values, scale)
        except (SingularPoint, linalg.InconsistentSystem) as exc:
            return CheckReport(model.name, "leaf-relations", FAIL, str(exc), witness=str(q.fractions()))
        if not coeff.pairing_antisymmetric:
            return CheckReport(
                model.name,
                "leaf-relations",
                FAIL,
                "<alpha,v> != -<beta,u>",
                witness=str(q.fractions()),
            )
        frame = coeff.frame
        # a coordinate Casimir's row is a unit e_a with a not in N, so u and v are tangent to it when
        # they vanish at a; the kept rows on N decide tangency to the others
        u, v = ([x[a] for a in free] for x in (frame.u, frame.v))
        if any(frame.u[a] or frame.v[a] for a in units) or any(
            _dot(grad, u) or _dot(grad, v) for grad in frame.gradients
        ):
            return CheckReport(
                model.name, "leaf-relations", FAIL, "frame not Casimir-tangent", witness=str(q.fractions())
            )
    return CheckReport(
        model.name,
        "leaf-relations",
        PASS,
        f"defining relations exact at {samples} points (k = 1)",
    )


@dataclass(frozen=True)
class LeafAuditRow:
    """lambda^2 derived and claimed at one point, each as integers (numerator, nonzero denominator)."""

    point: IntegerPoint
    derived: tuple[int, int]
    claimed: tuple[int, int]

    @property
    def derived_sq(self) -> Fraction:
        return Fraction(*self.derived)

    @property
    def claimed_sq(self) -> Fraction:
        return Fraction(*self.claimed)

    @property
    def match(self) -> bool:
        (a, b), (c, d) = self.derived, self.claimed
        return a * d == c * b


def audit_leaf_formulas(
    model: FibrationModel, samples: int, rng: random.Random
) -> tuple[CheckReport, list[LeafAuditRow]]:
    """Compare the closed-form leaf coefficient against the catalogued one.

    Each row takes lambda^2 = 1 / sum_{i<j} (pi^{ij}(q))^2 from the
    entries of pi at the point (no frame; ``leaf_coefficient`` checks this
    identity wherever it runs), and the claimed lambda^2 from num and den's
    factors, all read by the one kernel the sampler evaluates to reject a
    critical point (``catalog.noncritical_sample``).  The comparison is exact on
    squares (both sides are rational numbers, held as integer numerator
    and denominator and compared by cross-multiplication), which is
    strictly finer than any floating-point tolerance; the floats in the
    witness are only renderings.  Points where either side has a zero
    denominator are skipped.
    Each row keeps its point as drawn, an IntegerPoint.
    """
    rows: list[LeafAuditRow] = []
    claim = leaf_claim(model)
    # the claimed formulas belong to the catalogued bivector, which is the
    # raw construction divided by the recorded scale; lambda scales inversely
    scale_sq = model.claimed_scale**2
    entries = list(flaschka_ratiu(model, 1).pi.terms.values())
    k = len(entries)
    kernel = noncritical_kernel(model, [*entries, claim.num, *claim.den])
    attempts = 0
    while len(rows) < samples and attempts < samples * 50:
        attempts += 1
        q, values, scale = noncritical_sample(model, kernel, rng)
        claimed = claim.sq_ratio(values[k:], scale)
        if not claimed[1]:
            continue
        # the kernel gives scale * pi^{ij}(q), so sum (pi^{ij})^2 = sum (values)^2 / scale^2
        norm_sq = _dot(values[:k], values[:k])
        if not norm_sq:
            continue
        rows.append(LeafAuditRow(q, (scale_sq.numerator * scale * scale, scale_sq.denominator * norm_sq), claimed))
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
                f"point {tuple(bad.point.fractions())}: derived |lambda| = {math.sqrt(bad.derived_sq):.9g} "
                f"(lambda^2 = {bad.derived_sq}), catalogued |lambda| = {math.sqrt(bad.claimed_sq):.9g} "
                f"(lambda^2 = {bad.claimed_sq})"
            ),
        )
    return rep, rows
