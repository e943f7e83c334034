"""Rank-2 Poisson bivectors from Casimir families by the determinant recipe.

For a model with Casimirs C_1..C_{2n-2} on an oriented chart, the bracket
of two coordinates is the determinant

    pi^{ij} = det( e_i | e_j | grad C_1 | ... | grad C_{2n-2} )

scaled by the chosen non-vanishing function k.  The orientation is the
coordinate volume in chart order on both source and target; a single
global sign (and, for the two kinds whose catalogued formulas absorb a
constant, a recorded positive scale) relates the raw determinant to the
catalogued expressions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from . import linalg
from .catalog import FibrationModel, critical_points_sample, random_noncritical_point
from .exterior import KVector, schouten, wedge
from .poly import IntegerKernel, Poly, Rational, integer_point
from .report import FAIL, MISMATCH, PASS, CheckReport
from .reference import claimed_bivector


@dataclass(frozen=True)
class PoissonBivector:
    """The bivector k * base on the model's chart."""

    model: FibrationModel
    k: Poly
    base: KVector  # degree 2, without the factor k

    @cached_property
    def pi(self) -> KVector:
        """The bivector itself, k * base."""
        return self.base.scale(self.k)

    def matrix_at(self, point: Sequence[Rational]) -> list[list[Fraction]]:
        return self.pi.coefficient_matrix(point)

    @cached_property
    def entry_kernel(self) -> IntegerKernel:
        """The entries pi^{ij}, i < j, in the order of ``pi.terms``, compiled for integer points."""
        return IntegerKernel(self.model.chart, list(self.pi.terms.values()))


def flaschka_ratiu(model: FibrationModel, k: Poly | Rational = 1) -> PoissonBivector:
    """The bivector with pi^{ij} given by the Casimir determinant, scaled by k.

    Every k shares the model's ``determinant_bivector`` as its base, expanded
    once per model; ``pi`` multiplies it by k when first read.
    """
    if not isinstance(k, Poly):
        k = model.chart.const(k)
    if k.is_zero():
        raise ValueError("scaling function k must be a nonzero polynomial")
    if len(model.casimirs) != 2 * model.n - 2:
        raise ValueError("Casimir count must be 2n-2")
    return PoissonBivector(model, k, model.determinant_bivector)


def casimir_annihilation(b: PoissonBivector) -> CheckReport:
    """pi^# dC_i = 0, exactly, for every Casimir of the model."""
    names = b.model.chart.geometric_names()
    for c_idx, cas in enumerate(b.model.casimirs):
        for name, residual in zip(names, foreign_casimir_residual(b, cas)):
            if not residual.is_zero():
                return CheckReport(
                    b.model.name,
                    "casimir",
                    FAIL,
                    f"pi^# dC_{c_idx + 1} has nonzero component {name}",
                    witness=str(residual),
                )
    return CheckReport(b.model.name, "casimir", PASS, f"{len(b.model.casimirs)} Casimirs annihilated exactly")


def foreign_casimir_residual(b: PoissonBivector, h: Poly) -> list[Poly]:
    """pi^# dh as a vector of polynomials (nonzero when h is not a Casimir)."""
    return _sharp(b.pi, h)


def _sharp(pi: KVector, h: Poly) -> list[Poly]:
    """(pi^# dh)^i = sum_j pi^{ij} d_j h, over the geometric coordinates."""
    chart = pi.chart
    grad = [h.differentiate(v) for v in chart.geometric_names()]
    return [sum((m * g for m, g in zip(row, grad)), chart.zero()) for row in pi.coefficient_matrix()]


def rank_at(b: PoissonBivector, point: Sequence[Rational]) -> int:
    return linalg.rank(b.matrix_at(point))


def _decomposable_rank_at(b: PoissonBivector, point: Sequence[Rational]) -> int:
    """``rank_at`` without elimination, for pi with pi^pi = 0 (rank <= 2).

    A skew matrix has even rank: 2 where some entry of pi is nonzero, 0
    where all vanish; the entries are read from ``entry_kernel``.
    """
    values, _ = b.entry_kernel(*integer_point(point))
    return 2 if any(values) else 0


@lru_cache(maxsize=64)
def _self_bracket(base: KVector) -> KVector:
    """[base, base], once per distinct bivector.

    Keyed by value, so a bivector made by hand never reads another's bracket;
    bounded, so a long process does not grow without limit.
    """
    return schouten(base, base)


def self_bracket(b: PoissonBivector) -> KVector:
    """[pi, pi] for pi = k base, as k^2 [base, base] + 2k base ^ base^#(dk), exactly.

    The identity is the Leibniz rule of the Schouten bracket in the
    convention of ``exterior.schouten``, so only [base, base] takes a
    bracket, and every k shares it.
    """
    base, k = b.base, b.k
    sharp_dk = KVector(base.chart, 1, {(i,): c for i, c in enumerate(_sharp(base, k))})
    return _self_bracket(base).scale(k * k) + wedge(base, sharp_dk).scale(2 * k)


def jacobi(b: PoissonBivector) -> CheckReport:
    """Schouten self-bracket vanishes exactly."""
    bracket = self_bracket(b)
    if bracket.is_zero():
        return CheckReport(b.model.name, "jacobi", PASS, f"[pi,pi] = 0 with k = {b.k}")
    return CheckReport(
        b.model.name,
        "jacobi",
        FAIL,
        f"[pi,pi] != 0 with k = {b.k}",
        witness=str(bracket),
    )


def decomposability(b: PoissonBivector) -> CheckReport:
    """pi ^ pi = 0 exactly; equivalent to rank <= 2 everywhere."""
    sq = wedge(b.pi, b.pi)
    if sq.is_zero():
        return CheckReport(b.model.name, "decomposable", PASS, "pi^pi = 0 identically")
    return CheckReport(b.model.name, "decomposable", FAIL, "pi^pi != 0", witness=str(sq))


@dataclass(frozen=True)
class BivectorMatch:
    model: FibrationModel
    sign: int  # sign applied to the raw result for the best agreement
    scale: Fraction
    mismatched: tuple[tuple[int, int], ...]
    normalized: KVector
    claimed: KVector

    @property
    def exact(self) -> bool:
        return not self.mismatched

    def report(self) -> CheckReport:
        name = self.model.name
        scale_note = "" if self.scale == 1 else f", scale {self.scale}"
        if self.exact:
            return CheckReport(
                name,
                "bivector-match",
                PASS,
                f"termwise equal to the catalogued formula (global sign {self.sign:+d}{scale_note})",
            )
        chart = self.model.chart
        names = chart.names
        parts = []
        for i, j in self.mismatched:
            got = self.normalized.coeff((i, j))
            want = self.claimed.coeff((i, j))
            parts.append(f"e{names[i]}^e{names[j]}: derived {got} vs catalogued {want}")
        return CheckReport(
            name,
            "bivector-match",
            MISMATCH,
            f"{len(self.mismatched)} term(s) differ (best global sign {self.sign:+d}{scale_note})",
            witness="; ".join(parts),
        )


def match_claimed_bivector(model: FibrationModel) -> BivectorMatch:
    """Compare the raw determinant bivector (k = 1) against the catalogued formula.

    The raw result is divided by the model's recorded scale, then compared
    termwise under both global signs; the sign with fewer differing terms
    wins and any leftover differences are reported per term.
    """
    claimed = claimed_bivector(model)
    normalized = flaschka_ratiu(model, 1).pi.scale(Fraction(1) / model.claimed_scale)

    def mismatches(candidate: KVector) -> list[tuple[int, int]]:
        keys = set(candidate.terms) | set(claimed.terms)
        return sorted(k for k in keys if candidate.coeff(k) != claimed.coeff(k))

    plus = mismatches(normalized)
    minus = mismatches(-normalized)
    if len(minus) < len(plus):
        sign, picked, bad = -1, -normalized, minus
    else:
        sign, picked, bad = 1, normalized, plus
    return BivectorMatch(model, sign, model.claimed_scale, tuple(bad), picked, claimed)


def rank_stratification(model: FibrationModel, samples: int, rng: random.Random) -> CheckReport:
    """Rank 2 at random non-critical points, rank 0 at sampled critical points (k = 1).

    Rank <= 2 is proved once, everywhere, by pi^pi = 0; the rank at each
    point is then read from the entries of pi, without elimination.
    """
    b = flaschka_ratiu(model, 1)
    proof = decomposability(b)
    if proof.status != PASS:
        return CheckReport(model.name, "rank", FAIL, "pi^pi != 0, so rank <= 2 fails", witness=proof.witness)
    for _ in range(samples):
        p = random_noncritical_point(model, rng)
        r = _decomposable_rank_at(b, p)
        if r != 2:
            return CheckReport(
                model.name, "rank", FAIL, f"rank {r} != 2 at non-critical point", witness=str(p)
            )
    for p in critical_points_sample(model, samples, rng):
        r = _decomposable_rank_at(b, p)
        if r != 0:
            return CheckReport(
                model.name, "rank", FAIL, f"rank {r} != 0 at critical point", witness=str(p)
            )
    return CheckReport(
        model.name,
        "rank",
        PASS,
        f"rank 2 at {samples} non-critical and 0 at {samples} critical points",
    )
