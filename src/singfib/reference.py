"""Catalogued closed-form expressions that the engine re-derives and audits.

Everything in this module is a *claim*: bivector formulas for each local
model, leaf symplectic-form coefficients, assembled near-symplectic
2-forms with their correction terms, and the cleared fibre-positivity
numerators.  The engine never assumes these are right; it derives the
same objects from first principles and reports exact agreement or a
per-term mismatch.

Conventions here:
  - bivector claims are written in the basis order in which they are
    catalogued (the antisymmetric constructors fix the signs);
  - every leaf-coefficient claim is lambda^2 = num^2 / prod(den), stored
    as num and the factors of den, so comparisons stay in Q;
  - a model's raw determinant construction equals
    ``claimed_scale * (global sign) * claim``; the recorded scales are 2
    for fold-2n and 4 for the Lefschetz-type chart, else 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .catalog import DIM6_KINDS, FibrationModel, deformation_symbol
from .exterior import KForm, KVector, form_term, vector_term
from .poly import Chart, IntegerKernel, Point, Poly, Rational, integer_point

# -- claimed Poisson bivectors ----------------------------------------------------


def claimed_bivector(model: FibrationModel) -> KVector:
    """The catalogued bivector formula for this model kind, with k = 1."""
    chart = model.chart
    kind = model.kind
    n = model.n
    x1, x2, x3 = chart.var("x1"), chart.var("x2"), chart.var("x3")
    t = chart.var(f"t{2 * n - 3}")

    def v(coeff: Poly | Rational, *names: str) -> KVector:
        return vector_term(chart, coeff, names)

    if kind in DIM6_KINDS:
        t1 = chart.var("t1")
        variant = kind.split("-")[1] if "-" in kind else "indef"
        if kind.startswith("fold"):
            third = {"indef": -2 * x1, "def1": 2 * x1, "def2": 2 * x1}[variant]
            first_sign, second_sign = {"indef": (1, -1), "def1": (1, -1), "def2": (-1, 1)}[variant]
        else:
            if kind.startswith("cusp"):
                third = 3 * (x1 * x1 - t1)
            elif kind.startswith("swallowtail"):
                t2 = chart.var("t2")
                third = 4 * x1**3 + 2 * t1 * x1 + t2
            else:
                t2, t3 = chart.var("t2"), chart.var("t3")
                third = 5 * x1**4 + 3 * t1 * x1**2 + 2 * t2 * x1 + t3
            first_sign, second_sign = {"indef": (-1, -1), "def1": (1, -1), "def2": (-1, 1)}[variant]
        return (
            v(first_sign * 2 * x3, "x2", "x1")
            + v(second_sign * 2 * x2, "x3", "x1")
            + v(third, "x3", "x2")
        )

    if kind == "fold-2n":
        return v(x1, "x2", "x3") + v(x2, "x1", "x3") + v(-x3, "x1", "x2")
    if kind == "lefschetz":
        tn = f"t{2 * n - 3}"
        return (
            v(x2 * x2 + x3 * x3, tn, "x1")
            + v(x1 * x2 - t * x3, tn, "x2")
            + v(-(t * x2 + x1 * x3), tn, "x3")
            + v(t * x2 + x1 * x3, "x1", "x2")
            + v(x1 * x2 - t * x3, "x1", "x3")
            + v(t * t + x1 * x1, "x2", "x3")
        )

    s = deformation_symbol(chart, model.param)
    if kind in ("b_s", "m_s", "f_s"):
        if kind == "b_s":
            third = -3 * (s - t * t + x1 * x1)
        elif kind == "m_s":
            third = -3 * (s - t * t - x1 * x1)
        else:
            third = -(t - 2 * s * x1 + 4 * x1**3)
        return v(2 * x3, "x1", "x2") + v(2 * x2, "x1", "x3") + v(third, "x2", "x3")
    if kind == "w_s":
        tn = f"t{2 * n - 3}"
        return (
            v(-2 * s * x2 - 4 * t * x2 - 4 * x1 * x3, "x1", "x2")
            + v(-4 * x1 * x2 + 2 * s * x3 + 4 * t * x3, "x1", "x3")
            + v(4 * x2 * x2 + 4 * x3 * x3, "x1", tn)
            + v(-(2 * s * t + 4 * t * t + 4 * x1 * x1), "x2", "x3")
            + v(4 * (x1 * x2 - t * x3), "x2", tn)
            + v(-4 * (t * x2 + x1 * x3), "x3", tn)
        )
    raise ValueError(f"no catalogued bivector for kind {kind!r}")


# -- claimed leaf symplectic coefficients ------------------------------------------


@dataclass(frozen=True)
class LeafClaim:
    """Claimed leaf coefficient at k = 1, as lambda^2 = num^2 / prod(den).

    The denominator is kept as its factors, each evaluated on its own, so
    a large product (the w_s claim) is never expanded.  num and the factors
    are read from one integer kernel, compiled on first use.
    """

    text: str
    num: Poly
    den: tuple[Poly, ...]

    @cached_property
    def kernel(self) -> IntegerKernel:
        return IntegerKernel(self.num.chart, [self.num, *self.den])

    @staticmethod
    def sq_ratio(values: Sequence[int], scale: int) -> tuple[int, int]:
        """``value_sq_ratio`` from num's and each den factor's value, all times scale, as a kernel gives them."""
        v0, *factors = values
        # num^2 / prod(den) = v0^2 scale^(m-2) / prod(factors) for m factors
        m = len(factors)
        return v0 * v0 * scale ** max(m - 2, 0), math.prod(factors) * scale ** max(2 - m, 0)

    def value_sq_ratio(self, point: Point) -> tuple[int, int]:
        """lambda^2 at the point as integers (numerator, denominator); 0 denominator where a factor of den vanishes."""
        return self.sq_ratio(*self.kernel(*integer_point(point)))

    def value_sq(self, point: Point) -> Fraction:
        """lambda^2 at the point; ZeroDivisionError where a factor of den vanishes."""
        return Fraction(*self.value_sq_ratio(point))


def _claim(num: Poly, den: Poly) -> LeafClaim:
    """The claim lambda = num / sqrt(den)."""
    return LeafClaim(f"({num}) / sqrt({den})", num, (den,))


def leaf_claim(model: FibrationModel) -> LeafClaim:
    chart = model.chart
    kind = model.kind
    n = model.n
    x1, x2, x3 = chart.var("x1"), chart.var("x2"), chart.var("x3")
    t = chart.var(f"t{2 * n - 3}")

    if kind in ("fold", "fold-def2"):
        return _claim(x1 * x1, 4 * (x1 * x1 + x3 * x3))
    if kind == "fold-def1":
        return _claim(-(x1 * x1), 4 * (x1 * x1 + x3 * x3))
    if kind.startswith("cusp"):
        t1 = chart.var("t1")
        return _claim(3 * x2 * (t1 - x1 * x1), 9 * (t1 - x1 * x1) ** 2 + 4 * x3 * x3)
    if kind.startswith("swallowtail"):
        t1, t2 = chart.var("t1"), chart.var("t2")
        w = t2 + 2 * t1 * x1 + 4 * x1**3
        return _claim(-w, w * w + 4 * x3 * x3)
    if kind.startswith("butterfly"):
        t1, t2, t3 = chart.var("t1"), chart.var("t2"), chart.var("t3")
        w = t3 + x1 * (2 * t2 + 3 * t1 * x1 + 5 * x1**3)
        return _claim(-w, w * w + 4 * x3 * x3)
    if kind == "fold-2n":
        return _claim(chart.one(), x1 * x1 + x2 * x2 + x3 * x3)
    if kind == "lefschetz":
        r = t * t + x1 * x1 + x2 * x2 + x3 * x3
        return _claim(chart.one(), r * r)

    s = deformation_symbol(chart, model.param)
    if kind in ("b_s", "m_s", "f_s"):
        if kind == "b_s":
            a, sign, c = s - t * t + x1 * x1, 1, 9
        elif kind == "m_s":
            a, sign, c = s - t * t - x1 * x1, -1, 9
        else:
            a, sign, c = t - 2 * s * x1 + 4 * x1**3, 1, 1
        return _claim(sign * a, a * a * (c * a * a + 4 * (x2 * x2 + x3 * x3)))
    if kind == "w_s":
        # lambda = (b * S) / (2 mu sqrt(s_den)) with S = s_num / s_den, and
        # mu^2 given as the product b^2 * mu_a * mu_b
        b = t * x2 + x1 * x3
        s_num = (s * t + 2 * (t * t + x1 * x1)) ** 2 + (x3 * (s + 2 * t) - 2 * x1 * x2) ** 2 + 4 * b
        s_den = (s * t + 2 * (t * t + x1 * x1)) ** 2 + (x3 * (s + 2 * t) - 2 * x1 * x2) ** 2 + 4 * b * b
        r2 = t * t + x1 * x1 + x2 * x2 + x3 * x3
        mu_a = s * s * (t * t + x2 * x2 + x3 * x3) + 4 * s * t * r2 + 4 * r2 * r2
        mu_b = (
            s * s * (t * t + x3 * x3)
            + 4 * (t * t + x1 * x1) * r2
            + 4 * s * (t**3 - x1 * x2 * x3 + t * (x1 * x1 + x3 * x3))
        )
        return LeafClaim("w_s mu-expression", b * s_num, (4 * b * b, mu_a, mu_b, s_den))
    raise ValueError(f"no catalogued leaf formula for kind {kind!r}")


# the benchmark's per-layer trace still names this function
def ws_leaf_claim_sq(claim: LeafClaim, point: Point) -> Fraction:
    return claim.value_sq(point)


# -- claimed near-symplectic data ---------------------------------------------------

#: chart for the near-symplectic constructions; the scale symbol is a parameter.
NS_CHART_EPS = Chart(("u", "s", "t", "x", "y", "z", "eps"), n_geom=6)

NS_KINDS = ("fold", "cusp", "swallowtail", "butterfly")


def _f(coeff: Poly | Rational, *names: str) -> KForm:
    return form_term(NS_CHART_EPS, coeff, names)


def _vars() -> tuple[Poly, ...]:
    c = NS_CHART_EPS
    return tuple(c.var(n) for n in ("u", "s", "t", "x", "y", "z", "eps"))


def claimed_correction(kind: str) -> KForm:
    """The catalogued correction 2-form eta for each singularity kind."""
    u, s, t, x, y, z, eps = _vars()
    if kind == "fold":
        return KForm(NS_CHART_EPS, 2, {})
    if kind == "cusp":
        return _f(-6 * x * y, "z", "y") + _f(-3 * y, "t", "x")
    if kind == "swallowtail":
        return (
            _f(-2 * z, "t", "y")
            + _f((12 * x * x - 2 * s) * y, "z", "x")
            + _f(-y, "t", "z")
            + _f((12 * x * x - 2 * s) * (-2 * z), "x", "y")
            + _f(-(x * x), "t", "s")
            + _f(-2 * y * z, "s", "x")
            + _f(2 * x * z, "s", "y")
        )
    if kind == "butterfly":
        p = -10 * x**3 + 3 * u * x - s
        return (
            _f(p * 4 * z, "x", "y")
            + _f(p * 2 * y, "x", "z")
            + _f(6 * x * x - 3 * x * x * y, "u", "z")
            + _f(y, "t", "z")
            + _f(2 * z, "t", "y")
            + _f(-2 * x * y, "s", "z")
            + _f(-4 * x * z, "s", "y")
        )
    raise ValueError(f"no catalogued correction for kind {kind!r}")


def claimed_assembled_form(kind: str) -> KForm:
    """The catalogued assembled near-symplectic 2-form for each kind.

    The wedge factor printed alongside the leading coefficient is read in
    the self-dual basis (dt^dx + dy^dz) throughout.
    """
    u, s, t, x, y, z, eps = _vars()

    def base(w_coeff: Poly) -> KForm:
        return (
            _f(1, "u", "s")
            + _f(w_coeff, "t", "x")
            + _f(w_coeff, "y", "z")
            + _f(2 * y, "t", "y")
            + _f(-2 * y, "x", "z")
            + _f(-2 * z, "t", "z")
            + _f(-2 * z, "x", "y")
        )

    if kind == "fold":
        return (
            _f(1, "u", "s")
            + _f(x, "t", "x") + _f(x, "y", "z")
            + _f(y, "t", "y") + _f(y, "z", "x")
            + _f(-2 * z, "t", "z") + _f(-2 * z, "x", "y")
        )
    if kind == "cusp":
        return base(3 * eps * (x * x - t)) + _f(-6 * eps * x * y, "z", "x") + _f(-3 * eps * y, "t", "z")
    if kind == "swallowtail":
        w = 4 * x**3 + 2 * s * x + t
        return base(eps * w) + claimed_correction(kind).scale(eps)
    if kind == "butterfly":
        w = 5 * x**4 - 3 * u * x * x + 2 * s * x - t
        return (
            base(eps * w)
            + _f(-eps * x**3, "t", "u")
            + _f(eps * x * x, "t", "s")
            + claimed_correction(kind).scale(eps)
        )
    raise ValueError(f"no catalogued assembled form for kind {kind!r}")


def claimed_fibre_numerator(kind: str) -> Poly:
    """Catalogued cleared numerator of omega(v1, v2) on the fibre frame."""
    u, s, t, x, y, z, eps = _vars()
    if kind == "cusp":
        return 3 * eps * (x * x - t) ** 2 + 4 * y * y * (1 - 3 * eps * x) + 4 * z * z
    if kind == "swallowtail":
        w = 4 * x**3 + 2 * s * x + t
        p = 12 * x * x - 2 * s
        return eps * w * w + 2 * y * y * (eps * p + 2) + 4 * z * z * (eps * p + 1)
    if kind == "butterfly":
        w = 5 * x**4 - 3 * u * x * x + 2 * s * x - t
        p = -10 * x**3 - 3 * u * x - s
        return eps * w * w + 4 * y * y * (1 + eps * p) + 4 * z * z * (1 + eps * p)
    raise ValueError(f"no catalogued fibre numerator for kind {kind!r}")
