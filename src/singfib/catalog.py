"""Local models of singular fibrations ``R^{2n} -> R^{2n-2}``.

A model is its Casimir list, which is the polynomial map's component
functions (real and imaginary parts for the complex Lefschetz-type charts),
plus the equations cutting out its critical locus; a sampler produces exact
rational points on that locus.

Every indefinite kind accepts any half-dimension n >= 3 (they are the
type-2n families); the definite variants are catalogued in dimension 6
only.  A deformation parameter defaults to a symbolic chart parameter
named ``s_par`` and can be pinned to a rational instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from typing import Sequence

from . import linalg
from .poly import Chart, IntegerKernel, Poly, Rational, chart_2n

PARAM_NAME = "s_par"

DIM6_KINDS = (
    "fold",
    "fold-def1",
    "fold-def2",
    "cusp",
    "cusp-def1",
    "cusp-def2",
    "swallowtail",
    "swallowtail-def1",
    "swallowtail-def2",
    "butterfly",
    "butterfly-def1",
    "butterfly-def2",
)
PARAMETRIC_KINDS = ("lefschetz", "fold-2n", "b_s", "m_s", "f_s", "w_s")
DEFORMATION_KINDS = ("b_s", "m_s", "f_s", "w_s")
ALL_KINDS = DIM6_KINDS + PARAMETRIC_KINDS


class ModelError(ValueError):
    """A kind, half-dimension or parameter that :func:`get_model` cannot build."""


class UnknownKind(ModelError):
    pass


@dataclass(frozen=True)
class FibrationModel:
    name: str
    kind: str
    n: int
    chart: Chart
    #: the map's component functions, which are the Casimirs of its bivectors
    casimirs: tuple[Poly, ...]
    critical_locus: tuple[Poly, ...]
    #: raw-construction bivector = claimed_scale * (claimed sign) * catalogued formula
    claimed_scale: Fraction = Fraction(1)
    param: Fraction | None = None

    @property
    def dim(self) -> int:
        return 2 * self.n

    @cached_property
    def casimir_gradients(self) -> tuple[tuple[Poly, ...], ...]:
        """The Jacobian: partials of each Casimir in the geometric variables, differentiated once per model."""
        names = self.chart.geometric_names()
        return tuple(tuple(c.differentiate(v) for v in names) for c in self.casimirs)

    @cached_property
    def gradient_kernel(self) -> IntegerKernel:
        """``casimir_gradients`` row after row, compiled once per model for integer points."""
        return IntegerKernel(self.chart, [g for row in self.casimir_gradients for g in row])

    @cached_property
    def casimir_determinants(self) -> dict[tuple[int, int], Poly]:
        """The nonzero det(e_i | e_j | grad C_1 | ... | grad C_{2n-2}), i < j, expanded once per model."""
        ng = self.chart.n_geom
        zero, one = self.chart.zero(), self.chart.one()
        dets: dict[tuple[int, int], Poly] = {}
        for i in range(ng):
            for j in range(i + 1, ng):
                unit_i = [one if r == i else zero for r in range(ng)]
                unit_j = [one if r == j else zero for r in range(ng)]
                cols = [unit_i, unit_j, *self.casimir_gradients]
                det = linalg.poly_det([[col[r] for col in cols] for r in range(ng)])
                if not det.is_zero():
                    dets[(i, j)] = det
        return dets

    def is_critical(self, point: Sequence[Rational]) -> bool:
        return all(eq.evaluate(point) == 0 for eq in self.critical_locus)


def deformation_symbol(chart: Chart, param: Fraction | None) -> Poly:
    """The deformation parameter s: the pinned rational, or the chart parameter ``s_par``."""
    return chart.const(param) if param is not None else chart.var(PARAM_NAME)


def get_model(kind: str, n: int = 3, param: Rational | None = None) -> FibrationModel:
    """The shared model for (kind, n, param), built once per process.

    The cache key is the full triple, whatever form the call takes, so
    ``get_model(k)``, ``get_model(k, 3)`` and ``get_model(k, 3, None)`` are
    one object and every check shares its gradients and determinants.
    Invalid arguments raise on every call (exceptions are not cached).
    """
    return _shared_model(kind, n, param)


def build_model(kind: str, n: int = 3, param: Rational | None = None) -> FibrationModel:
    """Build a fresh, fully populated model; dim-6 kinds require n = 3.

    The Casimirs are the coordinates t_1, t_2, ... followed by the one or
    two components that carry the singularity.
    """
    if kind not in ALL_KINDS:
        raise UnknownKind(f"unknown model kind {kind!r}")
    if n < 3:
        raise ModelError("half-dimension n must be at least 3")
    # the indefinite fold/cusp/swallowtail/butterfly are the type-2n family;
    # the definite variants are catalogued in dimension 6 only
    if "-def" in kind and n != 3:
        raise ModelError(f"kind {kind!r} is a dim-6 model; use n=3")
    if kind in DEFORMATION_KINDS:
        params = () if param is not None else (PARAM_NAME,)
        chart = chart_2n(n, params)
        pf = Fraction(param) if param is not None else None
        s = deformation_symbol(chart, pf)
    else:
        if param is not None:
            raise ModelError(f"kind {kind!r} takes no deformation parameter")
        chart = chart_2n(n)
        pf = None

    t1, t2, t3 = chart.var("t1"), chart.var("t2"), chart.var("t3")
    t_last = chart.var(f"t{2 * n - 3}")
    x1, x2, x3 = chart.var("x1"), chart.var("x2"), chart.var("x3")
    sq = x2 * x2 - x3 * x3
    family, _, variant = kind.partition("-")
    scale = Fraction(1)

    if family in ("cusp", "swallowtail", "butterfly"):
        if family == "cusp":
            core = x1**3 - 3 * t1 * x1
        elif family == "swallowtail":
            core = x1**4 + t1 * x1**2 + t2 * x1
        else:
            core = x1**5 + t1 * x1**3 + t2 * x1**2 + t3 * x1
        tail = {"": sq, "def1": x2 * x2 + x3 * x3, "def2": -(x2 * x2 + x3 * x3)}[variant]
        last = (core + tail,)
        critical = (core.differentiate("x1"), x2, x3)
    elif family == "fold":
        signs = {
            "": (-1, 1, 1),
            "2n": (-1, 1, 1),
            "def1": (1, 1, 1),
            # second definite variant: opposite definite sign (the matrix
            # catalogued for it differentiates -x1^2-x2^2-x3^2)
            "def2": (-1, -1, -1),
        }[variant]
        last = (x1 * x1 * signs[0] + x2 * x2 * signs[1] + x3 * x3 * signs[2],)
        critical = (x1, x2, x3)
        if kind == "fold-2n":
            scale = Fraction(2)
    elif kind in ("lefschetz", "w_s"):
        # z_{n-1} = t_{2n-3} + i x1, z_n = x2 + i x3; earlier complex
        # coordinates are t_{2j-1} + i t_{2j} so their Re/Im parts are the
        # coordinate Casimirs t_1..t_{2n-4}.  w_s adds s t to the real part.
        c_re = t_last * t_last - x1 * x1 + sq
        if kind == "w_s":
            c_re = c_re + s * t_last
            # rank drops exactly on {x2 = x3 = 0, 2t^2 + s t + 2x1^2 = 0}
            critical = (x2, x3, 2 * t_last * t_last + s * t_last + 2 * x1 * x1)
        else:
            critical = (t_last, x1, x2, x3)
            scale = Fraction(4)
        last = (c_re, 2 * t_last * x1 + 2 * x2 * x3)
    else:
        if kind == "b_s":
            f4 = x1**3 - 3 * x1 * (t_last * t_last - s) + sq
        elif kind == "m_s":
            f4 = x1**3 - 3 * x1 * (s - t_last * t_last) + sq
        else:
            f4 = x1**4 - x1**2 * s + x1 * t_last + sq
        last = (f4,)
        critical = (f4.differentiate("x1"), x2, x3)

    coords = tuple(chart.var(f"t{i}") for i in range(1, 2 * n - 1 - len(last)))
    return FibrationModel(
        name=f"{kind}(n={n})",
        kind=kind,
        n=n,
        chart=chart,
        casimirs=coords + last,
        critical_locus=critical,
        claimed_scale=scale,
        param=pf,
    )


_shared_model = cache(build_model)


# -- critical point sampling -------------------------------------------------


@cache
def _rationals(bound: int, den: int) -> tuple[tuple[Fraction, ...], ...]:
    """Fraction(a, b) at [a + bound][b - 1], for |a| <= bound and 1 <= b <= den."""
    return tuple(tuple(Fraction(a, b) for b in range(1, den + 1)) for a in range(-bound, bound + 1))


def random_rational(rng: random.Random, bound: int = 6, den: int = 4) -> Fraction:
    """Fraction(rng.randint(-bound, bound), rng.randint(1, den)), drawn in that order."""
    a = rng.randint(-bound, bound)
    return _rationals(bound, den)[a + bound][rng.randint(1, den) - 1]


def random_point(model: FibrationModel, rng: random.Random) -> list[Fraction]:
    return [random_rational(rng) for _ in range(model.chart.dim)]


def random_noncritical_point(model: FibrationModel, rng: random.Random) -> list[Fraction]:
    for _ in range(1000):
        p = random_point(model, rng)
        if not model.is_critical(p):
            return p
    raise RuntimeError("failed to sample a non-critical point")


def critical_points_sample(model: FibrationModel, count: int, rng: random.Random) -> list[list[Fraction]]:
    """Exact rational points on the critical locus, verified against the equations.

    Deformation kinds are sampled at the pinned parameter value (the
    symbolic-parameter model is sampled at parameter 0, appending the
    parameter coordinate).
    """
    pts: list[list[Fraction]] = []
    chart = model.chart
    n = model.n
    has_param = chart.dim > chart.n_geom

    def base_point() -> list[Fraction]:
        p = [random_rational(rng) for _ in range(chart.dim)]
        if has_param:
            p[chart.index(PARAM_NAME)] = Fraction(0)
        return p

    ix1, ix2, ix3 = chart.index("x1"), chart.index("x2"), chart.index("x3")
    it_last = chart.index(f"t{2 * n - 3}")
    while len(pts) < count:
        p = base_point()
        p[ix2] = Fraction(0)
        p[ix3] = Fraction(0)
        kind = model.kind
        s_val = model.param if model.param is not None else Fraction(0)
        if kind.startswith("fold"):
            p[ix1] = Fraction(0)
        elif kind.startswith("cusp"):
            p[chart.index("t1")] = p[ix1] ** 2
        elif kind.startswith("swallowtail"):
            x1, t1 = p[ix1], p[chart.index("t1")]
            p[chart.index("t2")] = -4 * x1**3 - 2 * t1 * x1
        elif kind.startswith("butterfly"):
            x1, t1, t2 = p[ix1], p[chart.index("t1")], p[chart.index("t2")]
            p[chart.index("t3")] = -(5 * x1**4 + 3 * t1 * x1**2 + 2 * t2 * x1)
        elif kind == "b_s":
            # x1^2 = t^2 - s; solvable over Q with x1 = +-t when s = 0
            if s_val != 0:
                raise NotImplementedError("b_s sampling requires parameter 0")
            p[ix1] = p[it_last] * rng.choice((1, -1))
        elif kind == "m_s":
            if s_val != 0:
                raise NotImplementedError("m_s sampling requires parameter 0")
            p[ix1] = Fraction(0)
            p[it_last] = Fraction(0)
        elif kind == "f_s":
            x1 = p[ix1]
            p[it_last] = 2 * s_val * x1 - 4 * x1**3
        elif kind == "w_s":
            if s_val != 0:
                raise NotImplementedError("w_s sampling requires parameter 0")
            p[ix1] = Fraction(0)
            p[it_last] = Fraction(0)
        elif kind == "lefschetz":
            p[ix1] = Fraction(0)
            p[it_last] = Fraction(0)
        else:
            raise UnknownKind(kind)
        if not model.is_critical(p):
            raise AssertionError(f"sampler produced a non-critical point for {kind}: {p}")
        pts.append(p)
    return pts


def manifest_text() -> str:
    """Structured text listing every kind with its components in canonical grammar."""
    lines = ["# model manifest: kind | n | chart | components"]
    for kind in ALL_KINDS:
        model = get_model(kind, 3)
        comps = "; ".join(str(c) for c in model.casimirs)
        lines.append(f"{kind} | n=3 | ({', '.join(model.chart.names)}) | {comps}")
    return "\n".join(lines) + "\n"
