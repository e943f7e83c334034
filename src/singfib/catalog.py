"""Local models of singular fibrations ``R^{2n} -> R^{2n-2}``.

Each model packages the polynomial map, its Casimir list (the component
functions, or the real/imaginary parts for the complex Lefschetz-type
chart), the equations cutting out the critical locus, and a sampler that
produces exact rational points on that locus.

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
    components: tuple[Poly, ...]
    casimirs: tuple[Poly, ...]
    critical_locus: tuple[Poly, ...]
    #: raw-construction bivector = claimed_scale * (claimed sign) * catalogued formula
    claimed_scale: Fraction = Fraction(1)
    param: Fraction | None = None
    is_complex: bool = False

    @property
    def dim(self) -> int:
        return 2 * self.n

    @cached_property
    def casimir_gradients(self) -> tuple[tuple[Poly, ...], ...]:
        """Partials of each Casimir in the geometric variables, differentiated once per model."""
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

    def jacobian(self) -> list[list[Poly]]:
        """(2n-2) x (2n) matrix of partials of the map components."""
        names = self.chart.geometric_names()
        return [[comp.differentiate(v) for v in names] for comp in self.components]

    def is_critical(self, point: Sequence[Rational]) -> bool:
        return all(eq.evaluate(point) == 0 for eq in self.critical_locus)

    def jacobian_rank_at(self, point: Sequence[Rational]) -> int:
        rows = [[entry.evaluate(point) for entry in row] for row in self.jacobian()]
        return linalg.rank(rows)


def _last_component_model(
    kind: str,
    n: int,
    chart: Chart,
    f4: Poly,
    critical_extra: Sequence[Poly],
    claimed_scale: Fraction = Fraction(1),
    param: Fraction | None = None,
) -> FibrationModel:
    coords = tuple(chart.var(f"t{i}") for i in range(1, 2 * n - 2))
    components = coords + (f4,)
    x2, x3 = chart.var("x2"), chart.var("x3")
    critical = tuple(critical_extra) + (x2, x3)
    return FibrationModel(
        name=f"{kind}(n={n})",
        kind=kind,
        n=n,
        chart=chart,
        components=components,
        casimirs=components,
        critical_locus=critical,
        claimed_scale=claimed_scale,
        param=param,
    )


def get_model(kind: str, n: int = 3, param: Rational | None = None) -> FibrationModel:
    """The shared model for (kind, n, param), built once per process.

    The cache key is the full triple, whatever form the call takes, so
    ``get_model(k)``, ``get_model(k, 3)`` and ``get_model(k, 3, None)`` are
    one object and every check shares its gradients and determinants.
    Invalid arguments raise on every call (exceptions are not cached).
    """
    return _shared_model(kind, n, param)


def build_model(kind: str, n: int = 3, param: Rational | None = None) -> FibrationModel:
    """Build a fresh, fully populated model; dim-6 kinds require n = 3."""
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
    else:
        if param is not None:
            raise ModelError(f"kind {kind!r} takes no deformation parameter")
        chart = chart_2n(n)
        pf = None

    t_last = chart.var(f"t{2 * n - 3}")
    x1, x2, x3 = chart.var("x1"), chart.var("x2"), chart.var("x3")
    sq = x2 * x2 - x3 * x3

    if kind in ("fold", "fold-def1", "fold-def2", "fold-2n"):
        signs = {
            "fold": (-1, 1, 1),
            "fold-2n": (-1, 1, 1),
            "fold-def1": (1, 1, 1),
            # second definite variant: opposite definite sign (the matrix
            # catalogued for it differentiates -x1^2-x2^2-x3^2)
            "fold-def2": (-1, -1, -1),
        }[kind]
        f4 = x1 * x1 * signs[0] + x2 * x2 * signs[1] + x3 * x3 * signs[2]
        scale = Fraction(2) if kind == "fold-2n" else Fraction(1)
        return _last_component_model(kind, n, chart, f4, (x1,), claimed_scale=scale)

    t1, t2, t3 = chart.var("t1"), chart.var("t2"), chart.var("t3")

    if kind.startswith("cusp"):
        core = x1**3 - 3 * t1 * x1
        f4 = core + (sq if kind == "cusp" else (x2 * x2 + x3 * x3) if kind == "cusp-def1" else -(x2 * x2 + x3 * x3))
        return _last_component_model(kind, n, chart, f4, (core.differentiate("x1"),))
    if kind.startswith("swallowtail"):
        core = x1**4 + t1 * x1**2 + t2 * x1
        f4 = core + (sq if kind == "swallowtail" else (x2 * x2 + x3 * x3) if kind == "swallowtail-def1" else -(x2 * x2 + x3 * x3))
        return _last_component_model(kind, n, chart, f4, (core.differentiate("x1"),))
    if kind.startswith("butterfly"):
        core = x1**5 + t1 * x1**3 + t2 * x1**2 + t3 * x1
        f4 = core + (sq if kind == "butterfly" else (x2 * x2 + x3 * x3) if kind == "butterfly-def1" else -(x2 * x2 + x3 * x3))
        return _last_component_model(kind, n, chart, f4, (core.differentiate("x1"),))

    if kind == "b_s":
        s = chart.const(pf) if pf is not None else chart.var(PARAM_NAME)
        f4 = x1**3 - 3 * x1 * (t_last * t_last - s) + sq
        return _last_component_model(kind, n, chart, f4, (f4.differentiate("x1"),), param=pf)
    if kind == "m_s":
        s = chart.const(pf) if pf is not None else chart.var(PARAM_NAME)
        f4 = x1**3 - 3 * x1 * (s - t_last * t_last) + sq
        return _last_component_model(kind, n, chart, f4, (f4.differentiate("x1"),), param=pf)
    if kind == "f_s":
        s = chart.const(pf) if pf is not None else chart.var(PARAM_NAME)
        f4 = x1**4 - x1**2 * s + x1 * t_last + sq
        return _last_component_model(kind, n, chart, f4, (f4.differentiate("x1"),), param=pf)
    if kind == "w_s":
        s = chart.const(pf) if pf is not None else chart.var(PARAM_NAME)
        c_re = t_last * t_last - x1 * x1 + sq + s * t_last
        c_im = 2 * t_last * x1 + 2 * x2 * x3
        coords = tuple(chart.var(f"t{i}") for i in range(1, 2 * n - 3))
        components = coords + (c_re, c_im)
        # rank drops exactly on {x2 = x3 = 0, 2t^2 + s t + 2x1^2 = 0}
        crit = (x2, x3, 2 * t_last * t_last + s * t_last + 2 * x1 * x1)
        return FibrationModel(
            name=f"w_s(n={n})",
            kind=kind,
            n=n,
            chart=chart,
            components=components,
            casimirs=components,
            critical_locus=crit,
            param=pf,
        )
    if kind == "lefschetz":
        # z_{n-1} = t_{2n-3} + i x1, z_n = x2 + i x3; earlier complex
        # coordinates are t_{2j-1} + i t_{2j} so their Re/Im parts are the
        # coordinate Casimirs t_1..t_{2n-4}.
        c_re = t_last * t_last - x1 * x1 + sq
        c_im = 2 * t_last * x1 + 2 * x2 * x3
        coords = tuple(chart.var(f"t{i}") for i in range(1, 2 * n - 3))
        components = coords + (c_re, c_im)
        crit = (t_last, x1, x2, x3)
        return FibrationModel(
            name=f"lefschetz(n={n})",
            kind=kind,
            n=n,
            chart=chart,
            components=components,
            casimirs=components,
            critical_locus=crit,
            claimed_scale=Fraction(4),
            is_complex=True,
        )
    raise UnknownKind(kind)


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
        comps = "; ".join(str(c) for c in model.components)
        lines.append(f"{kind} | n=3 | ({', '.join(model.chart.names)}) | {comps}")
    return "\n".join(lines) + "\n"
