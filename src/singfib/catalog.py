"""Local models of singular fibrations ``R^{2n} -> R^{2n-2}``.

A model is its Casimir list, which is the polynomial map's component
functions (real and imaginary parts for the complex Lefschetz-type charts),
plus the equations cutting out its critical locus; ``sample_locus`` solves
those equations for exact rational points.

Every indefinite kind accepts any half-dimension n >= 3 (they are the
type-2n families); the definite variants are catalogued in dimension 6
only.  A deformation parameter defaults to a symbolic chart parameter
named ``s_par`` and can be pinned to a rational instead.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from itertools import combinations
from typing import Mapping, NamedTuple, Sequence

from . import linalg
from .exterior import KVector, permutation_sign
from .poly import Chart, IntegerKernel, IntegerPoint, Poly, Rational, chart_2n, lowest_terms_point

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
#: the largest half-dimension built, refused above before any chart: derive at n = 256 takes at most 0.51 s
#: wall for each parametric kind (CPython 3.11, 2 vCPUs)
MAX_N = 256


class ModelError(ValueError):
    """A kind, half-dimension or parameter that :func:`get_model` cannot build."""


class UnknownKind(ModelError):
    pass


class CasimirSplit(NamedTuple):
    """The Casimirs split into coordinate ones and the rest.

    A coordinate Casimir C_k has the gradient row e_a, coefficient 1, for
    an index a that no earlier coordinate Casimir takes.
    """

    #: per Casimir, its unit index a if it is a coordinate Casimir, else None
    units: tuple[int | None, ...]
    #: the indices k of the other Casimirs, whose r gradient rows stay
    rows: tuple[int, ...]
    #: N, the r + 2 geometric indices that no coordinate Casimir takes, ascending
    free: tuple[int, ...]


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
    def casimir_split(self) -> CasimirSplit:
        """The coordinate Casimirs and the free indices N, read from the gradient rows once per model."""
        one = self.chart.one()
        units: list[int | None] = []
        for row in self.casimir_gradients:
            support = [a for a, g in enumerate(row) if g]
            unit = support[0] if len(support) == 1 and row[support[0]] == one else None
            units.append(unit if unit not in units else None)
        rows = tuple(k for k, a in enumerate(units) if a is None)
        free = tuple(a for a in range(self.chart.n_geom) if a not in units)
        return CasimirSplit(tuple(units), rows, free)

    @cached_property
    def casimir_determinants(self) -> dict[tuple[int, int], Poly]:
        """The nonzero det(e_i | e_j | grad C_1 | ... | grad C_{2n-2}), i < j, expanded once per model.

        A Laplace expansion along the unit columns of the coordinate
        Casimirs (``casimir_split``) leaves, for i < j in N, the sign of the
        row and column permutation times the r x r minor of the other
        gradient rows on N minus {i, j}; a pair that meets a coordinate
        index repeats a unit column, so its determinant is zero
        (Damianou-Petalidou, Canad. J. Math. 2012; the every-n lemma of
        ROADMAP.md item 3).  A model without coordinate Casimirs takes N as
        every index.
        """
        units, rows, free = self.casimir_split
        grads = self.casimir_gradients
        dets: dict[tuple[int, int], Poly] = {}
        for i, j in combinations(free, 2):
            others = [a for a in free if a != i and a != j]
            minor = [[grads[k][a] for a in others] for k in rows]
            det = linalg.poly_det(minor) if minor else self.chart.one()
            # column 2 + k of the full matrix takes row a_k, or the next row of the minor
            rest = iter(others)
            perm = [i, j, *(next(rest) if a is None else a for a in units)]
            if permutation_sign(perm) == -1:
                det = -det
            if not det.is_zero():
                dets[(i, j)] = det
        return dets

    @cached_property
    def determinant_bivector(self) -> KVector:
        """``casimir_determinants`` as the bivector sum_{i<j} det_{ij} e_i ^ e_j (k = 1)."""
        return KVector(self.chart, 2, self.casimir_determinants)


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
    if n > MAX_N:
        raise ModelError(f"half-dimension n must be at most {MAX_N}")
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


# -- point sampling ---------------------------------------------------------------

#: a / b in lowest terms at [a + 6][b - 1], for the drawn numerator |a| <= 6 and denominator 1 <= b <= 4
_LOWEST = tuple(tuple((a // math.gcd(a, b), b // math.gcd(a, b)) for b in range(1, 5)) for a in range(-6, 7))


def _draw(rng: random.Random, dim: int) -> list[tuple[int, int]]:
    """dim coordinates in chart order, each a = randint(-6, 6) over b = randint(1, 4), as (a, b) in lowest terms.

    The two rejection loops read the generator's bits as CPython's
    ``_randbelow`` does for those two ``randint`` calls: 4 bits until they
    fall below 13, then 3 bits until they fall below 4.  So every point,
    and the generator's state after it, is the one the calls would give.
    """
    bits = rng.getrandbits
    out = []
    for _ in range(dim):
        a = bits(4)
        while a >= 13:
            a = bits(4)
        b = bits(3)
        while b >= 4:
            b = bits(3)
        out.append(_LOWEST[a][b])
    return out


def random_point(model: FibrationModel, rng: random.Random) -> IntegerPoint:
    return lowest_terms_point(_draw(rng, model.chart.dim))


def noncritical_kernel(model: FibrationModel, polys: Sequence[Poly]) -> IntegerKernel:
    """The model's critical equations followed by ``polys``, compiled as one kernel for ``noncritical_sample``."""
    return IntegerKernel(model.chart, [*model.critical_locus, *polys])


def noncritical_sample(
    model: FibrationModel, kernel: IntegerKernel, rng: random.Random
) -> tuple[IntegerPoint, list[int], int]:
    """A random non-critical point, the kernel's values there past the critical rows, and their scale.

    ``kernel`` starts with the critical equations (``noncritical_kernel``): one read per draw both
    rejects a critical point and gives what the caller reads.
    """
    m = len(model.critical_locus)
    for _ in range(1000):
        p = random_point(model, rng)
        values, scale = kernel(*p)
        if any(values[:m]):
            return p, values[m:], scale
    raise RuntimeError("failed to sample a non-critical point")


def random_noncritical_point(model: FibrationModel, rng: random.Random) -> IntegerPoint:
    """A random non-critical point, drawn through a kernel of the critical equations alone compiled per call."""
    return noncritical_sample(model, noncritical_kernel(model, ()), rng)[0]


def critical_points_sample(model: FibrationModel, count: int, rng: random.Random) -> list[IntegerPoint]:
    """Exact rational points on the critical locus, a symbolic deformation parameter pinned to 0."""
    pinned = {PARAM_NAME: Fraction(0)} if PARAM_NAME in model.chart.names else {}
    return sample_locus(model.chart, model.critical_locus, count, rng, pinned)


def _lowest(a: int, b: int) -> tuple[int, int]:
    """a / b (b != 0) as (numerator, denominator) in lowest terms."""
    g = math.gcd(a, b) if b > 0 else -math.gcd(a, b)
    return a // g, b // g


def sample_locus(
    chart: Chart, equations: Sequence[Poly], count: int, rng: random.Random, pinned: Mapping[str, Rational]
) -> list[IntegerPoint]:
    """Exact rational points where every equation vanishes, checked through one integer kernel.

    Each point draws every chart coordinate as ``random_point`` does, in
    chart order, sets the pinned ones and solves the equations (pinned
    values substituted) in turn.  c*v + r, c a nonzero constant and v the
    first such variable, sets v = -r/c, with every nonzero r read from one
    integer kernel at the drawn point.  a*v^2 + b*w^2 sets v = w = 0 when
    definite and w = +-v (one ``rng.choice``) when a = -b.  Any other
    equation raises ``NotImplementedError``.  The point is handed on in the
    form the locus check reads it, an IntegerPoint.
    """
    pins = [(chart.index(name), (v.numerator, v.denominator)) for name, v in pinned.items()]
    units = [tuple(int(j == i) for j in range(chart.dim)) for i in range(chart.dim)]
    steps: list[tuple[str, int, Fraction | int, int]] = []  # (op, i, c or j, slot of r)
    rests: list[Poly] = []
    solved: set[str] = set()
    for eq in (e.substitute(pinned) for e in equations):
        terms = eq.terms
        # the first v with eq = c*v + r, c a nonzero constant and r free of v; else a*v^2 + b*w^2
        i = next((i for i, u in enumerate(units) if u in terms and all(e == u or not e[i] for e in terms)), None)
        squares = sorted((e.index(2), c) for e, c in terms.items() if sum(e) == 2 and 2 in e)
        ratio = -squares[0][1] / squares[1][1] if len(squares) == len(terms) == 2 else 0  # w^2 / v^2
        if i is not None:
            r = eq - chart.var(chart.names[i]).scale(terms[units[i]])
            if r.variables() & solved:
                raise ValueError(f"{r} holds a variable an earlier equation solved")
            if r:
                steps.append(("linear", i, terms[units[i]], len(rests)))
                rests.append(r)
            else:
                steps.append(("zero", i, i, 0))
            solved.add(chart.names[i])
        elif ratio < 0 or ratio == 1:
            steps.append(("zero" if ratio < 0 else "sign", squares[0][0], squares[1][0], 0))
            solved.update(chart.names[v] for v, _ in squares)
        else:
            raise NotImplementedError(f"no rational sampler for the equation {eq} = 0")
    kernel, check = IntegerKernel(chart, rests), IntegerKernel(chart, list(equations))
    pts: list[IntegerPoint] = []
    while len(pts) < count:
        p = _draw(rng, chart.dim)
        for j, value in pins:
            p[j] = value
        values, scale = kernel(*lowest_terms_point(p)) if rests else ([], 1)
        for op, i, arg, k in steps:
            if op == "linear":
                p[i] = _lowest(-values[k] * arg.denominator, scale * arg.numerator)
            elif op == "zero":
                p[i] = p[arg] = (0, 1)
            else:
                a, b = p[i]
                p[arg] = (a * rng.choice((1, -1)), b)
        q = lowest_terms_point(p)
        if any(check(*q)[0]):
            raise AssertionError(f"sampler missed the critical locus: {q.fractions()}")
        pts.append(q)
    return pts


def manifest_text() -> str:
    """Structured text listing every kind with its components in canonical grammar."""
    lines = ["# model manifest: kind | n | chart | components"]
    for kind in ALL_KINDS:
        model = get_model(kind, 3)
        comps = "; ".join(str(c) for c in model.casimirs)
        lines.append(f"{kind} | n=3 | ({', '.join(model.chart.names)}) | {comps}")
    return "\n".join(lines) + "\n"
