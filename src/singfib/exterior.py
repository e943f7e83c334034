"""Exterior algebra of forms and multivector fields with polynomial coefficients.

Elements are graded: a ``KForm`` of degree k maps strictly increasing
k-tuples of geometric coordinate indices to ``Poly`` coefficients, and a
``KVector`` does the same over the coordinate vector basis.  The calculus
operators live here as free functions: wedge, exterior derivative,
pullback along a polynomial map, the Euclidean Hodge star, interior
product, the Schouten bracket of bivector fields, and the radial homotopy
operator that inverts d on star-shaped charts.

Parameters of the chart (anything past ``chart.n_geom``) are inert
scalars: they appear in coefficients but carry no basis covector, so d,
the star and the homotopy operator never touch them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .poly import Chart, ChartMismatch, Poly, Rational, _exact, add_product, add_term, composer, lifted
from .poly import polys_from_buckets

Index = tuple[int, ...]
#: an element's terms as (index, integer numerators over the denominator they were lifted to)
Lifted = list[tuple[Index, dict]]


def _merge_indices(a: Index, b: Index) -> tuple[int, Index] | None:
    """Merge two strictly increasing tuples; return (sign, merged) or None on collision."""
    merged: list[int] = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining entries of a
            if (len(a) - i) % 2 == 1:
                sign = -sign
            merged.append(b[j])
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return sign, tuple(merged)


class _Graded:
    """Shared implementation for forms and multivectors.

    The constructor is the boundary for terms from outside the library and
    checks them; operations build results through :meth:`_make`.
    """

    __slots__ = ("chart", "degree", "terms")
    basis_prefix = "?"

    def __init__(self, chart: Chart, degree: int, terms: Mapping[Index, Poly]):
        if not 0 <= degree <= chart.n_geom:
            raise ValueError(f"degree {degree} out of range for chart of dim {chart.n_geom}")
        clean: dict[Index, Poly] = {}
        for idx, coeff in terms.items():
            if len(idx) != degree:
                raise ValueError(f"index tuple {idx} has wrong length for degree {degree}")
            if list(idx) != sorted(set(idx)):
                raise ValueError(f"index tuple {idx} must be strictly increasing")
            if any(not 0 <= i < chart.n_geom for i in idx):
                raise ValueError(f"index tuple {idx} outside geometric block")
            if coeff.chart != chart:
                raise ChartMismatch("coefficient lives on a different chart")
            if not coeff.is_zero():
                clean[idx] = coeff
        self.chart = chart
        self.degree = degree
        self.terms = clean

    @classmethod
    def _make(cls, chart: Chart, degree: int, terms: dict[Index, Poly]):
        """Wrap terms the library built itself: sorted in-block indices, nonzero coefficients."""
        obj = object.__new__(cls)
        obj.chart = chart
        obj.degree = degree
        obj.terms = terms
        return obj

    # -- linear structure --------------------------------------------------

    def _same_kind(self, other: "_Graded") -> None:
        if type(self) is not type(other):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.chart != other.chart:
            raise ChartMismatch("chart mismatch")
        if self.degree != other.degree and self.terms and other.terms:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __add__(self, other: "_Graded") -> "_Graded":
        self._same_kind(other)
        out = dict(self.terms)
        for idx, c in other.terms.items():
            add_term(out, idx, c)
        degree = self.degree if self.terms or not other.terms else other.degree
        return self._make(self.chart, degree, out)

    def __neg__(self) -> "_Graded":
        return self._make(self.chart, self.degree, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other: "_Graded") -> "_Graded":
        return self + (-other)

    def scale(self, f: Poly | Rational) -> "_Graded":
        if isinstance(f, Poly):
            if f.chart != self.chart:
                raise ChartMismatch("scaling function lives on a different chart")
            if not f.is_constant():
                # a product of nonzero polynomials is nonzero
                return self._make(self.chart, self.degree, {i: f * c for i, c in self.terms.items()})
            # a constant (0 included) scales as its rational
            f = f.constant_value()
        f = _exact(f)
        if f == 1:
            return self
        if f == -1:
            return -self
        terms = {i: c.scale(f) for i, c in self.terms.items()} if f else {}
        return self._make(self.chart, self.degree, terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Graded) or type(self) is not type(other):
            return NotImplemented
        if self.chart != other.chart:
            return False
        if not self.terms and not other.terms:
            return True
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.chart, self.degree, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    # -- component access ----------------------------------------------------

    def coeff(self, idx: Sequence[int]) -> Poly:
        """Coefficient with antisymmetric index handling (any index order)."""
        order = tuple(idx)
        # a miss is one lookup: a repeated index is never a stored key, and the sign is read only on a hit
        base = self.terms.get(tuple(sorted(order)))
        if base is None:
            return self.chart.zero()
        return base if permutation_sign(order) == 1 else -base

    def coefficient_matrix(self, point: Sequence[Rational] | None = None):
        """Full antisymmetric matrix of a degree-2 element.

        With a point, entries are Fractions; without, they are Polys.
        """
        if self.degree != 2:
            raise ValueError("coefficient_matrix needs a degree-2 element")
        n = self.chart.n_geom
        zero = self.chart.zero() if point is None else Fraction(0)
        mat = [[zero] * n for _ in range(n)]
        for (i, j), c in self.terms.items():
            val = c if point is None else c.evaluate(point)
            mat[i][j] = val
            mat[j][i] = -val
        return mat

    def __str__(self) -> str:
        return format_graded(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({format_graded(self)!r})"


def permutation_sign(order: Sequence[int]) -> int:
    sign = 1
    order = list(order)
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if order[i] > order[j]:
                sign = -sign
    return sign


class KForm(_Graded):
    basis_prefix = "d"


class KVector(_Graded):
    basis_prefix = "e"


def format_graded(a: _Graded) -> str:
    if not a.terms:
        return "0"
    names = a.chart.names
    pieces: list[str] = []
    for idx in sorted(a.terms):
        coeff = a.terms[idx]
        basis = "^".join(f"{a.basis_prefix}{names[i]}" for i in idx)
        text = str(coeff)
        if not idx:  # a degree-0 element is its coefficient
            pieces.append(text)
        elif text == "1":
            pieces.append(basis)
        elif text == "-1":
            pieces.append(f"-{basis}")
        elif len(coeff.terms) == 1 and not text.startswith("-"):
            pieces.append(f"{text}*{basis}")
        else:
            pieces.append(f"({text})*{basis}")
    return " + ".join(pieces)


# -- constructors ---------------------------------------------------------------


def form_term(chart: Chart, coeff: Poly | Rational, names: Sequence[str]) -> KForm:
    """A single form term like ``coeff * dt1^dx1`` given variable names."""
    return _term(KForm, chart, coeff, names)


def vector_term(chart: Chart, coeff: Poly | Rational, names: Sequence[str]) -> KVector:
    return _term(KVector, chart, coeff, names)


def _term(cls, chart: Chart, coeff: Poly | Rational, names: Sequence[str]):
    if not isinstance(coeff, Poly):
        coeff = chart.const(coeff)
    order = tuple(chart.index(n) for n in names)
    if len(set(order)) != len(order):
        return cls(chart, len(order), {})
    sign = permutation_sign(order)
    return cls(chart, len(order), {tuple(sorted(order)): coeff if sign == 1 else -coeff})


def scalar_form(p: Poly) -> KForm:
    return KForm(p.chart, 0, {(): p})


def volume_form(chart: Chart) -> KForm:
    return KForm(chart, chart.n_geom, {tuple(range(chart.n_geom)): chart.one()})


# -- operators -------------------------------------------------------------------


def wedge(a: _Graded, b: _Graded) -> _Graded:
    """Exterior product; operands must be of the same kind on the same chart."""
    if type(a) is not type(b):
        raise TypeError("wedge needs two forms or two multivectors")
    if a.chart != b.chart:
        raise ChartMismatch("chart mismatch in wedge")
    degree = a.degree + b.degree
    if degree > a.chart.n_geom:
        return a._make(a.chart, a.chart.n_geom, {})
    (da, la), (db, lb) = _lift(a), _lift(b)
    buckets: dict[Index, dict] = {}
    _wedge_into(buckets, la, lb)
    return a._make(a.chart, degree, polys_from_buckets(a.chart, buckets, da * db))


def _lift(x: _Graded) -> tuple[int, Lifted]:
    """One denominator for the element's coefficients, and its terms over it."""
    den, nums = lifted(x.terms.values())
    return den, list(zip(x.terms, nums))


def _bucket(buckets: dict[Index, dict], idx: Index) -> dict:
    bucket = buckets.get(idx)
    if bucket is None:
        bucket = buckets[idx] = {}
    return bucket


def _wedge_into(buckets: dict[Index, dict], a: Iterable[tuple[Index, dict]], b: Lifted) -> None:
    """Add the terms of a ^ b into ``buckets``, one term dict per merged index."""
    for ia, ca in a:
        for ib, cb in b:
            merged = _merge_indices(ia, ib)
            if merged is not None:
                sign, idx = merged
                add_product(_bucket(buckets, idx), ca, cb, sign)


def wedge_power(a: _Graded, m: int) -> _Graded:
    if m < 1:
        raise ValueError("wedge_power needs m >= 1")
    result = a
    for _ in range(m - 1):
        result = wedge(result, a)
    return result


def ext_d(a: KForm) -> KForm:
    """Exterior derivative in the geometric coordinates."""
    chart = a.chart
    den, terms = _lift(a)
    buckets: dict[Index, dict] = {}
    for idx, coeff in terms:
        for v in range(chart.n_geom):
            bucket = None
            for exp, c in coeff.items():
                e = exp[v]
                if e:
                    if bucket is None:
                        # the index of dv ^ dx_I, built once v occurs: v moves past the pos entries of I below it
                        if v in idx:
                            break
                        pos = bisect_left(idx, v)
                        sign = -1 if pos % 2 else 1
                        bucket = _bucket(buckets, idx[:pos] + (v,) + idx[pos:])
                    key = exp[:v] + (e - 1,) + exp[v + 1 :]
                    term = c * (sign * e)
                    s = bucket.get(key)
                    bucket[key] = term if s is None else s + term
    return KForm._make(chart, min(a.degree + 1, chart.n_geom), polys_from_buckets(chart, buckets, den))


@dataclass(frozen=True)
class PolyMap:
    """A polynomial map between charts, one component per target variable."""

    source: Chart
    target: Chart
    components: tuple[Poly, ...]

    def __post_init__(self) -> None:
        if len(self.components) != self.target.dim:
            raise ValueError("component count must equal the target dimension")
        for comp in self.components:
            if comp.chart != self.source:
                raise ChartMismatch("map components must live on the source chart")


def pullback(a: KForm, f: PolyMap) -> KForm:
    """Pullback f*(a); sends each target covector dy_j to d(f_j)."""
    if a.chart != f.target:
        raise ChartMismatch("form does not live on the map's target chart")
    src = f.source
    # one lift each: coefficients over dp, components over di; composed at the top degree, over dp * di^top
    (dp, coeffs), (di, comps) = lifted(a.terms.values()), lifted(f.components)
    top = max((sum(e) for p in coeffs for e in p), default=0)
    compose = composer(comps, di, (0,) * src.dim)
    diffs: list[Lifted] = [[] for _ in comps]  # each df_j as integer 1-form terms over di
    for d, p in zip(diffs, comps):
        for v in range(src.n_geom):
            if dv := {e[:v] + (e[v] - 1,) + e[v + 1 :]: c * e[v] for e, c in p.items() if e[v]}:
                d.append(((v,), dv))
    buckets: dict[Index, dict] = {}
    for idx, p in zip(a.terms, coeffs):
        piece = {(): compose(p, top)}
        for j in idx[:-1]:
            piece, prev = {}, piece
            _wedge_into(piece, prev.items(), diffs[j])
        if idx:  # the wedge with the last df_j goes straight into the buckets
            _wedge_into(buckets, piece.items(), diffs[idx[-1]])
        else:
            buckets = piece
    return KForm._make(src, min(a.degree, src.n_geom), polys_from_buckets(src, buckets, dp * di ** (top + a.degree)))


def hodge_star(a: KForm) -> KForm:
    """Euclidean Hodge star for the chart's coordinate orthonormal frame."""
    n = a.chart.n_geom
    everything = tuple(range(n))
    out: dict[Index, Poly] = {}
    for idx, coeff in a.terms.items():
        # complements of distinct index tuples are distinct: nothing to add up
        comp = tuple(i for i in everything if i not in idx)
        out[comp] = coeff if permutation_sign(idx + comp) == 1 else -coeff
    return KForm._make(a.chart, n - a.degree, out)


def interior(v: _Graded, a: _Graded) -> _Graded:
    """Contraction i_v a into the first slot: a vector field into a form, or a 1-form into a multivector field."""
    if type(v) is type(a):
        raise ValueError("interior product needs a vector field and a form")
    if v.degree != 1:
        raise ValueError("interior product needs a degree-1 element to contract")
    if v.chart != a.chart:
        raise ChartMismatch("chart mismatch in interior product")
    if a.degree == 0:
        return a._make(a.chart, 0, {})
    (dv, lv), (da, la) = _lift(v), _lift(a)
    vs = {i: c for (i,), c in lv}
    buckets: dict[Index, dict] = {}
    for idx, coeff in la:
        for pos, i in enumerate(idx):
            vi = vs.get(i)
            if vi is not None:
                add_product(_bucket(buckets, idx[:pos] + idx[pos + 1 :]), vi, coeff, -1 if pos % 2 else 1)
    return a._make(a.chart, a.degree - 1, polys_from_buckets(a.chart, buckets, dv * da))


def evaluate_form(a: KForm, vectors: Sequence[KVector]) -> Poly:
    """a(v_1, ..., v_k) by iterated interior products."""
    if len(vectors) != a.degree:
        raise ValueError("number of vectors must equal the form degree")
    current = a
    for v in vectors:
        current = interior(v, current)
    return current.terms.get((), a.chart.zero())


def schouten(a: KVector, b: KVector) -> KVector:
    """Schouten bracket of two bivector fields, as a trivector field.

    Components follow the convention that makes ``schouten(pi, pi)`` equal
    twice the Jacobiator of the bracket induced by pi on coordinates.
    """
    if a.degree != 2 or b.degree != 2:
        raise ValueError("schouten is implemented for bivector fields")
    if a.chart != b.chart:
        raise ChartMismatch("chart mismatch in schouten bracket")
    chart = a.chart
    n = chart.n_geom
    names = chart.names
    out: dict[Index, Poly] = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = chart.zero()
                for l in range(n):
                    dl = names[l]
                    total = total + a.coeff((i, l)) * b.coeff((j, k)).differentiate(dl)
                    total = total - a.coeff((j, l)) * b.coeff((i, k)).differentiate(dl)
                    total = total + a.coeff((k, l)) * b.coeff((i, j)).differentiate(dl)
                    total = total + b.coeff((i, l)) * a.coeff((j, k)).differentiate(dl)
                    total = total - b.coeff((j, l)) * a.coeff((i, k)).differentiate(dl)
                    total = total + b.coeff((k, l)) * a.coeff((i, j)).differentiate(dl)
                if not total.is_zero():
                    out[(i, j, k)] = total
    return KVector(chart, 3, out)


def poincare_homotopy(a: KForm, directions: Sequence[int] | None = None) -> KForm:
    """Radial homotopy operator K with d(Ka) + K(da) = a for degree >= 1.

    On a monomial coefficient of degree m in the radial variables inside a
    form term carrying r radial differentials, the integral contributes
    the factor 1/(m + r).  By default every geometric variable is radial;
    restricting ``directions`` to a sub-block gives the fibrewise operator,
    whose identity holds on forms all of whose terms carry positive
    degree in the chosen block; a term of degree zero raises ``ValueError``.
    Each direction must be a geometric index, named once.
    """
    k = a.degree
    if k < 1:
        raise ValueError("homotopy operator is undefined on 0-forms")
    chart = a.chart
    ng = chart.n_geom
    radial = tuple(range(ng)) if directions is None else tuple(sorted(directions))
    for pos, i in enumerate(radial):
        if not 0 <= i < ng:
            raise ValueError(f"direction {i} is not a geometric index: the chart has {ng} geometric coordinates")
        if pos and radial[pos - 1] == i:
            raise ValueError(f"direction {i} is given twice")
    radial_set = set(radial)
    # the term c / (m + r) is c * (w / (m + r)) over w, the lcm of the weights m + r
    den, terms = _lift(a)
    weighted = []
    for idx, coeff in terms:
        r = sum(1 for i in idx if i in radial_set)
        for exp, c in coeff.items():
            m = sum(exp[i] for i in radial)
            if m + r == 0:
                raise ValueError(
                    "form has a term of degree zero in the radial block; "
                    "the homotopy identity does not apply to it"
                )
            weighted.append((idx, exp, c, m + r))
    w = math.lcm(*[weight for *_, weight in weighted])
    buckets: dict[Index, dict] = {}
    for idx, exp, c, weight in weighted:
        c *= w // weight
        # the Euler field contracted into slot pos: x_i times the term, sign (-1)^pos
        for pos, i in enumerate(idx):
            if i in radial_set:
                bucket = _bucket(buckets, idx[:pos] + idx[pos + 1 :])
                key = exp[:i] + (exp[i] + 1,) + exp[i + 1 :]
                term = -c if pos % 2 else c
                s = bucket.get(key)
                bucket[key] = term if s is None else s + term
    return KForm._make(chart, k - 1, polys_from_buckets(chart, buckets, den * w))
