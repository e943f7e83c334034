"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a dictionary mapping exponent tuples to Fraction
coefficients; zero coefficients are never stored, so equality of
polynomials is equality of dictionaries.  Every coefficient ring used by
the geometry layers (forms, bivectors, fibration components) is built on
this type; floating point only ever appears when a report renders a
decimal for a human.

A Chart fixes the ordered variable list.  The first ``n_geom`` names are
geometric coordinates (they carry basis covectors/vectors and are the
directions of exterior differentiation); any trailing names are formal
parameters (a deformation parameter or a scale symbol) that live inside
coefficients only.

A fixed list of polynomials that is evaluated at many points compiles
once into an ``IntegerKernel``, which returns the values at q = Q / D times
one positive integer scale, with integer arithmetic only; ``IntegerPoint``
holds such a point as (Q, D).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence, Union

Exponent = tuple[int, ...]
Rational = Union[int, Fraction]


def add_term(out: dict, key, value) -> None:
    """Add ``value`` into ``out[key]``, dropping the key when the sum is zero.

    Values are Fractions or Polys; both are false exactly when zero.
    """
    s = out.get(key)
    s = value if s is None else s + value
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def add_product(out: dict[Exponent, Fraction], p: "Poly", q: "Poly", sign: int = 1) -> None:
    """Add ``sign * p * q`` into the term dict ``out`` in place.

    A sum that reaches zero stays stored; ``polys_from_buckets`` (or the
    caller) drops it once, at the end.
    """
    for e1, c1 in p.terms.items():
        if sign < 0:
            c1 = -c1
        for e2, c2 in q.terms.items():
            key = tuple(map(operator.add, e1, e2))
            c = c1 * c2
            s = out.get(key)
            out[key] = c if s is None else s + c


def polys_from_buckets(chart: "Chart", buckets: Mapping[object, dict[Exponent, Fraction]]) -> dict:
    """``{index: term dict}`` as ``{index: Poly}``, without zero terms or zero polynomials."""
    out = {}
    for idx, terms in buckets.items():
        clean = {e: c for e, c in terms.items() if c}
        if clean:
            out[idx] = Poly._make(chart, clean)
    return out


def _exact(c: object) -> Fraction:
    """An int or Fraction coefficient as a Fraction; a float, str or anything else raises TypeError."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient {c!r} is not an int or a Fraction")


@dataclass(frozen=True)
class Chart:
    """An ordered list of variable names, optionally with trailing parameters."""

    names: tuple[str, ...]
    n_geom: int = -1
    #: name -> position, built once; not part of equality, hash or repr
    _positions: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_positions", {name: i for i, name in enumerate(self.names)})
        if len(self._positions) != len(self.names):
            raise ValueError(f"duplicate variable names in chart {self.names}")
        if self.n_geom < 0:
            object.__setattr__(self, "n_geom", len(self.names))
        if not 0 <= self.n_geom <= len(self.names):
            raise ValueError("n_geom out of range")

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise ChartMismatch(f"variable {name!r} not in chart {self.names}") from None

    def var(self, name: str) -> "Poly":
        """The coordinate function for ``name`` as a Poly."""
        i = self.index(name)
        exp = tuple(1 if j == i else 0 for j in range(self.dim))
        return Poly._make(self, {exp: Fraction(1)})

    def const(self, c: Rational) -> "Poly":
        c = _exact(c)
        return Poly._make(self, {(0,) * self.dim: c} if c else {})

    def zero(self) -> "Poly":
        return Poly._make(self, {})

    def one(self) -> "Poly":
        return self.const(1)

    def geometric_names(self) -> tuple[str, ...]:
        return self.names[: self.n_geom]


class ChartMismatch(ValueError):
    """Raised when operands live on different charts or name an unknown variable."""


def _require_same_chart(a: "Poly", b: "Poly") -> None:
    if a.chart != b.chart:
        raise ChartMismatch(f"chart mismatch: {a.chart.names} vs {b.chart.names}")


class Poly:
    """Immutable sparse polynomial with Fraction coefficients.

    The constructor is the boundary for terms from outside the library and
    checks them; operations build results through :meth:`_make`.
    """

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms: Mapping[Exponent, Fraction]):
        clean: dict[Exponent, Fraction] = {}
        dim = chart.dim
        for exp, coeff in terms.items():
            if len(exp) != dim:
                raise ValueError(f"exponent {exp} has wrong length for chart of dim {dim}")
            c = _exact(coeff)
            if c != 0:
                clean[exp] = c
        self.chart = chart
        self.terms = clean

    @classmethod
    def _make(cls, chart: Chart, terms: dict[Exponent, Fraction]) -> "Poly":
        """Wrap terms the library built itself: full-length exponents, nonzero Fractions."""
        p = object.__new__(cls)
        p.chart = chart
        p.terms = terms
        return p

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- ring structure -------------------------------------------------

    def __add__(self, other: "Poly | Rational") -> "Poly":
        other = self._coerce(other)
        _require_same_chart(self, other)
        if not (self.terms and other.terms):  # a Poly is immutable, so a zero hands back the other operand
            return other if other.terms else self
        out = dict(self.terms)
        for exp, c in other.terms.items():
            add_term(out, exp, c)
        return Poly._make(self.chart, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._make(self.chart, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly | Rational") -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "Poly | Rational") -> "Poly":
        return (-self) + self._coerce(other)

    def __mul__(self, other: "Poly | Rational") -> "Poly":
        other = self._coerce(other)
        _require_same_chart(self, other)
        if not (self.terms and other.terms):  # the zero operand is the product
            return other if self.terms else self
        out: dict[Exponent, Fraction] = {}
        add_product(out, self, other)
        return Poly._make(self.chart, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = self.chart.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, c: Rational) -> "Poly":
        c = _exact(c)
        if c == 0:
            return self.chart.zero()
        return Poly._make(self.chart, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.chart == other.chart and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == self._coerce(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.chart, frozenset(self.terms.items())))

    def _coerce(self, other: "Poly | Rational") -> "Poly":
        if isinstance(other, Poly):
            return other
        return self.chart.const(other)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return next(iter(self.terms.values()), Fraction(0))

    def variables(self) -> set[str]:
        used: set[str] = set()
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    used.add(self.chart.names[i])
        return used

    # -- calculus ----------------------------------------------------------

    def differentiate(self, name: str) -> "Poly":
        """Exact partial derivative with respect to a chart variable."""
        i = self.chart.index(name)
        out: dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            e = exp[i]
            if e == 0:
                continue
            # distinct exponents stay distinct after lowering entry i
            out[exp[:i] + (e - 1,) + exp[i + 1 :]] = c * e
        return Poly._make(self.chart, out)

    def evaluate(self, point: Sequence[Rational]) -> Fraction:
        """Exact value at a full-length point of ints and Fractions.

        Each term is a product of integer numerators over a product of
        denominators, and the sum is kept over the lcm of the term
        denominators, so only the result is built as a Fraction.
        """
        if len(point) != self.chart.dim:
            raise ValueError(
                f"point of length {len(point)} for chart of dim {self.chart.dim}"
            )
        num, den = 0, 1
        for exp, c in self.terms.items():
            tn, td = c.numerator, c.denominator
            for v, e in zip(point, exp):
                if e:
                    tn *= v.numerator**e
                    td *= v.denominator**e
            if td == den:
                num += tn
            else:
                g = math.gcd(td, den)
                num = num * (td // g) + tn * (den // g)
                den = den // g * td
        return Fraction(num, den)

    def substitute(self, assignment: Mapping[str, "Poly | Rational"]) -> "Poly":
        """Substitute polynomials (or rationals) for a subset of the variables.

        Variables not mentioned are kept.  All replacement polynomials must
        live on the same chart, which is also the chart of the result.
        """
        if not assignment:
            return self
        chart = self.chart
        images = [chart.var(name) for name in chart.names]
        for name, value in assignment.items():
            i = chart.index(name)
            images[i] = value if isinstance(value, Poly) else chart.const(value)
            _require_same_chart(self, images[i])
        return self.compose(images, chart)

    def compose(self, images: Sequence["Poly"], chart: Chart) -> "Poly":
        """p(images[0], ..., images[dim-1]): one image on ``chart`` per variable of p."""
        if len(images) != self.chart.dim:
            raise ValueError(f"{len(images)} images for a chart of dim {self.chart.dim}")
        out: dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            term = chart.const(c)
            for image, e in zip(images, exp):
                if e:
                    term = term * image**e
            for key, value in term.terms.items():
                add_term(out, key, value)
        return Poly._make(chart, out)

    # -- rendering ----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in graded-lex order (highest total degree first)."""
        return sorted(self.terms.items(), key=lambda t: (-sum(t[0]), tuple(-e for e in t[0])))

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r})"


def format_poly(p: Poly) -> str:
    """Canonical text form, e.g. ``3*x1^2 - 3*t1``."""
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for exp, coeff in p.sorted_terms():
        factors = [
            f"{p.chart.names[i]}^{e}" if e > 1 else p.chart.names[i]
            for i, e in enumerate(exp)
            if e
        ]
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


# -- integer evaluation kernels ---------------------------------------------------


class IntegerPoint(NamedTuple):
    """A rational point q = num / den, integer numerators over one positive denominator.

    den is the lcm of the coordinates' denominators in lowest terms, so a
    rational point has exactly one IntegerPoint.
    """

    num: tuple[int, ...]
    den: int

    def fractions(self) -> list[Fraction]:
        """The coordinates as Fractions, for a record that prints the point."""
        return [Fraction(a, self.den) for a in self.num]


#: a point as an IntegerPoint, or as its int and Fraction coordinates
Point = Union[IntegerPoint, Sequence[Rational]]


def lowest_terms_point(pairs: Sequence[tuple[int, int]]) -> IntegerPoint:
    """The IntegerPoint with coordinates a / b, for pairs (a, b) in lowest terms with b > 0."""
    den = math.lcm(*[b for _, b in pairs])
    return IntegerPoint(tuple([a * (den // b) for a, b in pairs]), den)


def integer_point(point: Point) -> IntegerPoint:
    """The point as an IntegerPoint; an IntegerPoint is returned as it is.

    A function that reads kernels at a point its caller gives takes the point
    through here, so a sampled IntegerPoint and coordinates given as ints and
    Fractions run one integer path.
    """
    if isinstance(point, IntegerPoint):
        return point
    return lowest_terms_point([(v.numerator, v.denominator) for v in point])


class IntegerKernel:
    """A fixed list of polynomials on one chart, compiled for integer points.

    Every coefficient is lifted over the lcm L of the coefficient
    denominators, and every term is padded to the kernel's total degree
    ``deg`` (in all chart variables, parameters included) by powers of the
    point's denominator.  At q = num / den the kernel returns the values
    times the positive scale L * den^deg, using integer multiply-adds only.
    """

    __slots__ = ("dim", "degree", "lcm", "polys")

    def __init__(self, chart: Chart, polys: Sequence[Poly]):
        if any(p.chart != chart for p in polys):
            raise ChartMismatch(f"kernel polynomials must live on chart {chart.names}")
        coeffs = [c for p in polys for c in p.terms.values()]
        self.dim = chart.dim
        self.lcm = math.lcm(*(c.denominator for c in coeffs))
        self.degree = max((sum(exp) for p in polys for exp in p.terms), default=0)
        # per term: lifted integer coefficient, one variable index per unit of
        # degree, and the power of den that pads the term to the kernel degree
        self.polys = tuple(
            tuple(
                (
                    c.numerator * (self.lcm // c.denominator),
                    tuple(i for i, e in enumerate(exp) for _ in range(e)),
                    self.degree - sum(exp),
                )
                for exp, c in p.terms.items()
            )
            for p in polys
        )

    def __call__(self, num: Sequence[int], den: int) -> tuple[list[int], int]:
        """The values at num / den, each times the returned positive scale."""
        if len(num) != self.dim:
            raise ValueError(f"point of length {len(num)} for chart of dim {self.dim}")
        powers = [1]
        for _ in range(self.degree):
            powers.append(powers[-1] * den)
        values = []
        for terms in self.polys:
            total = 0
            for c, factors, pad in terms:
                for i in factors:
                    c *= num[i]
                total += c * powers[pad]
            values.append(total)
        return values, self.lcm * powers[self.degree]


# -- parsing ------------------------------------------------------------------


class PolyParseError(ValueError):
    pass


#: a variable name, in polynomial text and in ``interval.parse_box``
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: a signed rational, p/q or a decimal, in ASCII digits on every interpreter: CLI options and box bounds.
#: The exponent has at most 4 digits, since Fraction builds 10**exponent before any other check runs.
RATIONAL = re.compile(r"[-+]?(?:\d+/\d+|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d{1,4})?)", re.ASCII)
# the ASCII tokens: decimal integers, identifiers and the operators +-*^()/;
# the group catches any other non-space character
_TOKEN = re.compile(rf"[0-9]+|{IDENTIFIER.pattern}|[-+*^()/]|(\S)", re.ASCII)
#: the term products one parse may spend, charged before each product (|p|*|q|) and power (its largest step)
#: runs: (x1+x2+x3+t1+t2+t3)^12 spends 213444 of them, and (x1+1)^998, about 2 s, spends them all
MAX_TERM_PRODUCTS = 250_000
#: the most bits a power's or a product's coefficients may take, bounded before it runs: 2^15 bits is
#: about 9900 digits, past CPython's 4300-digit limit on printing an int, so (2*x1)^20000 still parses and
#: reaches the print check, while (3*x1)^99999999 and (3*x1)^16000*(3*x1)^16000 are refused at once
MAX_COEFFICIENT_BITS = 1 << 15


def _power_step_products(m: int, e: int) -> int:
    """The most term products one step of ``p ** e`` takes for an m-term p.

    p^a has at most C(m + a - 1, a) terms, which is log-concave in a.  So a
    step that multiplies p^a by p^b, a + b <= e, takes at most the square of
    that count at a = ceil(e / 2), and the square also bounds the terms of p^e.
    """
    if m < 2 or e < 2:
        return m
    c = (e + 1) // 2
    return math.comb(m + c - 1, c) ** 2


def _power_coefficient_bits(p: Poly, e: int) -> int:
    """A bound on the bits of every numerator and denominator of ``p ** e``'s coefficients.

    Over the lcm L of p's coefficient denominators, p is a sum of integer
    numerators n_i, and S = sum |n_i| bounds every coefficient of the
    numerator of p^e by S^e; every denominator divides L^e.  So e times
    ceil(log2 max(S, L)) bounds both sides.  S and L of a product p * q are
    at most S_p * S_q and L_p * L_q, so at e = 1 the bound of a product is
    at most the sum of its factors' bounds.
    """
    coeffs = p.terms.values()
    den = math.lcm(*(c.denominator for c in coeffs))
    total = sum(abs(c.numerator) * (den // c.denominator) for c in coeffs)
    return e * (max(total, den) - 1).bit_length()


class _Parser:
    """Recursive-descent parser for the canonical polynomial grammar.

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' integer)?
    atom   := integer ('/' integer)? | name | '(' expr ')' | ('+'|'-') factor
    """

    def __init__(self, text: str, chart: Chart):
        self.tokens = []
        for m in _TOKEN.finditer(text):
            if m.group(1):
                raise PolyParseError(f"unexpected character {m.group(1)!r} in polynomial text")
            self.tokens.append(m.group())
        self.pos = 0
        self.chart = chart
        self.budget = MAX_TERM_PRODUCTS

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise PolyParseError("unexpected end of input")
        self.pos += 1
        return tok

    @staticmethod
    def integer(tok: str) -> int:
        """A token read as a decimal integer: a numerator, denominator or exponent."""
        if not tok.isdigit():
            raise PolyParseError(f"expected an integer, got {tok!r}")
        try:
            return int(tok)
        except ValueError:  # past CPython's limit on int-string conversion
            raise PolyParseError(f"integer of {len(tok)} digits is too long") from None

    def spend(self, products: int) -> None:
        """Charge a product's or power's term products to the parse, refusing before any of them runs."""
        self.budget -= products
        if self.budget < 0:
            raise PolyParseError(f"expanding the text takes more than {MAX_TERM_PRODUCTS} term products")

    def parse(self) -> Poly:
        p = self.expr()
        if self.peek() is not None:
            raise PolyParseError(f"trailing input at token {self.peek()!r}")
        return p

    def expr(self) -> Poly:
        p = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Poly:
        p = self.factor()
        while self.peek() == "*":
            self.take()
            q = self.factor()
            self.spend(len(p.terms) * len(q.terms))
            if _power_coefficient_bits(p, 1) + _power_coefficient_bits(q, 1) > MAX_COEFFICIENT_BITS:
                raise PolyParseError(f"a product's coefficients take more than {MAX_COEFFICIENT_BITS} bits")
            p = p * q
        return p

    def factor(self) -> Poly:
        # a signed atom took its power inside: -x^2 is -(x^2), and -x^2^3 fails as x^2^3 does
        signed = self.peek() in ("+", "-")
        p = self.atom()
        if self.peek() == "^" and not signed:
            self.take()
            e = self.integer(self.take())
            self.spend(_power_step_products(len(p.terms), e))
            if _power_coefficient_bits(p, e) > MAX_COEFFICIENT_BITS:
                raise PolyParseError(f"a power's coefficients take more than {MAX_COEFFICIENT_BITS} bits")
            p = p**e
        return p

    def atom(self) -> Poly:
        tok = self.take()
        if tok.isdigit():
            num = self.integer(tok)
            if self.peek() != "/":
                return self.chart.const(num)
            self.take()
            den = self.integer(self.take())
            if den == 0:
                raise PolyParseError("zero rational denominator")
            return self.chart.const(Fraction(num, den))
        if tok in ("+", "-"):
            return self.factor() if tok == "+" else -self.factor()
        if tok == "(":
            p = self.expr()
            if self.take() != ")":
                raise PolyParseError("missing closing parenthesis")
            return p
        if IDENTIFIER.fullmatch(tok):
            return self.chart.var(tok)
        raise PolyParseError(f"unexpected token {tok!r}")


def parse_poly(text: str, chart: Chart) -> Poly:
    """Parse the canonical grammar produced by :func:`format_poly`."""
    try:
        return _Parser(text, chart).parse()
    except RecursionError:
        raise PolyParseError("expression is nested too deeply") from None


# -- common charts -------------------------------------------------------------

#: Canonical 6-dimensional chart used by the local singularity models.
CHART6 = Chart(("t1", "t2", "t3", "x1", "x2", "x3"))


def chart_2n(n: int, params: Sequence[str] = ()) -> Chart:
    """Chart (t1..t_{2n-3}, x1, x2, x3[, params...]) for half-dimension n."""
    if n < 3:
        raise ValueError("half-dimension n must be at least 3")
    names = tuple(f"t{i}" for i in range(1, 2 * n - 2)) + ("x1", "x2", "x3") + tuple(params)
    return Chart(names, n_geom=2 * n)
