"""Exact polynomial layer: ring axioms, calculus, parsing, rendering."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from singfib import poly
from singfib.poly import (
    CHART6,
    RATIONAL,
    Chart,
    ChartMismatch,
    MAX_COEFFICIENT_BITS,
    MAX_TERM_PRODUCTS,
    Poly,
    PolyParseError,
    _power_coefficient_bits,
    _power_step_products,
    format_poly,
    parse_poly,
)


def rand_poly(chart: Chart, rng: random.Random, terms: int = 4, deg: int = 3) -> Poly:
    p = chart.zero()
    for _ in range(rng.randint(0, terms)):
        t = chart.const(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        for _ in range(rng.randint(0, deg)):
            t = t * chart.var(rng.choice(chart.names))
        p = p + t
    return p


def test_differentiate_cusp_matrix_entry():
    x1, t1 = CHART6.var("x1"), CHART6.var("t1")
    p = x1**3 - 3 * t1 * x1
    assert p.differentiate("x1") == 3 * x1**2 - 3 * t1


def test_differentiate_constant_in_other_variable():
    assert CHART6.var("t1").differentiate("x2").is_zero()


def test_differentiate_butterfly_entry():
    c = CHART6
    t1, t2, t3, x1 = c.var("t1"), c.var("t2"), c.var("t3"), c.var("x1")
    p = x1**5 + t1 * x1**3 + t2 * x1**2 + t3 * x1
    assert p.differentiate("x1") == 5 * x1**4 + 3 * t1 * x1**2 + 2 * t2 * x1 + t3


def test_differentiate_unknown_variable():
    with pytest.raises(ChartMismatch):
        CHART6.var("x1").differentiate("q")


def test_a_chart_has_one_zero():
    assert CHART6.zero() is CHART6.zero()
    assert CHART6.zero().terms == {} and CHART6.zero().chart is CHART6


def test_equal_charts_compare_and_hash_equal_with_zeros_of_their_own():
    a, b = Chart(("p", "q", "s"), n_geom=2), Chart(("p", "q", "s"), n_geom=2)
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a.zero() == b.zero() and a.zero() is not b.zero()
    assert a != Chart(("p", "q", "s")) and repr(a) == "Chart(names=('p', 'q', 's'), n_geom=2)"


def test_the_derivative_of_a_zero_is_the_zero_and_still_checks_the_name():
    zero = CHART6.zero()
    assert zero.differentiate("x1") is zero
    with pytest.raises(ChartMismatch):
        zero.differentiate("q")


def test_evaluate_examples():
    c = CHART6
    p = c.var("x1") ** 2 + c.var("x3") ** 2
    assert p.evaluate((0, 0, 0, 1, 0, 1)) == 2
    assert c.zero().evaluate((3, 1, 4, 1, 5, 9)) == 0
    crit = 3 * c.var("x1") ** 2 - 3 * c.var("t1")
    assert crit.evaluate((1, 0, 0, 1, 0, 0)) == 0


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        CHART6.var("x1").evaluate((1, 2, 3))


def test_arith_examples():
    c = CHART6
    x1, x2, x3 = c.var("x1"), c.var("x2"), c.var("x3")
    assert x1 * x1 == x1**2
    p = x1**3 - 2 * x2 + c.const(Fraction(1, 3))
    assert (p + (-p)).is_zero()
    assert (x2 + x3) * (x2 - x3) == x2**2 - x3**2


def test_ring_axioms_randomized():
    rng = random.Random(101)
    for _ in range(60):
        a, b, c = (rand_poly(CHART6, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_differentiate_commutes():
    rng = random.Random(55)
    for _ in range(40):
        p = rand_poly(CHART6, rng)
        v, w = rng.sample(CHART6.names, 2)
        assert p.differentiate(v).differentiate(w) == p.differentiate(w).differentiate(v)


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(77)
    for _ in range(40):
        p, q = rand_poly(CHART6, rng), rand_poly(CHART6, rng)
        pt = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(6)]
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
        assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)


def test_sympy_oracle_product():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(13)
    syms = sympy.symbols(" ".join(CHART6.names))

    def to_sympy(p: Poly):
        total = sympy.Integer(0)
        for exp, coeff in p.terms.items():
            term = sympy.Rational(coeff.numerator, coeff.denominator)
            for s, e in zip(syms, exp):
                term *= s**e
            total += term
        return sympy.expand(total)

    for _ in range(10):
        a, b = rand_poly(CHART6, rng), rand_poly(CHART6, rng)
        assert to_sympy(a * b) == sympy.expand(to_sympy(a) * to_sympy(b))
        v = rng.choice(CHART6.names)
        assert to_sympy(a.differentiate(v)) == sympy.expand(sympy.diff(to_sympy(a), syms[CHART6.index(v)]))


def test_format_canonical():
    c = CHART6
    p = 3 * c.var("x1") ** 2 - 3 * c.var("t1")
    assert format_poly(p) == "3*x1^2 - 3*t1"
    assert format_poly(c.zero()) == "0"


def test_parse_round_trip():
    rng = random.Random(31)
    for _ in range(40):
        p = rand_poly(CHART6, rng)
        assert parse_poly(format_poly(p), CHART6) == p


def test_parse_rationals_and_parens():
    c = CHART6
    p = parse_poly("1/2*x1^2 - (x2 + x3)*(x2 - x3)", c)
    assert p == c.var("x1") ** 2 * Fraction(1, 2) - (c.var("x2") ** 2 - c.var("x3") ** 2)


def test_parse_errors():
    with pytest.raises(PolyParseError):
        parse_poly("x1 +", CHART6)
    with pytest.raises(PolyParseError):
        parse_poly("x1 ^ x2", CHART6)
    with pytest.raises(ChartMismatch):
        parse_poly("nosuchvar", CHART6)


@pytest.mark.parametrize(
    "text",
    ["x1^\u00b2", "\u00b2", "\u0663*x1", "\u00e9", "1" * 5000, "x1^" + "1" * 5000, "1/" + "1" * 5000, "1/0", "x1^-1"],
    ids=["superscript-exponent", "superscript", "arabic-indic-digit", "letter-e-acute", "long-literal",
         "long-exponent", "long-denominator", "zero-denominator", "negative-exponent"],
)
def test_parse_rejects_text_outside_the_ascii_grammar(text):
    with pytest.raises(PolyParseError):
        parse_poly(text, CHART6)


def test_parse_expands_what_the_cap_admits():
    assert len(parse_poly("(x1+x2+x3+t1+t2+t3)^12", CHART6).terms) == 6188
    assert parse_poly("x1^99999999", CHART6) == Poly(CHART6, {(0, 0, 0, 99999999, 0, 0): 1})


def test_parse_refuses_a_product_past_the_cap_before_it_multiplies(monkeypatch):
    def no_product(*args):
        raise AssertionError("a product ran")

    chart = Chart(tuple(f"a{i}" for i in range(501)))
    total = "(" + "+".join(chart.names) + ")"
    monkeypatch.setattr(Poly, "__mul__", no_product)
    with pytest.raises(PolyParseError, match=f"more than {MAX_TERM_PRODUCTS} term products"):
        parse_poly(f"{total}*{total}", chart)


def test_parse_charges_every_product_to_one_budget(monkeypatch):
    monkeypatch.setattr(poly, "MAX_TERM_PRODUCTS", 10)
    assert len(parse_poly("(x1+x2+x3)*(x1-x2)", CHART6).terms) == 4
    # each product takes 6 term products, within the cap, but the two together are not
    with pytest.raises(PolyParseError, match="more than 10 term products"):
        parse_poly("(x1+x2+x3)*(x1-x2) + (x1+x2)*(t1+t2+t3)", CHART6)


def test_every_step_of_a_power_takes_at_most_its_charge(monkeypatch):
    steps = []
    product = Poly.__mul__

    def counted(p, q):
        steps.append(len(p.terms) * len(q.terms))
        return product(p, q)

    monkeypatch.setattr(Poly, "__mul__", counted)
    # the zero polynomial, then 1, 1 + x1, 1 + x1 + x2, 1 + x1 + x2 + x3: m terms
    sums = [sum(map(CHART6.var, ("x1", "x2", "x3")[:k]), CHART6.one()) for k in range(4)]
    for m, p in enumerate([CHART6.zero()] + sums):
        for e in range(14):
            steps.clear()
            power = p**e
            assert max(steps, default=0) <= _power_step_products(m, e)
            assert len(power.terms) <= max(_power_step_products(m, e), 1)


def _no_power(*args):
    raise AssertionError("a power ran")


@pytest.mark.parametrize("text", ["(3*x1)^99999999", "(3*x1)^9999999", "(1/3*x1)^99999999", "(5/7*x1*x2)^12000"])
def test_parse_refuses_a_power_with_coefficients_past_the_cap_before_it_runs(monkeypatch, text):
    monkeypatch.setattr(Poly, "__pow__", _no_power)
    with pytest.raises(PolyParseError, match=f"more than {MAX_COEFFICIENT_BITS} bits"):
        parse_poly(text, CHART6)


def test_parse_admits_the_powers_under_both_caps(monkeypatch):
    assert parse_poly("x1^99999999", CHART6) == Poly(CHART6, {(0, 0, 0, 99999999, 0, 0): 1})
    assert parse_poly("(2*x1)^20000", CHART6) == Poly(CHART6, {(0, 0, 0, 20000, 0, 0): 2**20000})
    # (x1+1)^998 takes about 2 s to expand, so the power only records that it was reached
    reached = []
    monkeypatch.setattr(Poly, "__pow__", lambda p, e: reached.append((p, e)) or p)
    parse_poly("(x1+1)^998", CHART6)
    assert reached == [(CHART6.var("x1") + 1, 998)]


@pytest.mark.parametrize("factors", [2, 200])
def test_parse_refuses_a_product_of_admitted_powers_before_it_runs(monkeypatch, factors):
    product = Poly.__mul__

    def guarded(p, q):
        # each (3*x1)^16000 is admitted on its own, and no product of two of them may run
        if min(max(map(sum, r.terms), default=0) for r in (p, q)) >= 16000:
            raise AssertionError("a product of two admitted powers ran")
        return product(p, q)

    monkeypatch.setattr(Poly, "__mul__", guarded)
    assert parse_poly("(3*x1)^16000", CHART6) == Poly(CHART6, {(0, 0, 0, 16000, 0, 0): 3**16000})
    with pytest.raises(PolyParseError, match=f"a product's coefficients take more than {MAX_COEFFICIENT_BITS} bits"):
        parse_poly("*".join(["(3*x1)^16000"] * factors), CHART6)


@pytest.mark.parametrize(
    "left, right",
    [("x1+1", "x1-1"), ("3*x1 - 2*x2", "1/3*x1 + 1/2"), ("-5/6*x1*x2 + 7/4*x3 - 1", "(x1+2)^5"), ("0", "x1")],
)
def test_coefficient_bits_of_a_product_are_at_most_the_sum_of_its_factors(left, right):
    p, q = parse_poly(left, CHART6), parse_poly(right, CHART6)
    assert _power_coefficient_bits(p * q, 1) <= _power_coefficient_bits(p, 1) + _power_coefficient_bits(q, 1)


@pytest.mark.parametrize(
    "text, e", [("x1+1", 9), ("3*x1 - 2*x2", 7), ("1/3*x1 + 1/2", 8), ("-5/6*x1*x2 + 7/4*x3 - 1", 6), ("0", 5)]
)
def test_power_coefficient_bits_bound_the_expanded_coefficients(text, e):
    p = parse_poly(text, CHART6)
    bits = max((max(abs(c.numerator), c.denominator) - 1).bit_length() for c in (p**e).terms.values()) if p else 0
    assert bits <= _power_coefficient_bits(p, e)


def test_parse_signs_by_one_rule():
    x1, t1 = CHART6.var("x1"), CHART6.var("t1")
    assert parse_poly("-x1^2", CHART6) == -(x1**2)
    assert parse_poly("- -x1 + +t1", CHART6) == x1 + t1
    assert parse_poly("2*-x1^3", CHART6) == -2 * x1**3
    assert parse_poly("-(x1 + t1)^2", CHART6) == -((x1 + t1) ** 2)
    for text in ("x1^2^3", "-x1^2^3"):  # one power per atom, signed or not
        with pytest.raises(PolyParseError, match="trailing input"):
            parse_poly(text, CHART6)


def test_chart_mismatch_add():
    other = Chart(("a", "b", "c", "d", "e", "f"))
    with pytest.raises(ChartMismatch):
        CHART6.var("x1") + other.var("a")


def _term_loop_sum(p: Poly, q: Poly) -> Poly:
    out: dict = {}
    for terms in (p.terms, q.terms):
        for exp, c in terms.items():
            poly.add_term(out, exp, c)
    return Poly(p.chart, out)


def _term_loop_product(p: Poly, q: Poly) -> Poly:
    out: dict = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            poly.add_term(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
    return Poly(p.chart, out)


@pytest.mark.parametrize("seed", range(10))
def test_a_zero_operand_gives_the_term_loop_result(seed):
    zero = CHART6.zero()
    p = rand_poly(CHART6, random.Random(seed))
    for a in (p, zero):
        for z in (zero, 0):
            got = {"a+z": a + z, "z+a": z + a, "a-z": a - z, "z-a": z - a, "a*z": a * z, "z*a": z * a}
            want = {
                "a+z": _term_loop_sum(a, zero),
                "z+a": _term_loop_sum(zero, a),
                "a-z": _term_loop_sum(a, zero),
                "z-a": _term_loop_sum(zero, -a),
                "a*z": _term_loop_product(a, zero),
                "z*a": _term_loop_product(zero, a),
            }
            for key, value in got.items():
                assert isinstance(value, Poly) and value.chart == CHART6, key
                assert value.terms == want[key].terms, key


def test_a_zero_on_another_chart_still_mismatches():
    other = Chart(("a", "b", "c", "d", "e", "f"))
    for p, q in [
        (CHART6.var("x1"), other.zero()),
        (other.zero(), CHART6.var("x1")),
        (CHART6.zero(), other.var("a")),
        (CHART6.zero(), other.zero()),
    ]:
        for op in (lambda a, b: a + b, lambda a, b: a * b):
            with pytest.raises(ChartMismatch):
                op(p, q)


def test_compose_checks_its_images():
    p = CHART6.var("x1") ** 2 * Fraction(1, 3) + CHART6.var("t2")
    other = Chart(("a", "b"))
    images = [other.var("a")] * 6
    with pytest.raises(ChartMismatch):
        p.compose(images, Chart(("a", "b", "c")))
    with pytest.raises(ValueError):
        p.compose(images[:5], other)
    # x1 -> a/2 + b, t2 -> 3, the rest -> 0: (a/2 + b)^2 / 3 + 3
    images = [other.zero(), other.const(3), other.zero(), other.var("a") * Fraction(1, 2) + other.var("b")]
    got = p.compose(images + [other.zero(), other.zero()], other)
    assert got == parse_poly("1/12*a^2 + 1/3*a*b + 1/3*b^2 + 3", other)


def test_substitute():
    c = CHART6
    x1, t1 = c.var("x1"), c.var("t1")
    p = x1**2 + t1
    assert p.substitute({"x1": t1}) == t1**2 + t1
    assert p.substitute({"x1": 2}) == t1 + 4


INEXACT = (0.1, 0.5, "1/2", "3", None)


@pytest.mark.parametrize("c", INEXACT)
def test_const_accepts_only_exact_rationals(c):
    with pytest.raises(TypeError):
        CHART6.const(c)
    # arithmetic with a bare coefficient goes through const
    with pytest.raises(TypeError):
        CHART6.var("x1") * c
    assert CHART6.const(Fraction(1, 10)) == CHART6.const(1) * Fraction(1, 10)


@pytest.mark.parametrize("c", INEXACT)
def test_poly_constructor_accepts_only_exact_rationals(c):
    with pytest.raises(TypeError):
        Poly(CHART6, {(0, 0, 0, 1, 0, 0): c})
    assert Poly(CHART6, {(0, 0, 0, 1, 0, 0): 2}) == CHART6.var("x1") * 2


@pytest.mark.parametrize("c", INEXACT)
def test_scale_accepts_only_exact_rationals(c):
    x1 = CHART6.var("x1")
    with pytest.raises(TypeError):
        x1.scale(c)
    assert x1.scale(Fraction(1, 2)).terms == {(0, 0, 0, 1, 0, 0): Fraction(1, 2)}


@pytest.mark.parametrize("text", ["1e-1", "2.5E+3", "1e9999", "-3/4", ".5e2"])
def test_rational_pattern_takes_exponents_of_up_to_four_digits(text):
    assert RATIONAL.fullmatch(text)


@pytest.mark.parametrize("text", ["1e99999999", "1e-10000", "1e+10000"])
def test_rational_pattern_refuses_longer_exponents(text):
    # Fraction would build 10**exponent before any other check
    assert RATIONAL.fullmatch(text) is None
