"""Interval arithmetic and the certified box minimum."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from singfib.interval import (
    BoxParseError,
    CertificationFailure,
    Interval,
    certified_minimum,
    corners,
    enclose,
    format_box,
    parse_box,
)
from singfib.poly import Chart

C3 = Chart(("x", "u", "s"))


def test_interval_arithmetic():
    a = Interval(Fraction(-1), Fraction(2))
    b = Interval(Fraction(3), Fraction(4))
    assert (a + b) == Interval(Fraction(2), Fraction(6))
    assert (a * b) == Interval(Fraction(-4), Fraction(8))
    assert a.power(2) == Interval(Fraction(0), Fraction(4))
    assert a.power(3) == Interval(Fraction(-1), Fraction(8))
    assert a.scale(Fraction(-2)) == Interval(Fraction(-4), Fraction(2))


def test_enclosure_soundness_randomized():
    rng = random.Random(3)
    for _ in range(30):
        p = C3.zero()
        for _ in range(rng.randint(1, 4)):
            t = C3.const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 3)):
                t = t * C3.var(rng.choice(C3.names))
            p = p + t
        box = {n: Interval(Fraction(rng.randint(-3, 0)), Fraction(rng.randint(1, 3))) for n in C3.names}
        hull = enclose(p, box)
        for corner in corners(box):
            val = p.evaluate([corner[n] for n in C3.names])
            assert hull.lo <= val <= hull.hi


def test_certified_minimum_linear():
    x = C3.var("x")
    box = {"x": Interval(Fraction(-1), Fraction(1))}
    m, wit = certified_minimum(-12 * x, box)
    assert m == -12 and wit["x"] == 1


def test_certified_minimum_interior_face():
    # 12 x^2 - 2 s attains its minimum on the x = 0 face
    x, s = C3.var("x"), C3.var("s")
    box = {"x": Interval(Fraction(-1), Fraction(1)), "s": Interval(Fraction(-1, 10), Fraction(1, 10))}
    m, wit = certified_minimum(12 * x**2 - 2 * s, box)
    assert m == Fraction(-1, 5)
    assert wit["s"] == Fraction(1, 10) and wit["x"] == 0


def test_certified_minimum_cubic_mixed():
    x, u, s = C3.var("x"), C3.var("u"), C3.var("s")
    box = {
        "x": Interval(Fraction(-1), Fraction(1)),
        "u": Interval(Fraction(-1, 10), Fraction(1, 10)),
        "s": Interval(Fraction(-1, 10), Fraction(1, 10)),
    }
    p = 4 * (-10 * x**3 - 3 * u * x - s)
    m, wit = certified_minimum(p, box)
    assert m == Fraction(-208, 5)
    assert p.evaluate([wit[n] for n in C3.names]) == m


def test_certified_minimum_randomized_against_grid():
    # quadratics whose vertex sits at a dyadic point, so bisection can land on it
    rng = random.Random(11)
    x, u = C3.var("x"), C3.var("u")
    for _ in range(15):
        c = rng.choice((0, 1, 2, 4))
        vertex = Fraction(rng.randint(-8, 8), 4)
        p = (
            C3.const(rng.randint(-3, 3))
            + x**2 * c
            - x * (2 * c * vertex)
            + x * (0 if c else rng.randint(-3, 3))
            + u * rng.randint(-2, 2)
        )
        box = {"x": Interval(Fraction(-2), Fraction(2)), "u": Interval(Fraction(-1), Fraction(1))}
        m, wit = certified_minimum(p, box)
        assert p.evaluate([wit.get(n, Fraction(0)) for n in C3.names]) == m
        # dense rational grid can never go below the certified minimum
        steps = [Fraction(i, 4) for i in range(-8, 9)]
        for xv, uv in product(steps, (Fraction(-1), Fraction(0), Fraction(1))):
            assert p.evaluate([xv, uv, Fraction(0)]) >= m


def test_certified_minimum_refuses_non_dyadic_interior_vertex():
    # exactness is refused (not silently approximated) off the reachable set
    x = C3.var("x")
    box = {"x": Interval(Fraction(-2), Fraction(2))}
    with pytest.raises(CertificationFailure):
        certified_minimum(3 * x**2 - x, box, max_depth=12)


def test_box_parsing_round_trip():
    box = parse_box("|x|<=1,|u|<=1/10")
    assert box["x"] == Interval(Fraction(-1), Fraction(1))
    assert box["u"] == Interval(Fraction(-1, 10), Fraction(1, 10))
    assert format_box(box) == "|u|<=1/10,|x|<=1"
    asym = parse_box("1/4<=x<=1/2")
    assert asym["x"] == Interval(Fraction(1, 4), Fraction(1, 2))
    with pytest.raises(BoxParseError):
        parse_box("x <")
    with pytest.raises(BoxParseError):
        parse_box("")


@pytest.mark.parametrize("bound", ["\u0661", "1_0", "\u00bd", "\uff11", "1/\u0662"])
def test_box_bounds_are_ascii_rationals_only(bound):
    # Fraction alone reads the Arabic-Indic one as 1 and, from CPython 3.11 on, 1_0 as 10
    with pytest.raises(BoxParseError, match="bad rational"):
        parse_box(f"|x|<={bound}")


@pytest.mark.parametrize("bound, value", [("1/2", Fraction(1, 2)), ("0.5", Fraction(1, 2)), ("1e-1", Fraction(1, 10))])
def test_box_bounds_read_fractions_and_decimals(bound, value):
    assert parse_box(f"|x|<={bound}")["x"] == Interval(-value, value)
    assert parse_box(f"-3/4<=x<={bound}")["x"] == Interval(Fraction(-3, 4), value)
