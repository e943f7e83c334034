"""Rational interval arithmetic and certified polynomial minima on boxes.

Intervals have exact Fraction endpoints, so enclosure is sound with no
rounding story.  Monomials are enclosed power-by-power (even powers fold
to [0, max]), which is what makes the bound checks close at minima that
sit on a face of the box.

``certified_minimum`` proves an exact lower bound: it scans the box
corners for a candidate, then runs branch-and-bound where a sub-box is
discharged either because its interval enclosure already clears the
candidate or because every partial derivative has a definite sign on it
(then the exact minimum of the sub-box sits at a known corner and one
rational evaluation settles it).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping

from .poly import Poly


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: "Interval") -> "Interval":
        prods = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(prods), max(prods))

    def scale(self, c: Fraction) -> "Interval":
        if c >= 0:
            return Interval(c * self.lo, c * self.hi)
        return Interval(c * self.hi, c * self.lo)

    def power(self, e: int) -> "Interval":
        if e == 0:
            return Interval(Fraction(1), Fraction(1))
        if e % 2 == 1 or self.lo >= 0:
            return Interval(self.lo**e, self.hi**e)
        if self.hi <= 0:
            return Interval(self.hi**e, self.lo**e)
        # even power straddling zero
        return Interval(Fraction(0), max(self.lo**e, self.hi**e))

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


Box = dict[str, Interval]


def enclose(p: Poly, box: Mapping[str, Interval]) -> Interval:
    """Sound interval enclosure of p over the box; every variable of p must be boxed."""
    chart = p.chart
    total = Interval(Fraction(0), Fraction(0))
    for exp, coeff in p.terms.items():
        mono = Interval(Fraction(1), Fraction(1))
        for i, e in enumerate(exp):
            if not e:
                continue
            name = chart.names[i]
            if name not in box:
                raise KeyError(f"variable {name!r} of the polynomial is not boxed")
            mono = mono * box[name].power(e)
        total = total + mono.scale(coeff)
    return total


def corners(box: Mapping[str, Interval]) -> list[dict[str, Fraction]]:
    names = sorted(box)
    out = []
    for combo in product(*[(box[n].lo, box[n].hi) for n in names]):
        out.append(dict(zip(names, combo)))
    return out


def eval_at(p: Poly, assignment: Mapping[str, Fraction]) -> Fraction:
    point = []
    for name in p.chart.names:
        point.append(assignment.get(name, Fraction(0)))
    missing = p.variables() - set(assignment)
    if missing:
        raise KeyError(f"assignment misses variables {sorted(missing)}")
    return p.evaluate(point)


class CertificationFailure(RuntimeError):
    pass


def certified_minimum(
    p: Poly, box: Mapping[str, Interval], max_depth: int = 24
) -> tuple[Fraction, dict[str, Fraction]]:
    """Exact minimum of p over the box, with a witness point attaining it.

    Raises CertificationFailure if branch-and-bound cannot settle the
    candidate within the depth budget, as for a minimum inside the box and
    off the dyadic grid (``epsilon_bound`` meets one on some butterfly boxes).
    """
    names = sorted(set(box) & p.variables()) or sorted(box)[:1]
    partials = {n: p.differentiate(n) for n in names}

    best_val: Fraction | None = None
    best_wit: dict[str, Fraction] = {}
    for corner in corners({n: box[n] for n in names}):
        val = eval_at(p, corner)
        if best_val is None or val < best_val:
            best_val, best_wit = val, corner
    assert best_val is not None

    def settle(sub: dict[str, Interval], depth: int) -> None:
        nonlocal best_val, best_wit
        if enclose(p, sub).lo >= best_val:
            return
        monotone_corner: dict[str, Fraction] = {}
        monotone = True
        for n in names:
            d = enclose(partials[n], sub)
            if d.lo >= 0:
                monotone_corner[n] = sub[n].lo
            elif d.hi <= 0:
                monotone_corner[n] = sub[n].hi
            else:
                monotone = False
                break
        if monotone:
            val = eval_at(p, monotone_corner)
            if val < best_val:
                best_val, best_wit = val, monotone_corner
            return
        if depth >= max_depth:
            raise CertificationFailure(
                f"could not certify the minimum of {p} at depth {depth}"
            )
        # split the widest direction
        widest = max(names, key=lambda n: sub[n].width)
        mid = (sub[widest].lo + sub[widest].hi) / 2
        left = dict(sub)
        left[widest] = Interval(sub[widest].lo, mid)
        right = dict(sub)
        right[widest] = Interval(mid, sub[widest].hi)
        settle(left, depth + 1)
        settle(right, depth + 1)

    settle({n: box[n] for n in names}, 0)
    return best_val, best_wit


# -- box parsing -----------------------------------------------------------------


class BoxParseError(ValueError):
    pass


def parse_box(spec: str) -> Box:
    """Parse specs like ``|x|<=1,|u|<=1/10`` or ``0<=x<=1/2``; each variable is bounded once."""
    box: Box = {}
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if piece.startswith("|"):
            try:
                var_part, bound_part = piece.split("<=")
            except ValueError:
                raise BoxParseError(f"cannot parse box clause {piece!r}") from None
            name = var_part.strip().strip("|")
            bound = _parse_fraction(bound_part)
            if bound < 0:
                raise BoxParseError(f"negative bound in {piece!r}")
            lo, hi = -bound, bound
        else:
            parts = piece.split("<=")
            if len(parts) != 3:
                raise BoxParseError(f"cannot parse box clause {piece!r}")
            lo = _parse_fraction(parts[0])
            name = parts[1].strip()
            hi = _parse_fraction(parts[2])
            if lo > hi:
                raise BoxParseError(f"empty interval in {piece!r}")
        if name in box:
            raise BoxParseError(f"variable {name!r} is bounded more than once in {spec!r}")
        box[name] = Interval(lo, hi)
    if not box:
        raise BoxParseError("empty box specification")
    return box


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise BoxParseError(f"bad rational {text!r}") from None


def format_box(box: Mapping[str, Interval]) -> str:
    parts = []
    for name in sorted(box):
        iv = box[name]
        if iv.lo == -iv.hi and iv.hi >= 0:
            parts.append(f"|{name}|<={iv.hi}")
        else:
            parts.append(f"{iv.lo}<={name}<={iv.hi}")
    return ",".join(parts)
