"""Exact linear algebra over the rationals and over polynomial entries.

Everything here is fraction-exact.  Ranks, kernels and solutions come
from fraction-free Gauss-Jordan elimination on integer rows (each row's
denominators are cleared first, and every combined row is divided by the
gcd of its entries, after Bareiss, Math. Comp. 1968); Fractions are built
only for the entries a result reads off, and ``integer_nullspace`` builds
none.  Determinants of polynomial matrices are computed by cofactor
expansion along the sparsest column (the fibration Jacobians are mostly
unit columns, so the expansion collapses to a small minor almost
immediately).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .poly import Poly


def _integer_row(row: Sequence[Fraction | int]) -> list[int]:
    """The row times the lcm of its denominators, divided by the gcd of the result."""
    den = math.lcm(*(v.denominator for v in row))
    out = [v.numerator * (den // v.denominator) for v in row]
    g = math.gcd(*out)
    return [v // g for v in out] if g > 1 else out


def _rref(rows: Sequence[Sequence[Fraction | int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free reduced row echelon form and the list of pivot columns.

    Row r of the result, for r below the rank, holds a nonzero integer in
    column ``pivots[r]`` and zeros in every other pivot column; the rows
    past the rank are zero.  Row r divided by its pivot entry is row r of
    the (unique) reduced row echelon form.
    """
    m = [_integer_row(row) for row in rows]
    n_rows = len(m)
    cols = len(m[0]) if n_rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[c]
        for i in range(n_rows):
            f = m[i][c]
            if i == r or not f:
                continue
            g = math.gcd(p, f)
            a, b = p // g, f // g
            new = [a * x - b * y for x, y in zip(m[i], top)]
            h = math.gcd(*new)
            m[i] = [x // h for x in new] if h > 1 else new
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    return len(_rref(rows)[1])


def _kernel_vectors(rows: Sequence[Sequence[Fraction | int]]) -> list[tuple[int, list[int]]]:
    """One integer kernel vector per free column fc, positive at fc, zero at the other free columns."""
    if not rows:
        return []
    cols = len(rows[0])
    red, pivots = _rref(rows)
    # a common multiple of the pivot entries clears every back-substitution
    lead = math.lcm(*(red[r][pc] for r, pc in enumerate(pivots)))
    out = []
    for fc in range(cols):
        if fc in pivots:
            continue
        vec = [0] * cols
        vec[fc] = lead
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc] * (lead // red[r][pc])
        out.append((fc, vec))
    return out


def nullspace(rows: Sequence[Sequence[Fraction | int]]) -> list[list[Fraction]]:
    """A basis of the right kernel, one vector per free column.

    Each basis vector has entry 1 in its free column and the pivot rows
    back-substituted, so the result is integer-free of surprises and
    deterministic for a given matrix.
    """
    zero = Fraction(0)
    return [[Fraction(x, vec[fc]) if x else zero for x in vec] for fc, vec in _kernel_vectors(rows)]


def integer_nullspace(rows: Sequence[Sequence[Fraction | int]]) -> list[list[int]]:
    """The basis of ``nullspace(rows)`` with each vector scaled to coprime integers.

    Each vector is a positive multiple of its ``nullspace`` counterpart, so
    signs and orientations carry over; no Fraction is built.
    """
    basis = []
    for _, vec in _kernel_vectors(rows):
        g = math.gcd(*vec)
        basis.append([x // g for x in vec])
    return basis


class InconsistentSystem(ValueError):
    """Raised when a linear system has no solution."""


def solve(rows: Sequence[Sequence[Fraction | int]], rhs: Sequence[Fraction | int]) -> list[Fraction]:
    """One exact solution of ``rows @ x = rhs`` (free variables set to 0).

    ``InconsistentSystem`` is raised when ``rhs`` is not in the column space.
    """
    if len(rhs) != len(rows):
        raise ValueError("rhs length does not match row count")
    cols = len(rows[0]) if rows else 0
    red, pivots = _rref([[*row, b] for row, b in zip(rows, rhs)])
    # rhs is consistent exactly when appending it adds no pivot; a pivot in
    # the augmented column is a row 0 = nonzero
    if pivots and pivots[-1] >= cols:
        raise InconsistentSystem("right-hand side not in the column space")
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = Fraction(red[r][cols], red[r][pc])
    return x


def dot(a: Sequence[Fraction | int], b: Sequence[Fraction | int]) -> Fraction:
    """Sum of the products over one integer numerator and denominator; one Fraction at the end."""
    num, den = 0, 1
    for x, y in zip(a, b):
        if x and y:
            d = x.denominator * y.denominator
            num = num * d + x.numerator * y.numerator * den
            den *= d
    return Fraction(num, den)


def mat_vec(rows: Sequence[Sequence[Fraction | int]], v: Sequence[Fraction | int]) -> list[Fraction]:
    return [dot(row, v) for row in rows]


def poly_det(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square polynomial matrix by sparse cofactor expansion."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    chart = rows[0][0].chart
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")

    def det(row_idx: tuple[int, ...], col_idx: tuple[int, ...]) -> Poly:
        k = len(row_idx)
        if k == 1:
            return rows[row_idx[0]][col_idx[0]]
        # expand along the column with the fewest nonzero entries
        best_c = min(
            range(k),
            key=lambda c: sum(1 for r in range(k) if not rows[row_idx[r]][col_idx[c]].is_zero()),
        )
        total = chart.zero()
        cols_rest = col_idx[:best_c] + col_idx[best_c + 1 :]
        for r in range(k):
            entry = rows[row_idx[r]][col_idx[best_c]]
            if entry.is_zero():
                continue
            minor = det(row_idx[:r] + row_idx[r + 1 :], cols_rest)
            signed = minor if (r + best_c) % 2 == 0 else -minor
            total = total + entry * signed
        return total

    return det(tuple(range(n)), tuple(range(n)))
