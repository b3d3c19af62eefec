"""Exact linear algebra: rational ranks and fraction-free polynomial minors."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, lcm
from typing import Sequence

from .errors import InvalidInputError, ResourceLimitError
from .exactpoly import Poly

MINOR_COUNT_LIMIT = 10 ** 5


def _integer_row(row: Sequence[Fraction]) -> list[int]:
    """The row times the lcm of its denominators; the rank is unchanged."""
    row = [x if type(x) is int else Fraction(x) for x in row]
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def rank_rational(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix of exact rationals by fraction-free elimination.

    Each row is scaled to integers, then Bareiss elimination keeps every
    entry an integer minor of that matrix, so each division is exact.
    """
    m = [_integer_row(row) for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        p = top[col]
        for i in range(rank + 1, nrows):
            row = m[i]
            a = row[col]
            for j in range(col + 1, ncols):
                row[j] = (row[j] * p - a * top[j]) // prev
            row[col] = 0
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def _find_pivot(m, step):
    for i in range(step, len(m)):
        for j in range(step, len(m[0])):
            if not m[i][j].is_zero():
                return i, j
    return None


def rank_poly(rows: Sequence[Sequence[Poly]]) -> int:
    """Rank over the rational function field, by fraction-free elimination.

    Bareiss one-step elimination: every intermediate entry is a minor of the
    original matrix, and the division by the previous pivot is exact.
    """
    m = [list(row) for row in rows]
    if not m or not m[0]:
        return 0
    prev = None
    rank = 0
    steps = min(len(m), len(m[0]))
    for step in range(steps):
        loc = _find_pivot(m, step)
        if loc is None:
            break
        pi, pj = loc
        if pi != step:
            m[pi], m[step] = m[step], m[pi]
        if pj != step:
            for row in m:
                row[pj], row[step] = row[step], row[pj]
        pivot = m[step][step]
        for i in range(step + 1, len(m)):
            for j in range(step + 1, len(m[0])):
                num = m[i][j] * pivot - m[i][step] * m[step][j]
                m[i][j] = num if prev is None else num.exact_div(prev)
            m[i][step] = Poly.zero(pivot.vars)
        prev = pivot
        rank += 1
    return rank


def _has_zero_line(rows: Sequence[Sequence[Poly]]) -> bool:
    return (any(all(p.is_zero() for p in row) for row in rows)
            or any(all(p.is_zero() for p in col) for col in zip(*rows)))


def det_poly(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square polynomial matrix (fraction-free Bareiss).

    A matrix with an all-zero row or column is singular, so it is answered
    without elimination.
    """
    n = len(rows)
    if n == 0:
        raise InvalidInputError("determinant of an empty matrix")
    if any(len(r) != n for r in rows):
        raise InvalidInputError("determinant needs a square matrix")
    if _has_zero_line(rows):
        return Poly.zero(rows[0][0].vars)
    return _bareiss(rows)


def _bareiss(rows: Sequence[Sequence[Poly]]) -> Poly:
    n = len(rows)
    vars = rows[0][0].vars
    m = [list(row) for row in rows]
    sign = 1
    prev = None
    for step in range(n - 1):
        loc = _find_pivot(m, step)
        if loc is None:
            return Poly.zero(vars)
        pi, pj = loc
        if pi != step:
            m[pi], m[step] = m[step], m[pi]
            sign = -sign
        if pj != step:
            for row in m:
                row[pj], row[step] = row[step], row[pj]
            sign = -sign
        top = m[step]
        pivot = top[step]
        for i in range(step + 1, n):
            row = m[i]
            lead = row[step]
            for j in range(step + 1, n):
                num = row[j] * pivot
                if not (lead.is_zero() or top[j].is_zero()):
                    num = num - lead * top[j]
                row[j] = num if prev is None else num.exact_div(prev)
        prev = pivot
    return m[n - 1][n - 1] * sign


def minor_count(nrows: int, ncols: int, r: int) -> int:
    return comb(nrows, r) * comb(ncols, r)


def iter_minors(matrix: Sequence[Sequence[Poly]], r: int,
                limit: int = MINOR_COUNT_LIMIT):
    """Yield ((row subset, column subset), r x r minor) over all subsets."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    if r > min(nrows, ncols):
        raise InvalidInputError(
            f"minor size {r} exceeds matrix shape {nrows}x{ncols}"
        )
    count = minor_count(nrows, ncols, r)
    if count > limit:
        raise ResourceLimitError(
            f"{count} minors of size {r} exceed the limit of {limit}"
        )
    zero = Poly.zero(matrix[0][0].vars)
    for rows in itertools.combinations(range(nrows), r):
        for cols in itertools.combinations(range(ncols), r):
            sub = [[matrix[i][j] for j in cols] for i in rows]
            # most jet minors vanish for want of a nonzero row or column
            yield (rows, cols), zero if _has_zero_line(sub) else det_poly(sub)
