"""Exact linear algebra: rational ranks and fraction-free polynomial minors.

Rational ranks eliminate on primitive integer rows (``rank_rational``), so
no fraction is ever formed.  Polynomial rank and determinant share one
Bareiss elimination (``_eliminate``): every intermediate entry is a minor
of the input, so each division is exact.  It returns the rank and the
signed last pivot, and pivots on the sparsest nonzero entry left (fewest
terms, first in row-major order on ties), which keeps the products and
exact divisions small.

All the r x r minors of a matrix come instead from one cofactor expansion
whose sub-minors are shared (``iter_minors``).  It divides nothing and
runs on ``exactpoly``'s packed product loop.  The 100 minors of size 9 of
the Bordiga jet matrix reach 4046 sub-minors this way, in about 25 ms
(2-vCPU Linux VM, Python 3.11.7), against 100 separate eliminations.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Sequence

from .errors import InvalidInputError, ResourceLimitError, require_integer
from .exactpoly import (Poly, _field_layout, _mul_acc, _pack_key, _top_exponent,
                        _trusted, _unpack_terms, as_scalar)

MINOR_COUNT_LIMIT = 10 ** 5
# Largest number of sub-minors one iter_minors call may reach.  The bundled
# probes need at most 238135 (p1-fourth, r = 13); a dense 20 x 20 matrix at
# r = 18 would reach about 72 million.  A dense 9 x 16 matrix of linear forms
# in two variables reaches 489871 at r = 9: 0.7 s for the keys and 48 s in
# all, in-process on a 2-vCPU Linux VM (Python 3.11.7).
MINOR_KEY_LIMIT = 5 * 10 ** 5


def _integer_row(row: Sequence[Fraction]) -> Sequence[int]:
    """The row times the lcm of its denominators; the rank is unchanged.

    An all-``int`` row comes back as it is: ``rank_rational`` replaces rows
    and never writes into one.
    """
    if {*map(type, row)} <= {int}:
        return row
    row = [x if type(x) is int else as_scalar(x) for x in row]
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def rank_rational(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix of exact rationals by primitive-row elimination.

    Rows are scaled to integers and zero rows dropped.  The pivot ``p`` of a
    column is the entry of the first row left nonzero there; each other row
    with an entry ``a != 0`` there becomes ``x*p - a*y`` (``y`` the pivot
    row's entry under ``x``), divided by the gcd of its entries.  Bareiss
    elimination with the same pivots holds, up to scale, the one integer
    combination of that row and the pivot rows vanishing in the pivot
    columns; this row is a nonzero multiple of it, so the rank is the same.
    A primitive row divides every integer row proportional to it, so no
    entry exceeds the Bareiss entry, a minor, and ``x*p - a*y`` is bounded
    as the Bareiss products are.
    """
    m = [row for row in map(_integer_row, rows) if any(row)]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i, row in enumerate(m) if row[col]), None)
        if pivot is None:
            continue
        top = m.pop(pivot)
        p = top[col]
        rank += 1
        for i, row in enumerate(m):
            a = row[col]
            if a:
                row = [x * p - a * y for x, y in zip(row, top)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
    return rank


def _find_pivot(m, step):
    """Position of the sparsest nonzero entry of the submatrix m[step:][step:].

    Fewest terms wins, ties go to the first entry in row-major order, and a
    single-term entry ends the scan.  None when the submatrix is zero.
    """
    best = None
    fewest = 0
    for i in range(step, len(m)):
        row = m[i]
        for j in range(step, len(row)):
            size = len(row[j].terms)
            if size and (best is None or size < fewest):
                if size == 1:
                    return i, j
                best, fewest = (i, j), size
    return best


def _eliminate(rows: Sequence[Sequence[Poly]]) -> tuple[int, Poly | None]:
    """Rank and signed last pivot of a polynomial matrix, by Bareiss.

    One-step fraction-free elimination: every intermediate entry is a minor
    of the input, and the division by the previous pivot is exact.  Each
    step pivots on the sparsest nonzero entry left (see ``_find_pivot``),
    and every row or column swap flips the sign.  For a square matrix of
    full rank the signed last pivot is the determinant.
    """
    m = [list(row) for row in rows]
    sign = 1
    prev = None
    rank = 0
    for step in range(min(len(m), len(m[0]) if m else 0)):
        loc = _find_pivot(m, step)
        if loc is None:
            break
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
        for i in range(step + 1, len(m)):
            row = m[i]
            lead = row[step]
            for j in range(step + 1, len(top)):
                num = row[j] if row[j].is_zero() else row[j] * pivot
                if not (lead.is_zero() or top[j].is_zero()):
                    num = num - lead * top[j]
                row[j] = num if prev is None else num.exact_div(prev)
        prev = pivot
        rank += 1
    return rank, None if prev is None else prev * sign


def rank_poly(rows: Sequence[Sequence[Poly]]) -> int:
    """Rank over the rational function field (see ``_eliminate``)."""
    return _eliminate(rows)[0]


def det_poly(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square polynomial matrix (see ``_eliminate``)."""
    n = len(rows)
    if n == 0:
        raise InvalidInputError("determinant of an empty matrix")
    if any(len(r) != n for r in rows):
        raise InvalidInputError("determinant needs a square matrix")
    rank, last = _eliminate(rows)
    return last if rank == n else Poly.zero(rows[0][0].vars)


def minor_count(nrows: int, ncols: int, r: int) -> int:
    return comb(nrows, r) * comb(ncols, r)


def _reachable_keys(nz: list[int], row_sets: list[int], col_sets: list[int],
                    nrows: int, r: int) -> list[set[int]]:
    """The keys of the sub-minors the shared expansion uses, level 1 to r.

    A key packs a row set and a column set as ``rows | cols << nrows``.  The
    minor on rows R and columns (c0, *rest) expands along c0 into the
    sub-minors on (R - {i}, rest) for the rows i of R with a nonzero entry
    in column c0 (the bits of ``nz[c0]``), so zero entries reach nothing.
    Refuses once more than MINOR_KEY_LIMIT keys are reached.
    """
    top: set[int] = set()
    for cols in col_sets:
        hit = nz[(cols & -cols).bit_length() - 1]
        shifted = cols << nrows
        top.update(rows | shifted for rows in row_sets if rows & hit)
    levels = [top]
    reached = len(top)
    full = (1 << nrows) - 1
    for _ in range(r - 1):
        below: set[int] = set()
        add = below.add
        room = MINOR_KEY_LIMIT - reached
        for key in levels[-1]:
            cols = key >> nrows
            low = cols & -cols
            hit = key & full & nz[low.bit_length() - 1]
            base = key ^ (low << nrows)
            while hit:
                bit = hit & -hit
                add(base ^ bit)
                hit ^= bit
            if len(below) > room:
                raise ResourceLimitError(
                    f"{r}x{r} minors reach over {MINOR_KEY_LIMIT} shared "
                    f"sub-minors, over the limit")
        reached += len(below)
        levels.append(below)
    levels.reverse()
    return levels


def iter_minors(matrix: Sequence[Sequence[Poly]], r: int):
    """Yield ((row subset, column subset), r x r minor) over all subsets.

    Every minor comes from one cofactor expansion whose sub-minors are
    shared: the minor on rows R and columns (c0, *rest) is
    ``sum_k (-1)^k M[R_k][c0] * minor(R - R_k, rest)``, and each sub-minor,
    keyed by its row set and column suffix, is computed once.  A pass over
    the keys alone finds the sub-minors that nonzero entries reach (see
    ``_reachable_keys``); the levels are then built bottom up with
    ``exactpoly._mul_acc``, keeping only the level below, and zero
    sub-minors drop out of the level above.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    require_integer(r, f"minor size must be an integer, got {r!r}")
    if r < 1:
        raise InvalidInputError(f"minor size must be at least 1, got {r}")
    if r > min(nrows, ncols):
        raise InvalidInputError(
            f"minor size {r} exceeds matrix shape {nrows}x{ncols}"
        )
    count = minor_count(nrows, ncols, r)
    if count > MINOR_COUNT_LIMIT:
        raise ResourceLimitError(
            f"{count} minors of size {r} exceed the limit of {MINOR_COUNT_LIMIT}"
        )
    vars = matrix[0][0].vars
    # a minor's exponent is at most r times the largest entry exponent, so a
    # field one bit wider than that never carries
    top = max(_top_exponent(p.terms) for row in matrix for p in row)
    shifts, mask = _field_layout(len(vars), (r * top).bit_length() + 1)
    # columns[c][i]: the terms of M[i][c] as (packed monomial, coefficient)
    columns = [[[(_pack_key(e, shifts), k) for e, k in row[c].terms.items()]
                for row in matrix] for c in range(ncols)]
    nz = [sum(1 << i for i, row in enumerate(matrix) if row[c].terms)
          for c in range(ncols)]
    row_subsets = list(itertools.combinations(range(nrows), r))
    col_subsets = list(itertools.combinations(range(ncols), r))
    row_sets = [sum(1 << i for i in rows) for rows in row_subsets]
    col_sets = [sum(1 << c for c in cols) for cols in col_subsets]

    full = (1 << nrows) - 1
    # each sub-minor as its nonzero (packed monomial, coefficient) pairs
    below: dict[int, list] = {0: [(0, 1)]}  # the empty minor
    for keys in _reachable_keys(nz, row_sets, col_sets, nrows, r):
        level = {}
        for key in keys:
            cols = key >> nrows
            low = cols & -cols
            c0 = low.bit_length() - 1
            column = columns[c0]
            base = key ^ (low << nrows)
            rows = key & full
            hit = rows & nz[c0]
            acc: dict[int, object] = {}
            while hit:
                bit = hit & -hit
                hit ^= bit
                sub = below.get(base ^ bit)
                if sub is not None:
                    sign = -1 if (rows & (bit - 1)).bit_count() & 1 else 1
                    _mul_acc(acc, column[bit.bit_length() - 1], sub, sign)
            value = [(e, c) for e, c in acc.items() if c]
            if value:
                level[key] = value
        below = level

    zero = Poly.zero(vars)
    for rows, row_set in zip(row_subsets, row_sets):
        for cols, col_set in zip(col_subsets, col_sets):
            value = below.get(row_set | col_set << nrows)
            if value is None:
                yield (rows, cols), zero
            else:
                yield (rows, cols), _trusted(vars, _unpack_terms(value, shifts, mask))
