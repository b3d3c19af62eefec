"""Seeded checks of the primitive-row rank against Bareiss elimination.

The Bareiss loop that ``rank_rational`` ran before, which multiplies and
divides every remaining row at every pivot, is kept here as the oracle of
the primitive-row elimination.
"""

import random
import warnings
from fractions import Fraction
from math import lcm

import pytest

from scrollflex import jets, linalg
from scrollflex.errors import InvalidInputError
from scrollflex.jets import BUNDLED_PROBES, JetProbeSpec, probe_rank
from scrollflex.linalg import rank_rational


# -- the oracle: Bareiss elimination -----------------------------------------


def bareiss_rank(rows):
    """Rank by one-step Bareiss elimination on the rows scaled to integers:
    every entry stays an integer minor, so each division is exact."""
    m = []
    for row in rows:
        row = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (den // x.denominator) for x in row])
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


# -- the jet rows the probes sample ------------------------------------------


@pytest.mark.parametrize("seed", [5, 21])
@pytest.mark.parametrize("name", sorted(BUNDLED_PROBES))
def test_scaled_jet_rows_match_bareiss(name, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # bordiga has no constant coordinate
        base = BUNDLED_PROBES[name].build()
        spec = JetProbeSpec(base.variables, base.coordinates, base.order,
                            trials=64, seed=seed, height=base.height)
    layout, monomials = jets._scaled_layout(jets._shared_jet_matrix(spec))
    rng = random.Random(seed)
    expected = []
    for _ in range(spec.trials):
        rows = jets._scaled_rows(layout, monomials, jets._random_point(spec, rng))
        expected.append(bareiss_rank(rows))
        assert rank_rational(rows) == expected[-1], (name, seed)
    assert probe_rank(spec).per_trial == tuple(expected)
    assert max(expected) == BUNDLED_PROBES[name].expected_rank


# -- dense, shaped and mixed matrices ----------------------------------------


def _signed(rng, bits):
    return rng.choice((-1, 1)) * rng.randint(1, 2 ** bits)


def test_dense_wide_integer_matrices_match_bareiss(monkeypatch):
    # no zero entry and entries up to 2^200: at the first pivot the gcd of
    # an updated row is mostly 1, so the path that divides nothing runs;
    # from the second on it holds the Bareiss divisor, so the division runs
    gcds = []
    gcd = linalg.gcd
    monkeypatch.setattr(linalg, "gcd",
                        lambda *row: gcds.append(gcd(*row)) or gcds[-1])
    rng = random.Random(200)
    deficient = 0
    for case in range(200):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        if case % 2:
            # a product of positive factors: still no zero entry, and rank
            # at most the inner size
            inner = rng.randint(1, min(nrows, ncols))
            a = [[rng.randint(1, 2 ** 97) for _ in range(inner)]
                 for _ in range(nrows)]
            b = [[rng.randint(1, 2 ** 97) for _ in range(ncols)]
                 for _ in range(inner)]
            m = [[sum(a[i][t] * b[t][j] for t in range(inner))
                  for j in range(ncols)] for i in range(nrows)]
        else:
            m = [[_signed(rng, 200) for _ in range(ncols)] for _ in range(nrows)]
        assert all(x and abs(x) <= 2 ** 200 for row in m for x in row)
        rank = bareiss_rank(m)
        deficient += rank < min(nrows, ncols)
        assert rank_rational(m) == rank, f"case {case}"
    assert deficient > 20
    assert gcds.count(1) > 100 and sum(g > 1 for g in gcds) > 100


@pytest.mark.parametrize("rows,rank", [
    ([], 0),
    ([[]], 0),
    ([[], []], 0),
    ([[0, 0, 0]], 0),
    ([[0, 0], [0, 0], [0, 0]], 0),
    ([[3, -4, 0, 5]], 1),
    ([[0, 0, 7]], 1),
    ([[2], [0], [-6]], 1),
    ([[0], [0]], 0),
    ([[1, 2], [2, 4], [3, 6], [0, 1], [5, 5]], 2),
    ([[1, 2, 3, 4, 5, 6], [2, 4, 6, 8, 10, 13]], 2),
    ([[0, 0, 1, 2], [0, 0, 2, 4], [0, 0, 0, 0]], 1),
])
def test_shapes_match_bareiss(rows, rank):
    assert rank_rational(rows) == bareiss_rank(rows) == rank


def test_tall_and_wide_random_shapes_match_bareiss():
    rng = random.Random(31)
    for case in range(120):
        nrows, ncols = ((rng.randint(8, 14), rng.randint(1, 4)) if case % 2
                        else (rng.randint(1, 4), rng.randint(8, 14)))
        m = [[rng.randint(-3, 3) if rng.random() < 0.5 else 0
              for _ in range(ncols)] for _ in range(nrows)]
        assert rank_rational(m) == bareiss_rank(m), f"case {case}"
        transposed = [list(col) for col in zip(*m)]
        assert rank_rational(transposed) == rank_rational(m)


def test_rows_mixing_ints_and_fractions_match_bareiss():
    rng = random.Random(77)
    for case in range(300):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.choice((0, rng.randint(-9, 9),
                          Fraction(rng.randint(-9, 9), rng.randint(1, 12))))
              for _ in range(ncols)] for _ in range(nrows)]
        if case % 3 == 0 and nrows > 1:
            # a row that is a Fraction multiple of another
            scale = Fraction(rng.randint(1, 7), rng.randint(2, 9))
            m[-1] = [scale * x for x in m[0]]
        assert rank_rational(m) == bareiss_rank(m), f"case {case}"
    assert rank_rational([[Fraction(1, 2), 1], [1, Fraction(2)]]) == 1
    assert rank_rational([[Fraction(1, 3), Fraction(1, 6)],
                          [2, Fraction(1, 5)]]) == 2


@pytest.mark.parametrize("rows", [[[0.1]], [["a"]], [[1, None]],
                                  [[Fraction(1, 2), 0.5]], [[1], [2.0]]])
def test_rank_refuses_inexact_entries(rows):
    with pytest.raises(InvalidInputError, match="exact rational"):
        rank_rational(rows)
