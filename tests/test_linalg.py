import random
from fractions import Fraction

import pytest

from scrollflex.errors import ResourceLimitError
from scrollflex.exactpoly import Poly, parse_poly
from scrollflex.linalg import (_find_pivot, det_poly, iter_minors, rank_poly,
                               rank_rational)

V = ("x", "y")


def naive_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = None
    for j in range(n):
        sub = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * naive_det(sub)
        if total is None:
            total = term if j % 2 == 0 else -term
        else:
            total = total + term if j % 2 == 0 else total - term
    return total


def rand_poly(rng):
    x, y = Poly.variables(V)
    return (Poly.const(V, rng.randint(-3, 3)) + x * rng.randint(-2, 2)
            + y * rng.randint(-1, 1))


@pytest.mark.parametrize("seed", range(8))
def test_det_poly_matches_cofactor_expansion(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    m = [[rand_poly(rng) for _ in range(n)] for _ in range(n)]
    assert det_poly(m) == naive_det(m)


def test_det_poly_singular():
    x, y = Poly.variables(V)
    m = [[x, y], [x * 2, y * 2]]
    assert det_poly(m).is_zero()


def test_rank_rational():
    rows = [[Fraction(1), Fraction(2), Fraction(3)],
            [Fraction(2), Fraction(4), Fraction(6)],
            [Fraction(0), Fraction(1), Fraction(1)]]
    assert rank_rational(rows) == 2
    assert rank_rational([[Fraction(0)] * 3] * 2) == 0


@pytest.mark.parametrize("seed", range(6))
def test_rank_poly_agrees_with_evaluation(seed):
    rng = random.Random(100 + seed)
    nrows, ncols = rng.randint(2, 4), rng.randint(2, 4)
    m = [[rand_poly(rng) for _ in range(ncols)] for _ in range(nrows)]
    symbolic = rank_poly(m)
    # evaluation at random points can only lose rank
    best = 0
    for _ in range(6):
        point = {v: Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for v in V}
        rows = [[e.eval_at(point) for e in row] for row in m]
        best = max(best, rank_rational(rows))
    assert best <= symbolic
    assert best == symbolic or symbolic - best <= 1


def test_rank_poly_exact_on_structured_matrix():
    x, y = Poly.variables(V)
    one = Poly.const(V, 1)
    zero = Poly.zero(V)
    m = [[one, x, y], [zero, one, x], [one, x, y]]
    assert rank_poly(m) == 2


def test_iter_minors_guard():
    x, y = Poly.variables(V)
    m = [[x] * 30 for _ in range(30)]
    with pytest.raises(ResourceLimitError):
        list(iter_minors(m, 15, limit=10))


def test_iter_minors_values():
    x, y = Poly.variables(V)
    m = [[x, y], [y, x]]
    minors = dict(iter_minors(m, 2))
    assert minors[((0, 1), (0, 1))] == x ** 2 - y ** 2


def test_pivot_is_the_sparsest_entry_left():
    def grid(*rows):
        return [[parse_poly(t, V) for t in row] for row in rows]

    m = grid(("x", "x + y", "1"),
             ("x + 1", "x*y + x + 1", "x + y"),
             ("0", "y + 1", "x + y"))
    assert _find_pivot(m, 0) == (0, 0)   # a single term ends the scan
    assert _find_pivot(m, 1) == (1, 2)   # ties go to the first, row-major
    m[2][1] = parse_poly("y", V)
    assert _find_pivot(m, 1) == (2, 1)
    assert _find_pivot(grid(("1", "0"), ("0", "0")), 1) is None
