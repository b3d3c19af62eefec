import itertools
import random
import time
from fractions import Fraction

import pytest

from scrollflex.errors import InvalidInputError, ResourceLimitError
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


@pytest.mark.parametrize("seed", range(6))
def test_elimination_forms_no_product_with_a_zero_side(seed, monkeypatch):
    rng = random.Random(300 + seed)
    n = rng.randint(3, 5)
    m = [[rand_poly(rng) if rng.random() < 0.6 else Poly.zero(V) for _ in range(n)]
         for _ in range(n)]
    expected = naive_det(m)
    sides = []
    product = Poly._product

    def counted(a, b):
        sides.append((len(a.terms), len(b.terms)))
        return product(a, b)

    monkeypatch.setattr(Poly, "_product", counted)
    assert det_poly(m) == expected
    rank_poly(m[:-1])
    assert sides and all(a and b for a, b in sides)


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
    # comb(30, 15)^2 minors exceed MINOR_COUNT_LIMIT: refused before any work
    x, y = Poly.variables(V)
    m = [[x] * 30 for _ in range(30)]
    with pytest.raises(ResourceLimitError):
        list(iter_minors(m, 15))


def _sparse_entry(rng, vars):
    # zero half the time; otherwise up to three terms with int or Fraction
    # coefficients, some of them integral Fractions
    terms = {}
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 2) for _ in vars)
            num = rng.randint(-4, 4)
            terms[exps] = (Fraction(num, rng.choice((1, 1, 2, 3)))
                           if rng.random() < 0.4 else num)
    return Poly(vars, terms)


@pytest.mark.parametrize("seed", range(12))
def test_iter_minors_match_bareiss_with_coefficient_types(seed):
    rng = random.Random(9000 + seed)
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
    m = [[_sparse_entry(rng, V) for _ in range(ncols)] for _ in range(nrows)]
    if seed % 3 == 0:
        m[rng.randrange(nrows)] = [Poly.zero(V)] * ncols
    if seed % 4 == 1:
        dead = rng.randrange(ncols)
        for row in m:
            row[dead] = Poly.zero(V)
    for r in range(1, min(nrows, ncols) + 1):
        keys = [(rows, cols)
                for rows in itertools.combinations(range(nrows), r)
                for cols in itertools.combinations(range(ncols), r)]
        minors = list(iter_minors(m, r))
        assert [key for key, _ in minors] == keys
        for (rows, cols), value in minors:
            full = det_poly([[m[i][j] for j in cols] for i in rows])
            assert value.vars == full.vars and value == full, (seed, rows, cols)
            assert ({e: type(c) for e, c in value.terms.items()}
                    == {e: type(c) for e, c in full.terms.items()})


def _scalar_det(m):
    """Determinant of a matrix of Fractions by permutations: no polynomial
    product is formed."""
    total = Fraction(0)
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


@pytest.mark.parametrize("seed", range(6))
def test_iter_minors_with_fraction_entries_match_det_poly_and_evaluation(seed):
    # every entry has non-integral Fraction coefficients, so the packed sums
    # are Fractions that may cancel or turn whole; the values also agree with
    # scalar determinants at a rational point, which form no polynomial product
    rng = random.Random(7100 + seed)
    nrows, ncols = rng.randint(2, 5), rng.randint(2, 5)
    m = [[Poly(V, {(rng.randint(0, 3), rng.randint(0, 2)):
                   Fraction(rng.choice((-5, -3, -1, 1, 3, 5)), rng.choice((2, 3, 6)))
                   for _ in range(rng.randint(1, 3))})
          for _ in range(ncols)] for _ in range(nrows)]
    point = {"x": Fraction(rng.randint(-7, 7), 5), "y": Fraction(rng.randint(-7, 7), 3)}
    at_point = [[entry.eval_at(point) for entry in row] for row in m]
    for r in range(1, min(nrows, ncols) + 1):
        for (rows, cols), value in iter_minors(m, r):
            full = det_poly([[m[i][j] for j in cols] for i in rows])
            assert value == full, (seed, rows, cols)
            assert ({e: type(c) for e, c in value.terms.items()}
                    == {e: type(c) for e, c in full.terms.items()})
            assert value.eval_at(point) == _scalar_det(
                [[at_point[i][j] for j in cols] for i in rows])


def test_iter_minors_refuses_too_many_shared_subminors_at_once():
    # a dense 20 x 20 matrix has only 36100 minors of size 18, but they
    # share 72 million sub-minors; the key pass refuses before any product
    x, y = Poly.variables(V)
    m = [[x + i * j + 1 for j in range(20)] for i in range(20)]
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="sub-minors"):
        next(iter_minors(m, 18))
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("r", [0, -3])
def test_iter_minors_refuses_sizes_below_one(r):
    x, y = Poly.variables(V)
    with pytest.raises(InvalidInputError, match="at least 1"):
        next(iter_minors([[x, y], [y, x]], r))


def test_iter_minors_values():
    x, y = Poly.variables(V)
    m = [[x, y], [y, x]]
    minors = dict(iter_minors(m, 2))
    assert minors[((0, 1), (0, 1))] == x ** 2 - y ** 2
    # a ring without variables has one monomial, the empty one
    c = [[Poly.const((), 2), Poly.const((), Fraction(1, 3))],
         [Poly.const((), 5), Poly.zero(())]]
    assert dict(iter_minors(c, 2))[((0, 1), (0, 1))] == Fraction(-5, 3)


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
