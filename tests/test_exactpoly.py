import random
import time
from fractions import Fraction

import pytest

from scrollflex import exactpoly
from scrollflex.errors import InvalidInputError
from scrollflex.exactpoly import (Poly, common_divisor, parse_poly, poly_gcd)

V = ("x", "y", "w")


def _vars():
    return Poly.variables(V)


def test_construction_drops_zero_coefficients():
    x, y, w = _vars()
    p = x - x
    assert p.is_zero()
    assert (x + y - y) == x


def test_arithmetic_basics():
    x, y, w = _vars()
    p = (x + y) * (x - y)
    assert p == x ** 2 - y ** 2
    assert p - p == 0
    assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + 1
    assert 2 * x == x * 2
    assert (x * Fraction(1, 2)) * 2 == x


def test_fraction_coefficients_stay_exact():
    x, y, w = _vars()
    p = x * Fraction(1, 3) + y * Fraction(1, 6)
    assert (p * 6) == 2 * x + y


def test_degrees():
    x, y, w = _vars()
    p = x ** 2 * y + w
    assert p.total_degree() == 3
    assert p.degree_in("y") == 1
    assert p.degree_in("w") == 1
    assert Poly.zero(V).total_degree() == -1


def test_diff():
    x, y, w = _vars()
    p = x ** 3 * y + 2 * x * w
    assert p.diff("x") == 3 * x ** 2 * y + 2 * w
    assert p.diff("y") == x ** 3
    assert p.diff("w") == 2 * x


def test_subs_partial_and_cross_ring():
    x, y, w = _vars()
    p = x ** 2 - y
    assert p.subs({"y": x ** 2 - w}) == w
    q = p.subs({"x": Poly.variable(("y", "t"), "t"), "y": Poly.variable(("y", "t"), "y")},
               vars=("y", "t"))
    t = Poly.variable(("y", "t"), "t")
    yy = Poly.variable(("y", "t"), "y")
    assert q == t ** 2 - yy


def test_eval_at():
    x, y, w = _vars()
    p = x ** 2 * y - w
    assert p.eval_at({"x": 2, "y": Fraction(1, 2), "w": 1}) == 1


def test_exact_div_and_failure():
    x, y, w = _vars()
    assert (x ** 2 - y ** 2).exact_div(x - y) == x + y
    with pytest.raises(InvalidInputError):
        (x ** 2 - y ** 2 + 1).exact_div(x - y)


def test_gcd_simple():
    x, y, w = _vars()
    p = (x ** 2 - y) * (x + y * w)
    q = (x ** 2 - y) * (w ** 2 + 3)
    assert poly_gcd(p, q) == x ** 2 - y


def test_gcd_with_monomial_content():
    x, y, w = _vars()
    assert poly_gcd(x ** 2 * y, x * y ** 2) == x * y


def test_gcd_coprime():
    x, y, w = _vars()
    g = poly_gcd(x + 1, y + 1)
    assert g.is_constant()


@pytest.mark.parametrize("seed", range(5))
def test_gcd_random_products(seed):
    rng = random.Random(seed)
    x, y, w = _vars()

    def rand_poly():
        p = Poly.const(V, rng.randint(1, 3))
        for _ in range(rng.randint(1, 2)):
            p = p * (rng.choice([x, y, w]) + rng.randint(-2, 2))
        return p

    common = rand_poly()
    a = common * rand_poly()
    b = common * rand_poly()
    g = poly_gcd(a, b)
    assert a.divisible_by(g) and b.divisible_by(g)
    assert g.divisible_by(poly_gcd(g, common))
    # the constructed common factor must divide the gcd
    assert g.exact_div(poly_gcd(g, common.normalized())) is not None


def test_common_divisor_monomial_and_zero_skipping():
    x, y, w = _vars()
    polys = [y * (x ** 2 - y) * 2, y ** 2 * (x + w) * 3, y * w ** 2 * 5,
             Poly.zero(V)]
    assert common_divisor(polys) == y


@pytest.mark.parametrize("seed", range(20))
def test_common_divisor_keeps_a_planted_factor(seed):
    rng = random.Random(4000 + seed)
    x, y, w = _vars()

    def rand_poly(factors):
        p = Poly.const(V, rng.choice([-3, -1, 1, 2]))
        for _ in range(factors):
            p = p * (rng.choice([x, y, w]) * rng.choice([x, y, w, 1])
                     + rng.randint(-3, 3))
        return p

    planted = x * y + rng.choice([1, -2]) + rng.choice([0, w])
    polys = [planted * rand_poly(rng.randint(0, 2))
             for _ in range(rng.randint(2, 6))] + [Poly.zero(V)]
    g = common_divisor(polys)
    assert g.divisible_by(planted)
    assert all(p.divisible_by(g) for p in polys)
    assert g == g.normalized()


def test_shift_down_divides_by_a_monomial():
    x, y, w = _vars()
    p = 3 * x ** 2 * y - x * y * w
    assert p.shift_down((1, 1, 0)) == 3 * x - w
    for exps in [(1, 1), (1, 1, 0, 0), (-1, 0, 0), (2, 0, 0)]:
        with pytest.raises(InvalidInputError):
            p.shift_down(exps)


def test_parse_round_trip():
    x, y, w = _vars()
    p = x ** 2 - 3 * x * y + Fraction(3, 4) * w - 7
    assert parse_poly(str(p), V) == p
    assert parse_poly("x^2 - y", V) == x ** 2 - y
    assert parse_poly("x**2 - y", V) == x ** 2 - y
    assert parse_poly("3/4*w", V) == Fraction(3, 4) * w
    assert parse_poly("-(x + y)*(x - y)", V) == y ** 2 - x ** 2


def test_parse_rejects_garbage():
    with pytest.raises(InvalidInputError):
        parse_poly("x +", V)
    with pytest.raises(InvalidInputError):
        parse_poly("z + 1", V)
    with pytest.raises(InvalidInputError):
        parse_poly("x / y", V)


def test_parse_keeps_signs_and_powers():
    x, y, w = _vars()
    assert parse_poly("- -x^2", V) == x ** 2
    assert parse_poly("-" * 5000 + "x", V) == x  # signs are not nested
    assert parse_poly("+-(x + y)^2 * -w", V) == (x + y) ** 2 * w
    assert parse_poly("(x - x)^1000000 + 2^64*x^0", V) == 2 ** 64


def test_parse_refuses_nesting_past_the_limit():
    depth = exactpoly.MAX_PARSE_DEPTH
    x, y, w = _vars()
    assert parse_poly("(" * depth + "x" + ")" * depth, V) == x
    for n in (depth + 1, 3000):
        with pytest.raises(InvalidInputError, match="nested deeper than 100"):
            parse_poly("(" * n + "x" + ")" * n, V)


@pytest.mark.parametrize("text", [
    "(x+y+1)^400", "(x+1)^2000", "x^1000000000", "7^1000000000",
    "((7^1000)^1000)^1000", "(x+y+w+1)^12*(x+y+w+1)^12*(x+y+w+1)^12"])
def test_parse_refuses_oversized_products_and_powers_at_once(text):
    start = time.perf_counter()
    with pytest.raises(InvalidInputError, match="over the limit 10000"):
        parse_poly(text, V)
    assert time.perf_counter() - start < 0.5


def test_parse_size_estimate_bounds_the_result():
    # just under the limit: the estimate is an upper bound of the real size
    for text, terms in (("(x+y+1)^50", 1326), ("(x+y+w+1)^12", 455)):
        assert len(parse_poly(text, V).terms) == terms


def test_normalized():
    x, y, w = _vars()
    p = (-2 * x ** 2 + 4 * y) * Fraction(1, 6)
    n = p.normalized()
    assert n == x ** 2 - 2 * y


def test_str_readable():
    x, y, w = _vars()
    assert str(x ** 2 - y + 1) == "x^2 - y + 1"
    assert str(Poly.zero(V)) == "0"
