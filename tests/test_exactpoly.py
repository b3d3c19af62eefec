import random
import time
from fractions import Fraction
from operator import add

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


@pytest.mark.parametrize("bad", [1.5, True, "3", -1])
def test_construction_refuses_an_exponent_that_is_not_a_natural_int(bad):
    with pytest.raises(InvalidInputError, match="bad exponent vector"):
        Poly(V, {(bad, 0, 0): 1})
    assert Poly(V, {(1, 0, 0): 1}) == _vars()[0]


def test_arithmetic_basics():
    x, y, w = _vars()
    p = (x + y) * (x - y)
    assert p == x ** 2 - y ** 2
    assert p - p == 0
    assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + 1
    assert 2 * x == x * 2
    assert (x * Fraction(1, 2)) * 2 == x


def _powers_with_counted_products(cls, base, monkeypatch):
    """base ** e for e = 0..70, each with its (squarings, other products)."""
    counts = [0, 0]
    mul = cls.__mul__

    def counted(self, other):
        counts[self is not other] += 1
        return mul(self, other)

    monkeypatch.setattr(cls, "__mul__", counted)
    out = []
    for e in range(71):
        counts[:] = [0, 0]
        out.append((base ** e, tuple(counts)))
    monkeypatch.undo()
    return out


@pytest.mark.parametrize("kind", ["poly", "graded"])
def test_powers_square_once_per_bit_and_multiply_once_per_set_bit(kind, monkeypatch):
    from scrollflex.chern import GradedRing, GradedVariable

    if kind == "poly":
        x, y, w = _vars()
        base, one = x * y * Fraction(2, 3) - w, Poly.const(V, 1)
    else:
        ring = GradedRing([GradedVariable("h", 1), GradedVariable("c", 2)], 9)
        base = ring.variable("h") * 2 - ring.variable("c") + 1
        one = ring.scalar(1)
    cls = type(base)
    want = one
    for e, (got, counts) in enumerate(
            _powers_with_counted_products(cls, base, monkeypatch)):
        assert type(got) is cls and got == want, e
        if e:
            assert counts == (e.bit_length() - 1, bin(e).count("1") - 1), e
        else:
            assert counts == (0, 0)
        want = want * base


def test_fraction_coefficients_stay_exact():
    x, y, w = _vars()
    p = x * Fraction(1, 3) + y * Fraction(1, 6)
    assert (p * 6) == 2 * x + y


# -- the packed product against the tuple-keyed loop it replaced -----------


def _tuple_product(a, b):
    """a * b by adding exponent tuples entrywise: no packing, no shared loop."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            exps = tuple(map(add, e1, e2))
            out[exps] = out.get(exps, 0) + c1 * c2
    return {e: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for e, c in out.items() if c}


def _typed(terms):
    return {e: (type(c), c) for e, c in terms.items()}


def _check_product(a, b):
    got = a * b
    assert type(got) is Poly and got.vars == a.vars
    assert _typed(got.terms) == _typed(_tuple_product(a, b)), (a, b)


def _random_coefficient(rng):
    num = rng.choice([n for n in range(-6, 7) if n])
    return Fraction(num, rng.choice((2, 3, 4))) if rng.random() < 0.4 else num


def _random_poly(rng, vars, size, top):
    return Poly(vars, {tuple(rng.randint(0, top) for _ in vars): _random_coefficient(rng)
                       for _ in range(size)})


@pytest.mark.parametrize("seed", range(40))
def test_product_matches_the_tuple_keyed_loop(seed):
    rng = random.Random(4400 + seed)
    vars = rng.choice([(), ("x",), V, ("a", "b", "c", "d", "e")])
    sizes = rng.choice([(0, 4), (1, 1), (1, 9), (9, 1), (4, 6), (12, 12)])
    a = _random_poly(rng, vars, sizes[0], rng.randint(0, 6))
    b = _random_poly(rng, vars, sizes[1], rng.randint(0, 6))
    _check_product(a, b)
    _check_product(b, a)
    _check_product(a, a)


def test_product_of_constants_and_zero_variable_polynomials():
    for vars in ((), V):
        two, third = Poly.const(vars, 2), Poly.const(vars, Fraction(1, 3))
        for a, b in ((two, third), (third, third), (two, Poly.zero(vars))):
            _check_product(a, b)
        assert (third * Poly.const(vars, 6)).terms == {(0,) * len(vars): 2}
    x, y, w = _vars()
    _check_product(Poly.const(V, Fraction(-3, 2)), x ** 3 - Fraction(1, 2) * y * w + 7)


def test_product_cancels_to_zero_and_to_integers():
    x, y, w = _vars()
    half, third = Fraction(1, 2), Fraction(1, 3)
    cases = [(x * half + y * third, x * half - y * third),  # the x*y terms cancel
             (x - y, x ** 2 + x * y + y ** 2),  # every middle term cancels
             (x * Fraction(2, 3) + w * Fraction(3, 4), y * Fraction(3, 2) - w * 4)]
    for a, b in cases:
        _check_product(a, b)
    assert (x - y) * (x ** 2 + x * y + y ** 2) == x ** 3 - y ** 3
    assert ((x * half + y * third) * (x * half - y * third)).terms == {
        (2, 0, 0): Fraction(1, 4), (0, 2, 0): Fraction(-1, 9)}
    # Fractions whose products are whole are stored as ints
    assert _typed((x * Fraction(2, 3) * (y * Fraction(3, 2))).terms) == {(1, 1, 0): (int, 1)}


@pytest.mark.parametrize("bits", range(1, 8))
def test_product_fields_filled_to_the_last_bit_do_not_carry(bits):
    # the field width is the bit length of the largest exponent sum; a sum of
    # 2^w - 1 fills a field and a sum of 2^w widens it, and a carry out of
    # any field would move a term to another monomial
    rng = random.Random(bits)
    for target in (2 ** bits - 1, 2 ** bits):
        for top_a in sorted({0, 1, target // 2, target - 1, target} & set(range(target + 1))):
            top_b = target - top_a
            a = Poly(V, {(top_a, top_a, top_a): 3, (top_a, 0, top_a): Fraction(1, 2),
                         (0, top_a, 0): -1})
            b = Poly(V, {(top_b, top_b, top_b): -2, (top_b, top_b, 0): 5,
                         (0, 0, top_b): Fraction(2, 3)})
            a = a + _random_poly(rng, V, 3, top_a)
            b = b + _random_poly(rng, V, 3, top_b)
            _check_product(a, b)
            _check_product(b, a)


def _packed_product(a, b):
    """The terms of a * b from the packed multiply-accumulate loop, which
    ``Poly`` runs for every product without a one-term operand."""
    top = exactpoly._top_exponent(a.terms) + exactpoly._top_exponent(b.terms)
    shifts, mask = exactpoly._field_layout(len(a.vars), max(1, top.bit_length()))
    acc = {}
    exactpoly._mul_acc(acc, [(exactpoly._pack_key(e, shifts), c) for e, c in a.terms.items()],
                       [(exactpoly._pack_key(e, shifts), c) for e, c in b.terms.items()])
    return exactpoly._unpack_terms(acc.items(), shifts, mask)


def _ordered(terms):
    return [(e, type(c), c) for e, c in terms.items()]


@pytest.mark.parametrize("seed", range(24))
def test_one_term_products_equal_the_packed_route(seed):
    # same terms, coefficient types and term order, in both operand orders
    rng = random.Random(9100 + seed)
    vars = rng.choice([(), ("x",), V, ("a", "b", "c", "d", "e")])
    top = rng.randint(0, 6)
    one = _random_poly(rng, vars, 1, top)
    coefficients = (rng.randint(-9, 9) or 1, Fraction(rng.choice((-3, 2, 5)), 3),
                    Fraction(3, 2), Fraction(-2, 3))
    for c in coefficients:
        single = Poly(vars, {next(iter(one.terms)): c})
        for other in (Poly.zero(vars), _random_poly(rng, vars, 1, top),
                      _random_poly(rng, vars, rng.randint(2, 12), top),
                      _random_poly(rng, vars, 5, top) * Fraction(2, 3)):
            for a, b in ((single, other), (other, single)):
                got = a * b
                assert type(got) is Poly and got.vars == vars
                assert _ordered(got.terms) == _ordered(_packed_product(a, b)), (a, b)


def test_degrees():
    x, y, w = _vars()
    p = x ** 2 * y + w
    assert p.degree_in("x") == 2
    assert p.degree_in("y") == 1
    assert p.degree_in("w") == 1
    assert Poly.zero(V).degree_in("x") == -1


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
    with pytest.raises(InvalidInputError, match="exact rational"):
        x.exact_div(1.5)


def test_operands_that_are_not_numbers_are_not_implemented():
    x, y, w = _vars()
    with pytest.raises(TypeError):
        x + "a"
    with pytest.raises(TypeError):
        x * "a"
    assert (x == "a") is False


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


@pytest.mark.parametrize("seed", range(10))
def test_monic_pseudo_remainder_is_the_exact_remainder(seed):
    # scaling a monic divisor by 3 takes the scaled path, which multiplies
    # each step by 3, so its remainder is 3^steps times the monic one
    rng = random.Random(7000 + seed)
    x, y, w = _vars()

    def rand_poly(terms, top):
        return sum((rng.randint(-4, 4) * x ** rng.randint(0, top)
                    * y ** rng.randint(0, 2) * w ** rng.randint(0, 1)
                    for _ in range(terms)), Poly.zero(V))

    f = rand_poly(6, 6)
    dg = rng.randint(1, 3)
    g = x ** dg + rand_poly(3, dg - 1)
    view = exactpoly._as_univariate
    rem = exactpoly._pseudo_rem(view(f, 0), view(g, 0))
    assert all(d < dg for d in rem)
    rest = exactpoly._from_univariate(rem, f, 0)
    assert (f - rest).divisible_by(g)
    scaled = exactpoly._pseudo_rem(view(f, 0), view(g * 3, 0))
    assert scaled.keys() == rem.keys()
    assert any(all(scaled[d] == c * 3 ** steps for d, c in rem.items())
               for steps in range(f.degree_in("x") + 2))


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


def test_parse_ignores_blanks_at_either_end():
    x, y, w = _vars()
    for text in ("x + 1 ", " x + 1", "\tx + 1\n", "  x +  1  "):
        assert parse_poly(text, V) == x + 1
    assert parse_poly("x^2 ", V) == x ** 2
    with pytest.raises(InvalidInputError):
        parse_poly("x + ", V)


def test_parse_rejects_garbage():
    with pytest.raises(InvalidInputError):
        parse_poly("x +", V)
    with pytest.raises(InvalidInputError):
        parse_poly("z + 1", V)
    with pytest.raises(InvalidInputError):
        parse_poly("x / y", V)
    with pytest.raises(InvalidInputError, match="polynomial text"):
        parse_poly(5, V)


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


@pytest.mark.parametrize("call", [lambda p: p.diff("z"), lambda p: p.degree_in("z")],
                         ids=["diff", "degree_in"])
def test_unknown_variable_names_are_refused_with_a_typed_error(call):
    x, y, w = _vars()
    with pytest.raises(InvalidInputError,
                       match=r"unknown variable 'z' \(ring has \('x', 'y', 'w'\)\)"):
        call(x * y + w)


@pytest.mark.parametrize("make", [
    lambda x, y: x.constant_value(),
    lambda x, y: Poly.zero(V).leading(),
    lambda x, y: x ** -1,
    lambda x, y: x.subs({"x": Poly.variable(("a",), "a")}),
    lambda x, y: (x + y).subs({"y": 1}, vars=("y",)),
    lambda x, y: (x + y).eval_at({"x": 1}),
    lambda x, y: x.exact_div(Poly.zero(V)),
    lambda x, y: x.exact_div(0),
    lambda x, y: common_divisor([]),
], ids=["constant-value", "leading-of-zero", "negative-power", "subs-foreign-value",
        "subs-absent-variable", "eval-missing-value", "divide-by-zero",
        "divide-by-zero-number", "empty-content"])
def test_exactpoly_refusals(make):
    x, y, w = _vars()
    with pytest.raises(InvalidInputError) as info:
        make(x, y)
    assert type(info.value) is InvalidInputError


def test_zero_and_number_operands_of_division_content_and_gcd():
    x, y, w = _vars()
    zero = Poly.zero(V)
    half = x.exact_div(2)
    assert half == x * Fraction(1, 2) and half.terms == {(1, 0, 0): Fraction(1, 2)}
    assert zero.monomial_content() == (0, 0, 0)
    assert zero.normalized() is zero
    assert poly_gcd(zero, 2 * x - 4 * y) == x - 2 * y
    assert poly_gcd(-3 * y, zero) == y
    assert poly_gcd(zero, zero).is_zero()
