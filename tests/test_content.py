"""Seeded checks of the common content against the plain gcd fold.

The fold the engine used before, which runs ``poly_gcd`` on every nonzero
member from the first until the running gcd is constant, is kept here as
the oracle of ``common_divisor``.  The engine skips a member the running
gcd already divides; the oracle never does, not even inside ``poly_gcd``.
"""

import random
from fractions import Fraction

import pytest

from scrollflex import exactpoly
from scrollflex.exactpoly import Poly, common_divisor, poly_gcd
from scrollflex.jets import bundled_minor_report

from .test_properties import MINOR_REQUESTS

V = ("x", "y", "w")


# -- the oracle: the plain fold ------------------------------------------------


def plain_fold(polys):
    """poly_gcd of every nonzero member in turn, from the first normalized,
    stopped at a constant."""
    live = [p for p in polys if not p.is_zero()]
    g = live[0].normalized()
    for p in live[1:]:
        if g.is_constant():
            break
        g = poly_gcd(g, p)
    return g


def oracle_content(polys, monkeypatch):
    # poly_gcd takes the content of its univariate views through the same
    # fold, so the oracle swaps it in there as well
    with monkeypatch.context() as m:
        m.setattr(exactpoly, "_content_list", plain_fold)
        return plain_fold(polys)


def _typed(p):
    return sorted((e, type(c), c) for e, c in p.terms.items())


# -- seeded members ------------------------------------------------------------


def _factor(rng):
    """A random polynomial of degree 1 or 2 in (x, y, w), maybe not monic
    and maybe with fractional coefficients."""
    gens = Poly.variables(V)
    p = Poly.const(V, rng.randint(-3, 3))
    for _ in range(rng.randint(1, 3)):
        term = rng.choice(gens)
        if rng.random() < 0.4:
            term = term * rng.choice(gens)
        p = p + term * Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 1, 2]))
    return p if not p.is_constant() else p + gens[0]


def _product(rng, count):
    p = Poly.const(V, Fraction(rng.choice([-6, -1, 1, 2, 5]), rng.choice([1, 3])))
    for _ in range(count):
        p = p * _factor(rng)
    return p


def _members(rng):
    """Members sharing ``common * extra`` up to a later one that keeps only
    ``common``, with repeats and copies scaled by a sign or a fraction."""
    common = _product(rng, rng.randint(0, 2))
    extra = _product(rng, 1)
    members = [common * extra * _product(rng, rng.randint(0, 2))
               for _ in range(rng.randint(2, 4))]
    members.append(common * _product(rng, rng.randint(1, 2)))
    for _ in range(rng.randint(0, 3)):
        p = rng.choice(members)
        scale = rng.choice([1, -1, Fraction(-3, 2), Fraction(7, 5)])
        members.insert(rng.randint(1, len(members)), p * scale)
    if rng.random() < 0.3:
        members.insert(rng.randint(0, len(members)), Poly.zero(V))
    return members, common


@pytest.mark.parametrize("seed", range(60))
def test_content_matches_the_plain_fold_on_seeded_members(seed, monkeypatch):
    rng = random.Random(f"content {seed}")
    members, common = _members(rng)
    got = common_divisor(members)
    want = oracle_content(members, monkeypatch)
    assert _typed(got) == _typed(want)
    assert str(got) == str(want)
    assert got.divisible_by(common.normalized())


@pytest.mark.parametrize("seed", range(10))
def test_repeated_and_rescaled_members_leave_the_first_normalized(seed, monkeypatch):
    rng = random.Random(f"repeats {seed}")
    p = _product(rng, rng.randint(1, 3))
    members = [p, -p, p, p * Fraction(5, 3), p * -7]
    got = common_divisor(members)
    assert _typed(got) == _typed(oracle_content(members, monkeypatch))
    assert _typed(got) == _typed(p.normalized())


def test_members_the_running_gcd_divides_run_no_euclid(monkeypatch):
    x, y, w = Poly.variables(V)
    base = y ** 2 * (x * w - y)
    given = [base * (x + 1), base * w, base * -3, y * (x + w), base]
    folded = []
    gcd = exactpoly.poly_gcd

    def counted(a, b):
        if any(b is m for m in given):  # a fold step, not a gcd's inner call
            folded.append(b)
        return gcd(a, b)

    monkeypatch.setattr(exactpoly, "poly_gcd", counted)
    assert common_divisor(given) == y
    # Euclid runs on the second member and on the one that keeps only y
    assert folded == [given[1], given[3]]


@pytest.mark.parametrize("name,size", MINOR_REQUESTS)
def test_minor_content_matches_the_plain_fold(name, size, monkeypatch):
    report = bundled_minor_report(name, size)
    want = oracle_content(report.minors, monkeypatch)
    assert _typed(report.content) == _typed(want)
    assert str(report.content) == str(want)
