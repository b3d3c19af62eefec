"""Substitution and monomial text against the loops they replaced.

``Poly.subs``, ``GradedClass.substitute`` and ``scroll.graded_to_poly`` run
one substitution loop in ``exactpoly``.  The oracles below are the three
loops they ran before, kept as written then.  Results are compared term by
term with their coefficient types, since the kernel promises an ``int``
while a coefficient is integral.
"""

import random
from fractions import Fraction

import pytest

from scrollflex.chern import GradedClass, GradedRing, GradedVariable
from scrollflex.errors import InvalidInputError
from scrollflex.exactpoly import Poly, monomial_text, parse_poly
from scrollflex.scroll import (base_ring, canonical_monomial, evaluate_symbolic,
                               graded_to_poly)

CASES = 120


# -- the loops as they were ----------------------------------------------------


def oracle_subs(p, mapping, vars=None):
    target = tuple(vars) if vars is not None else p.vars
    values = []
    for name in p.vars:
        if name in mapping:
            v = mapping[name]
            values.append(v if isinstance(v, Poly) else Poly.const(target, v))
        elif name in target:
            values.append(Poly.variable(target, name))
        else:
            values.append(Poly.zero(target))
    out = Poly.zero(target)
    one = tuple(0 for _ in target)
    powers = {}
    for exps, c in p.terms.items():
        term = Poly(target, {one: c})
        for i, e in enumerate(exps):
            if e == 0:
                continue
            key = (i, e)
            if key not in powers:
                powers[key] = values[i] ** e
            term = term * powers[key]
        out = out + term
    return out


def oracle_substitute(cls, target, mapping):
    values = {cls.ring.index(name): value for name, value in mapping.items()}
    out = target.zero()
    powers = {}
    for exps, c in cls.terms.items():
        term = target.scalar(c)
        for i, e in enumerate(exps):
            if e == 0:
                continue
            if i not in values:
                raise InvalidInputError(
                    f"no substitution supplied for {cls.ring.names[i]!r}")
            key = (i, e)
            if key not in powers:
                powers[key] = values[i] ** e
            term = term * powers[key]
            if term.is_zero():
                break
        out = out + term
    return out


def oracle_graded_to_poly(cls, vars=None):
    names = tuple(vars) if vars is not None else cls.ring.names
    terms = {}
    for exps, coeff in cls.terms.items():
        t = [0] * len(names)
        for name, e in zip(cls.ring.names, exps):
            if e:
                t[names.index(name)] = e
        terms[tuple(t)] = coeff
    return Poly(names, terms)


# -- seeded inputs -------------------------------------------------------------


def _typed(p):
    return p.vars, sorted((e, type(c).__name__, c) for e, c in p.terms.items())


def _coefficient(rng, fractions):
    c = rng.choice((-1, 1)) * rng.randint(1, 9)
    return Fraction(c, rng.randint(1, 4)) if fractions else c


def _random_poly(rng, vars, fractions, terms=4, degree=3):
    return Poly(vars, {tuple(rng.randint(0, degree) for _ in vars):
                       _coefficient(rng, fractions)
                       for _ in range(rng.randint(0, terms))})


def _random_ring(rng):
    nvars = rng.randint(1, 4)
    truncation = rng.randint(1, 4)
    sectors = [rng.choice((None, "base")) for _ in range(nvars)]
    caps = None
    if rng.random() < 0.5:
        sectors[0] = "base"
        caps = {"base": rng.randint(0, truncation)}
    return GradedRing([GradedVariable(f"x{i}", rng.randint(1, 2), sectors[i])
                       for i in range(nvars)], truncation, caps)


def _random_class(rng, ring, fractions, degree=None):
    """A class of ``ring``; homogeneous of ``degree`` when one is given."""
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exps = tuple(rng.randint(0, 2) for _ in ring.names)
        if degree is None or ring.monomial_degree(exps) == degree:
            terms[exps] = _coefficient(rng, fractions)
    return GradedClass(ring, terms)


@pytest.mark.parametrize("fractions", (False, True))
def test_poly_subs_matches_the_loop_it_replaced(fractions):
    rng = random.Random(f"subs {fractions}")
    names = ("a", "b", "c", "d", "e")
    for case in range(CASES):
        vars = tuple(rng.sample(names, rng.randint(1, 3)))
        target = tuple(rng.sample(names, rng.randint(1, 4)))
        mapping, absent = {}, []
        for name in vars:
            roll = rng.random()
            if roll < 0.4:
                mapping[name] = _random_poly(rng, target, fractions, 3, 2)
            elif roll < 0.6:
                mapping[name] = _coefficient(rng, fractions)
            elif name not in target:
                absent.append(vars.index(name))
        # a name neither mapped nor in the target must not occur
        p = _random_poly(rng, vars, fractions)
        p = Poly(vars, {e: c for e, c in p.terms.items() if not any(e[i] for i in absent)})
        want = oracle_subs(p, mapping, target)
        assert _typed(p.subs(mapping, vars=target)) == _typed(want), f"case {case}"
        scalars = {k: v for k, v in mapping.items() if not isinstance(v, Poly)}
        assert _typed(p.subs(scalars)) == _typed(oracle_subs(p, scalars)), f"case {case}"


@pytest.mark.parametrize("fractions", (False, True))
def test_graded_substitute_matches_the_loop_it_replaced(fractions):
    rng = random.Random(f"substitute {fractions}")
    for case in range(CASES):
        ring, target = _random_ring(rng), _random_ring(rng)
        cls = _random_class(rng, ring, fractions)
        mapping = {}
        for name, weight in zip(ring.names, ring.weights):
            if rng.random() < 0.85:
                mapping[name] = _random_class(rng, target, fractions, weight)
        try:
            want = oracle_substitute(cls, target, mapping)
        except InvalidInputError as exc:
            with pytest.raises(InvalidInputError, match=str(exc)):
                cls.substitute(target, mapping)
            continue
        got = cls.substitute(target, mapping)
        assert got.ring == target and _typed(got) == _typed(want), f"case {case}"


@pytest.mark.parametrize("fractions", (False, True))
def test_graded_to_poly_matches_the_loop_it_replaced(fractions):
    rng = random.Random(f"graded_to_poly {fractions}")
    for case in range(CASES):
        ring = _random_ring(rng)
        cls = _random_class(rng, ring, fractions)
        assert _typed(graded_to_poly(cls)) == _typed(oracle_graded_to_poly(cls))
        vars = list(ring.names) + ["y", "z"][:rng.randint(0, 2)]
        rng.shuffle(vars)
        got = graded_to_poly(cls, vars)
        assert _typed(got) == _typed(oracle_graded_to_poly(cls, vars)), f"case {case}"


def test_graded_to_poly_refuses_a_name_missing_from_the_target():
    ring = base_ring(2, 2)
    c1, v2 = ring.variable("c1"), ring.variable("v2")
    # a ring name that does not occur may be left out
    assert graded_to_poly(3 * c1 * c1, ("c1", "d")) == 3 * Poly.variable(("c1", "d"), "c1") ** 2
    with pytest.raises(InvalidInputError, match="unknown variable 'v2'"):
        graded_to_poly(c1 * c1 + v2, ("c1", "c2", "v1"))


def test_a_graded_value_over_the_same_names_is_refused_by_its_own_message():
    ring = base_ring(2, 2)
    c1 = Poly.variable(ring.names, "c1")
    with pytest.raises(InvalidInputError,
                       match=r"substitution value for 'c1' lives over GradedRing"):
        c1.subs({"c1": ring.variable("c1")})
    with pytest.raises(InvalidInputError,
                       match=r"substitution value for 'c1' lives over \('x',\)"):
        c1.subs({"c1": Poly.variable(("x",), "x")})
    assert c1.subs({"c1": Poly.variable(ring.names, "c2")}) == Poly.variable(ring.names, "c2")
    with pytest.raises(InvalidInputError, match="assignment for 'c2' uses foreign variables"):
        evaluate_symbolic(ring.variable("c2"), {"c2": ring.variable("c1")}, ring.names)
    assert evaluate_symbolic(ring.variable("c2"), {"c2": c1}, ring.names) == c1


# -- monomial text -------------------------------------------------------------


def test_monomial_text_round_trips_through_the_parser_and_the_canonical_form():
    rng = random.Random("monomial text")
    for case in range(CASES):
        m, r = rng.randint(1, 12), rng.randint(1, 12)
        names = base_ring(m, r).names  # c1..cm, v1..: the canonical order
        exps = tuple(rng.choice((0, 0, 1, 2, 11)) for _ in names)
        text = monomial_text(names, exps)
        assert parse_poly(text, names) == Poly(names, {exps: 1}), f"case {case}"
        assert str(Poly(names, {exps: 1})) == text
        assert canonical_monomial(text) == text
    assert monomial_text(("x", "y"), (0, 0)) == "1"
    assert monomial_text(("x", "y"), (1, 3)) == "x*y^3"
