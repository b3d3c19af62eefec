"""Seeded checks of the exponent-keyed pairing path and the preset tables.

The string-keyed routes the engine used before, one ``Poly`` sum per term,
are kept here as the oracles, and a preset's table at given slot values is
checked against its all-symbolic table with those values substituted.
"""

import random
from fractions import Fraction

import pytest

from scrollflex import chern, scroll
from scrollflex.errors import IncompleteDataError, InvalidInputError
from scrollflex.exactpoly import Poly, monomial_text
from scrollflex.scroll import (BASE_PRESETS, NumericalBaseData, ScrollSetup,
                               base_ring, canonical_monomial, degree_class,
                               degree_of_inflection, evaluate_symbolic,
                               inflection_class, symbolic_degree)

CASES = 500
VARS = ("a", "b")


# -- the oracles: the string-keyed routes ----------------------------------


def _oracle_symbolic(cls, assignments, vars):
    vars = tuple(vars)
    total = Poly.zero(vars)
    missing = []
    for exps, coeff in cls.terms.items():
        key = canonical_monomial(monomial_text(cls.ring.names, exps))
        if key not in assignments:
            missing.append(key)
            continue
        value = assignments[key]
        if not isinstance(value, Poly):
            value = Poly.const(vars, value)
        elif value.vars != vars:
            raise InvalidInputError(f"assignment for {key!r} uses foreign variables")
        total = total + value * coeff
    if missing:
        raise IncompleteDataError(missing)
    return total


def _oracle_numeric(data, cls):
    total = Fraction(0)
    missing = []
    for exps, coeff in cls.terms.items():
        key = canonical_monomial(monomial_text(cls.ring.names, exps))
        if key not in data.assignments:
            missing.append(key)
            continue
        total += coeff * data.assignments[key]
    if missing:
        raise IncompleteDataError(missing)
    return total


def _oracle_assignments(preset, **values):
    """The preset's all-symbolic table with the bound slots substituted."""
    unknown = set(values) - set(preset.slots)
    if unknown:
        raise InvalidInputError(f"unknown preset parameters {sorted(unknown)}")
    free = tuple(s for s in preset.slots if s not in values)
    point = {s: Poly.const(free, values[s]) for s in preset.slots if s in values}
    return {key: poly.subs(point, vars=free)
            for key, poly in scroll._preset_table(preset)}


def _oracle_numerical(preset, **values):
    missing = [s for s in preset.slots if s not in values]
    if missing:
        raise InvalidInputError(f"preset {preset.name} needs values for {missing}")
    ints = {}
    for key, poly in _oracle_assignments(preset, **values).items():
        c = poly.constant_value()
        if c.denominator != 1:
            raise InvalidInputError(f"{key} evaluated to non-integer {c}")
        ints[key] = int(c)
    return NumericalBaseData(preset.dimension, ints)


def _outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except (InvalidInputError, IncompleteDataError) as exc:
        return type(exc), str(exc)


def _same_poly(got, want):
    """Equal terms with equal coefficient types (ints while integral)."""
    assert got.vars == want.vars
    assert got.terms == want.terms
    assert {e: type(c) for e, c in got.terms.items()} == \
        {e: type(c) for e, c in want.terms.items()}
    assert str(got) == str(want)


# -- random inputs -----------------------------------------------------------


def _weighted_exponents(weights, total):
    if not weights:
        if total == 0:
            yield ()
        return
    for e in range(total // weights[0] + 1):
        for rest in _weighted_exponents(weights[1:], total - e * weights[0]):
            yield (e,) + rest


def _random_base_class(rng):
    m = rng.randint(1, 4)
    ring = base_ring(m, rng.randint(1, m + 1))
    monomials = list(_weighted_exponents(ring.weights, m))
    terms = {}
    for exps in rng.sample(monomials, rng.randint(1, len(monomials))):
        terms[exps] = rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9),
                                                                rng.randint(1, 4))))
    return ring, chern.GradedClass(ring, terms)


def _random_value(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-5, 5)
    if kind == 1:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    a, b = Poly.variables(VARS)
    poly = a * rng.randint(-3, 3) + b * b * Fraction(rng.randint(-3, 3), 2)
    return poly + rng.randint(-3, 3) if kind == 2 else poly * a


def _random_table(rng, ring, degree):
    """Values for every weight-``degree`` monomial, a few dropped or spoiled."""
    table = {}
    for exps in _weighted_exponents(ring.weights, degree):
        key = canonical_monomial(monomial_text(ring.names, exps))
        table[key] = _random_value(rng)
    spoil = rng.randrange(10)
    key = rng.choice(sorted(table))
    if spoil == 0:
        del table[key]
    elif spoil == 1:
        table[key] = Poly.variable(("a", "c"), "a")
    elif spoil == 2:
        table[key] = 1.5
    return table


# -- pairing -------------------------------------------------------------------


def test_evaluate_symbolic_matches_string_keyed_sum_500():
    rng = random.Random(20261101)
    raised = set()
    for case in range(CASES):
        ring, cls = _random_base_class(rng)
        table = _random_table(rng, ring, ring.truncation)
        want = _outcome(_oracle_symbolic, cls, table, VARS)
        got = _outcome(evaluate_symbolic, cls, table, VARS)
        if isinstance(want, tuple):
            assert got == want, f"case {case}"
            raised.add(want[0])
        else:
            _same_poly(got, want)
    assert raised == {InvalidInputError, IncompleteDataError}


def test_numeric_evaluate_matches_string_keyed_sum_500():
    rng = random.Random(20261102)
    incomplete = 0
    for case in range(CASES):
        ring, cls = _random_base_class(rng)
        keys = [canonical_monomial(monomial_text(ring.names, e))
                for e in _weighted_exponents(ring.weights, ring.truncation)]
        if rng.random() < 0.1:
            keys.pop(rng.randrange(len(keys)))
        data = NumericalBaseData(ring.truncation,
                                 {key: rng.randint(-20, 20) for key in keys})
        want = _outcome(_oracle_numeric, data, cls)
        got = _outcome(data.evaluate, cls)
        assert got == want, f"case {case}"
        if isinstance(want, tuple):
            incomplete += 1
        else:
            assert type(got) is Fraction
    assert incomplete


def _respelled_p2(**extra):
    table = BASE_PRESETS["p2"].assignments()
    table["v1*c1"] = table.pop("c1*v1")
    return {**table, **extra}


def test_symbolic_pairing_reads_a_table_by_canonical_spelling():
    setup = ScrollSetup(3, 2, 2, 9)
    want = symbolic_degree(setup, BASE_PRESETS["p2"].assignments(), ("v", "y"))
    _same_poly(symbolic_degree(setup, _respelled_p2(), ("v", "y")), want)
    # the numeric route reads the same spelling to the same degree
    numbers = {key: int(poly.constant_value()) for key, poly
               in BASE_PRESETS["p2"].assignments(v=4, y=4).items()}
    numbers["v1*c1"] = numbers.pop("c1*v1")
    degree = degree_of_inflection(setup, NumericalBaseData(2, numbers)).value
    assert want.eval_at({"v": 4, "y": 4}) == degree


def test_symbolic_pairing_refuses_two_values_for_one_monomial():
    v = Poly.variable(("v", "y"), "v")
    with pytest.raises(InvalidInputError,
                       match=r"keys 'v1\*c1' and 'v1\^1\*c1' both name c1\*v1"):
        symbolic_degree(ScrollSetup(3, 2, 2, 9),
                        _respelled_p2(**{"v1^1*c1": 3 * v + 1}), ("v", "y"))


def test_symbolic_pairing_lists_a_key_still_missing_after_respelling():
    table = _respelled_p2()
    del table["v2"]
    with pytest.raises(IncompleteDataError) as err:
        symbolic_degree(ScrollSetup(3, 2, 2, 9), table, ("v", "y"))
    assert err.value.missing == ("v2",)


def test_symbolic_pairing_ignores_a_key_that_is_not_a_base_monomial():
    # complete or not, a table's extra key is never read: a miss is still
    # reported as missing data, and a respelled table still pairs
    setup = ScrollSetup(3, 2, 2, 9)
    want = symbolic_degree(setup, BASE_PRESETS["p2"].assignments(), ("v", "y"))
    for table in (BASE_PRESETS["p2"].assignments(), _respelled_p2()):
        _same_poly(symbolic_degree(setup, {**table, "note": 0}, ("v", "y")), want)
        del table["v2"]
        with pytest.raises(IncompleteDataError) as err:
            symbolic_degree(setup, {**table, "note": 0}, ("v", "y"))
        assert err.value.missing == ("v2",)


def test_evaluate_symbolic_refuses_duplicate_names():
    cls = base_ring(2, 2).variable("c2")
    with pytest.raises(InvalidInputError, match="duplicate variable names"):
        evaluate_symbolic(cls, {"c2": 1}, ("a", "a"))


# -- presets -------------------------------------------------------------------


def test_presets_match_rebuilt_tables():
    for preset in BASE_PRESETS.values():
        want = _oracle_assignments(preset)
        got = preset.assignments()
        assert list(got) == list(want)
        for key in want:
            _same_poly(got[key], want[key])


def test_preset_keys_are_canonical_monomials_of_the_base_dimension():
    for preset in BASE_PRESETS.values():
        for key in preset.assignments():
            assert scroll._canonical_key(key) == (key, preset.dimension), key


def test_preset_binding_matches_rebuilt_tables_500():
    rng = random.Random(20261103)
    presets = sorted(BASE_PRESETS.values(), key=lambda p: p.name)
    kinds = set()
    for case in range(CASES):
        preset = presets[case % len(presets)]
        values = {}
        for slot in preset.slots:
            if rng.random() < 0.7:
                values[slot] = rng.choice((rng.randint(-12, 12),
                                           Fraction(rng.randint(-12, 12), 2)))
        spoil = rng.randrange(12)
        if spoil == 0:
            values["nope"] = 1
        elif spoil == 1:
            values[rng.choice(preset.slots)] = 2.5
        elif spoil == 2:
            values[rng.choice(preset.slots)] = Poly.const(preset.slots, 1)
        want = _outcome(_oracle_assignments, preset, **values)
        got = _outcome(preset.assignments, **values)
        if isinstance(want, tuple):
            assert got == want, f"case {case}"
        else:
            assert list(got) == list(want)
            for key in want:
                _same_poly(got[key], want[key])
        want = _outcome(_oracle_numerical, preset, **values)
        got = _outcome(preset.numerical, **values)
        assert got == want, f"case {case}"
        kinds.add(want[1].split()[0] if isinstance(want, tuple) else "ok")
    # every refusal occurs: unknown and missing slots, non-rational values
    # (``expected``) and non-integer results (a table key)
    assert {"ok", "unknown", "preset", "expected"} < kinds


def test_preset_numerical_matches_bound_assignments():
    rng = random.Random(20261104)
    for preset in BASE_PRESETS.values():
        for _ in range(20):
            values = {slot: rng.randint(-9, 9) for slot in preset.slots}
            table = preset.assignments(**values)
            want = {key: int(poly.constant_value()) for key, poly in table.items()}
            got = preset.numerical(**values).assignments
            assert got == {canonical_monomial(k): v for k, v in want.items()}
            assert all(type(v) is int for v in got.values())


# -- results are fresh, caches are bounded --------------------------------------


def test_returned_tables_and_classes_are_fresh():
    preset = BASE_PRESETS["p2"]
    table = preset.assignments()
    table["c2"] = Poly.zero(preset.slots)
    del table["v2"]
    assert preset.assignments() == _oracle_assignments(preset)
    bound = preset.assignments(v=4)
    bound.clear()
    assert preset.assignments(v=4) == _oracle_assignments(preset, v=4)
    data = preset.numerical(v=4, y=4)
    data.assignments["c2"] = 1000
    assert preset.numerical(v=4, y=4).assignments["c2"] == 3

    setup = ScrollSetup(3, 2, 2, 10)
    want = degree_class(setup)
    got = degree_class(setup)
    assert got is not want
    got.terms.clear()
    assert degree_class(setup) == want and not degree_class(setup).is_zero()
    result = degree_of_inflection(setup, preset.numerical(v=4, y=4))
    result.symbolic.terms.clear()
    assert degree_class(setup) == want
    poly = symbolic_degree(setup, preset.assignments(), preset.slots)
    poly.terms.clear()
    again = symbolic_degree(setup, preset.assignments(), preset.slots)
    assert again == evaluate_symbolic(degree_class(setup), preset.assignments(),
                                      preset.slots)
    assert not again.is_zero()
    cls = inflection_class(setup)
    cls.terms.clear()
    assert not inflection_class(setup).is_zero()


def test_pairing_caches_are_bounded():
    assert scroll._preset_table.cache_info().maxsize == scroll.RING_CACHE_SIZE
    assert scroll._degree_terms.cache_info().maxsize == scroll.CLASS_CACHE_SIZE
    for cache in (scroll._monomial_key, scroll._canonical_key):
        assert cache.cache_info().maxsize == scroll.TABLE_CACHE_SIZE == 256
