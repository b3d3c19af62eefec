import itertools
import json
import random
from fractions import Fraction

import pytest

from scrollflex import chern
from scrollflex.chern import (FormalBundle, GradedClass, GradedRing,
                              GradedVariable, bundle_from_classes, direct_sum,
                              dual, sym_power, tensor, tensor_line,
                              trivial_bundle)
from scrollflex.errors import (InvalidInputError, ResourceLimitError,
                               RingMismatchError)
from scrollflex.exactpoly import Poly

from .test_properties import _one_plus_product, _root_bundle


def ring_b(truncation=3):
    return GradedRing([GradedVariable("b1", 1), GradedVariable("b2", 2),
                       GradedVariable("b3", 3)], truncation)


def surface_ring(truncation=2):
    return GradedRing([GradedVariable("c1", 1), GradedVariable("c2", 2),
                       GradedVariable("v1", 1), GradedVariable("v2", 2)],
                      truncation)


# -- series inverse -----------------------------------------------------------


def test_inverse_of_one_is_one():
    ring = ring_b()
    assert ring.one().series_inverse() == ring.one()


def test_inverse_rank3_closed_form():
    ring = ring_b()
    b1, b2, b3 = (ring.variable(n) for n in ("b1", "b2", "b3"))
    inv = (ring.one() + b1 + b2 + b3).series_inverse()
    assert inv == ring.one() - b1 + (b1 ** 2 - b2) + (-(b1 ** 3) + 2 * b1 * b2 - b3)


def test_inverse_of_binomial_series():
    # coefficients of (1 - L)^(-3) are binom(j + 2, 2): 1, 3, 6, 10, 15
    ring = GradedRing([GradedVariable("L", 1)], 4)
    L = ring.variable("L")
    inv = ((ring.one() - L) ** 3).series_inverse()
    assert [inv.coefficient([j]) for j in range(5)] == [1, 3, 6, 10, 15]


def test_inverse_requires_unit_constant_term():
    ring = ring_b()
    with pytest.raises(InvalidInputError):
        (2 * ring.one()).series_inverse()
    with pytest.raises(InvalidInputError):
        ring.variable("b1").series_inverse()


# -- dual ----------------------------------------------------------------------


def test_dual_trivial_bundle():
    ring = ring_b()
    e = trivial_bundle(ring, 4)
    assert dual(e) == e


def test_dual_inverse_matches_surface_expansion():
    ring = surface_ring()
    v1, v2 = ring.variable("v1"), ring.variable("v2")
    V = bundle_from_classes(2, [v1, v2])
    assert dual(V).total_chern.series_inverse() == ring.one() + v1 + (v1 ** 2 - v2)


def test_dual_is_involution_on_random_bundles():
    rng = random.Random(7)
    ring = ring_b(4)
    for _ in range(25):
        rank = rng.randint(1, 4)
        cls = ring.one()
        for name in ("b1", "b2", "b3"):
            cls = cls + ring.variable(name) * rng.randint(-3, 3)
        e = FormalBundle(rank, cls)
        assert dual(dual(e)) == e


# -- tensor by a line class -----------------------------------------------------


def test_tensor_line_identity():
    ring = surface_ring()
    e = bundle_from_classes(2, [ring.variable("c1"), ring.variable("c2")])
    assert tensor_line(e, ring.zero(), 1) == e
    assert tensor_line(e, ring.zero(), -1) == e


def test_tensor_line_rejects_inhomogeneous():
    ring = surface_ring()
    e = trivial_bundle(ring, 2)
    with pytest.raises(InvalidInputError):
        tensor_line(e, ring.one() + ring.variable("c1"), -1)
    with pytest.raises(InvalidInputError):
        tensor_line(e, ring.variable("c1"), 2)


def test_twisted_square_tangent_surface():
    # rank-3 twist by the dual hyperplane class on a threefold scroll
    ring = GradedRing([GradedVariable("L", 1),
                       GradedVariable("C1", 1, "base"),
                       GradedVariable("C2", 2, "base")], 3, {"base": 2})
    L, C1, C2 = (ring.variable(n) for n in ("L", "C1", "C2"))
    s2 = bundle_from_classes(3, [3 * C1, 2 * C1 ** 2 + 4 * C2, ring.zero()])
    twisted = tensor_line(s2, L, -1)
    expected = (ring.one() + (3 * C1 - 3 * L)
                + (2 * C1 ** 2 + 4 * C2 - 6 * C1 * L + 3 * L ** 2)
                - ((2 * C1 ** 2 + 4 * C2) * L - 3 * C1 * L ** 2 + L ** 3))
    assert twisted.total_chern == expected


def test_twisted_square_tangent_threefold():
    ring = GradedRing([GradedVariable("L", 1),
                       GradedVariable("C1", 1, "base"),
                       GradedVariable("C2", 2, "base"),
                       GradedVariable("C3", 3, "base")], 4, {"base": 3})
    L, C1, C2, C3 = (ring.variable(n) for n in ("L", "C1", "C2", "C3"))
    s2 = bundle_from_classes(
        6, [4 * C1, 5 * (C1 ** 2 + C2), 2 * C1 ** 3 + 11 * C1 * C2 + 7 * C3])
    c = tensor_line(s2, L, -1).total_chern.homogeneous_part
    assert c(1) == 4 * C1 - 6 * L
    assert c(2) == 5 * (C1 ** 2 + C2) - 20 * C1 * L + 15 * L ** 2
    assert c(3) == (2 * C1 ** 3 + 11 * C1 * C2 + 7 * C3
                    - 20 * (C1 ** 2 + C2) * L + 40 * C1 * L ** 2
                    - 20 * L ** 3)
    assert c(4) == (-3 * (2 * C1 ** 3 + 11 * C1 * C2 + 7 * C3) * L
                    + 30 * (C1 ** 2 + C2) * L ** 2
                    - 40 * C1 * L ** 3 + 15 * L ** 4)


# -- tensor products -------------------------------------------------------------


def test_tensor_surface_components():
    # dual(V) (x) T_Y over a surface, rank V = n - 1
    for n in (3, 4, 5):
        ring = surface_ring()
        c1, c2, v1, v2 = (ring.variable(s) for s in ("c1", "c2", "v1", "v2"))
        classes = [v1, v2] + [ring.zero()] * (n - 3)
        V = bundle_from_classes(n - 1, classes)
        T = bundle_from_classes(2, [c1, c2])
        c = tensor(dual(V), T).total_chern.homogeneous_part
        assert c(1) == -2 * v1 + (n - 1) * c1
        from math import comb
        assert c(2) == (v1 ** 2 + 2 * v2 - (2 * n - 3) * v1 * c1
                        + comb(n - 1, 2) * c1 ** 2 + (n - 1) * c2)


def test_tensor_threefold_components():
    ring = GradedRing([GradedVariable("c1", 1), GradedVariable("c2", 2),
                       GradedVariable("c3", 3), GradedVariable("v1", 1),
                       GradedVariable("v2", 2)], 3)
    c1, c2, c3, v1, v2 = (ring.variable(s) for s in ("c1", "c2", "c3", "v1", "v2"))
    c = tensor(dual(bundle_from_classes(2, [v1, v2])),
               bundle_from_classes(3, [c1, c2, c3])).total_chern.homogeneous_part
    assert c(1) == -3 * v1 + 2 * c1
    assert c(2) == 3 * v1 ** 2 + 3 * v2 - 5 * c1 * v1 + c1 ** 2 + 2 * c2
    assert c(3) == (-(v1 ** 3) - 6 * v1 * v2 + 4 * c1 * (v1 ** 2 + v2)
                    - (2 * c1 ** 2 + 4 * c2) * v1 + 2 * c1 * c2 + 2 * c3)


def test_tensor_of_lines_adds_first_chern():
    ring = surface_ring()
    a = bundle_from_classes(1, [ring.variable("c1")])
    b = bundle_from_classes(1, [ring.variable("v1")])
    assert (tensor(a, b).total_chern.homogeneous_part(1)
            == ring.variable("c1") + ring.variable("v1"))


def test_tensor_with_trivial_line_is_identity():
    ring = surface_ring()
    e = bundle_from_classes(2, [ring.variable("v1"), ring.variable("v2")])
    assert tensor(e, trivial_bundle(ring, 1)) == e


def test_tensor_matches_tensor_line_for_rank_one():
    ring = surface_ring()
    e = bundle_from_classes(2, [ring.variable("v1"), ring.variable("v2")])
    line = bundle_from_classes(1, [ring.variable("c1")])
    assert tensor(e, line).total_chern == tensor_line(e, ring.variable("c1"), 1).total_chern


def _root_ring(truncation=4):
    return GradedRing([GradedVariable("t", 1), GradedVariable("s", 1)], truncation)


def test_tensor_rank_81_matches_roots():
    # past the rank 64 the universal tables used to stop at
    rng = random.Random(81)
    ring = _root_ring()
    a, alpha = _root_bundle(ring, rng, 9)
    b, beta = _root_bundle(ring, rng, 9)
    got = tensor(a, b)
    assert got.rank == 81
    assert got.total_chern == _one_plus_product(
        ring, [(x + u, y + v) for x, y in alpha for u, v in beta])


# -- symmetric powers --------------------------------------------------------------


def test_sym_power_identity():
    ring = surface_ring()
    e = bundle_from_classes(2, [ring.variable("c1"), ring.variable("c2")])
    assert sym_power(e, 1) == e


def test_sym_square_rank2():
    ring = surface_ring()
    c1, c2 = ring.variable("c1"), ring.variable("c2")
    s2 = sym_power(bundle_from_classes(2, [c1, c2]), 2)
    assert s2.rank == 3
    assert s2.total_chern == ring.one() + 3 * c1 + (2 * c1 ** 2 + 4 * c2)


def test_sym_square_rank3():
    ring = GradedRing([GradedVariable("c1", 1), GradedVariable("c2", 2),
                       GradedVariable("c3", 3)], 3)
    c1, c2, c3 = (ring.variable(s) for s in ("c1", "c2", "c3"))
    s2 = sym_power(bundle_from_classes(3, [c1, c2, c3]), 2)
    assert s2.rank == 6
    assert s2.total_chern == (ring.one() + 4 * c1 + 5 * (c1 ** 2 + c2)
                              + 2 * c1 ** 3 + 11 * c1 * c2 + 7 * c3)


def test_sym_power_rank_70_matches_roots():
    # S^4 of a rank-5 bundle has rank binom(8, 4) = 70
    rng = random.Random(70)
    ring = _root_ring()
    e, alpha = _root_bundle(ring, rng, 5)
    got = sym_power(e, 4)
    assert got.rank == 70
    assert got.total_chern == _one_plus_product(ring, [
        tuple(map(sum, zip(*combo)))
        for combo in itertools.combinations_with_replacement(alpha, 4)])


def test_admitted_monomials_counts_the_ring():
    rings = [surface_ring(), ring_b(5), _root_ring(3),
             GradedRing([GradedVariable("L", 1), GradedVariable("C1", 1, "base"),
                         GradedVariable("C2", 2, "base"), GradedVariable("V1", 1, "base"),
                         GradedVariable("W", 2, "other")], 5, {"base": 2, "other": 2})]
    for ring in rings:
        box = itertools.product(*(range(ring.truncation // w + 1) for w in ring.weights))
        admitted = list(filter(ring.admits, box))
        assert chern.admitted_monomials(ring) == len(admitted), ring
        # kept with the count: the monomials per degree, and the pairs whose
        # product the ring admits, the most term products of one pass
        assert ring._degree_counts == [sum(ring.monomial_degree(e) == d for e in admitted)
                                       for d in range(ring.truncation + 1)], ring
        assert ring._pairs == sum(ring.admits(tuple(map(sum, zip(a, b))))
                                  for a in admitted for b in admitted), ring


def _too_wide_ring():
    # 30 weight-one classes at truncation 10 admit C(40, 10) monomials
    return GradedRing([GradedVariable(f"x{i}", 1) for i in range(30)], 10)


def test_admitted_monomials_are_counted_once_per_ring(monkeypatch):
    ring = ring_b(6)
    want = chern.admitted_monomials(ring)
    monkeypatch.setattr(chern, "product", None)  # a recount would fail
    assert chern.admitted_monomials(ring) == want
    assert chern.admitted_monomials(ring, 1) == want


def test_admitted_monomials_stop_once_past_a_bound():
    # x0 alone admits 11 monomials and x0, x1 admit 66; partial counts are not kept
    ring = _too_wide_ring()
    assert chern.admitted_monomials(ring, 10) == 11
    assert chern.admitted_monomials(ring, 11) == 66
    assert ring._admitted is None
    ring = _root_ring(2)
    assert chern.admitted_monomials(ring, 6) == 6 == ring._admitted


@pytest.mark.parametrize("operation", [
    lambda ring: tensor(trivial_bundle(ring, 2), trivial_bundle(ring, 2)),
    lambda ring: tensor_line(trivial_bundle(ring, 2), ring.variable("x0"), -1),
    lambda ring: sym_power(trivial_bundle(ring, 2), 2),
])
def test_work_estimate_refuses_before_any_product(monkeypatch, operation):
    def product(self, other):
        raise AssertionError("a product ran before the work estimate")

    ring = _too_wide_ring()
    monkeypatch.setattr(GradedClass, "__mul__", product)
    with pytest.raises(ResourceLimitError, match=f"over the limit {chern.WORK_LIMIT}"):
        operation(ring)


def test_work_estimate_counts_the_symmetric_power_order():
    ring = _root_ring(2)
    e = bundle_from_classes(2, [ring.variable("t"), ring.variable("s") ** 2])
    assert sym_power(e, 16).rank == 17
    assert sym_power(e, 10000).rank == 10001
    with pytest.raises(ResourceLimitError, match=r"S\^100000000 of a rank-2 bundle"):
        sym_power(e, 10 ** 8)


# -- structural invariants ------------------------------------------------------------


def test_whitney_additivity():
    ring = surface_ring()
    a = bundle_from_classes(2, [ring.variable("c1"), ring.variable("c2")])
    b = bundle_from_classes(1, [ring.variable("v1")])
    s = direct_sum(a, b)
    assert s.rank == 3
    assert s.total_chern == a.total_chern * b.total_chern


def test_ring_mismatch_raises():
    r1 = surface_ring()
    r2 = surface_ring(truncation=3)
    with pytest.raises(RingMismatchError):
        r1.variable("c1") + r2.variable("c1")
    with pytest.raises(RingMismatchError):
        r1.variable("c1") * r2.variable("c1")


def test_truncation_applies_to_products():
    ring = surface_ring(truncation=2)
    c1 = ring.variable("c1")
    assert (c1 ** 3).is_zero()


def test_sector_caps_kill_base_overflow():
    ring = GradedRing([GradedVariable("L", 1),
                       GradedVariable("C1", 1, "base")], 3, {"base": 2})
    C1 = ring.variable("C1")
    L = ring.variable("L")
    assert (C1 ** 3).is_zero()
    assert not (C1 ** 2 * L).is_zero()


def test_variables_past_the_grading_are_zero():
    ring = GradedRing([GradedVariable("L", 1), GradedVariable("C1", 1, "base"),
                       GradedVariable("C2", 2, "base"), GradedVariable("V3", 3)],
                      2, {"base": 1})
    for i, name in enumerate(ring.names):
        exps = tuple(int(j == i) for j in range(len(ring.names)))
        assert ring.variable(name) == GradedClass(ring, {exps: 1})
    assert ring.variable("L").terms == {(1, 0, 0, 0): 1}
    assert ring.variable("C1").terms == {(0, 1, 0, 0): 1}
    # C2 passes the base cap and V3 the truncation
    assert ring.variable("C2").terms == ring.variable("V3").terms == {}


def test_sector_caps_are_read_only():
    variables = [GradedVariable("L", 1), GradedVariable("C1", 1, "base")]
    ring = GradedRing(variables, 3, {"base": 2})
    with pytest.raises(TypeError):
        ring.sector_caps["base"] = 3
    with pytest.raises(TypeError):
        del ring.sector_caps["base"]
    assert ring.sector_caps == {"base": 2}
    twin = GradedRing(variables, 3, {"base": 2})
    assert ring == twin and hash(ring) == hash(twin)
    assert ring != GradedRing(variables, 3, {"base": 1})
    assert hash(ring) == hash((tuple(variables), 3, (("base", 2),)))
    assert ring.descriptor() == {
        "variables": [["L", 1, None], ["C1", 1, "base"]],
        "truncation": 3, "sector_caps": {"base": 2}}
    json.dumps(ring.descriptor())
    assert repr(ring) == "GradedRing(L, C1; trunc=3; caps={'base': 2})"


@pytest.mark.parametrize("member, args, constructor", [
    ("zero", lambda ring: (ring.names,), "GradedRing.zero()"),
    ("const", lambda ring: (ring.names, 3), "GradedRing.scalar(value)"),
    ("variable", lambda ring: (ring.names, "c1"), "GradedRing.variable(name)"),
    ("variables", lambda ring: (ring.names,), "GradedRing.variable(name)"),
])
def test_graded_class_refuses_ringless_constructors(member, args, constructor):
    ring = surface_ring()
    for owner in (GradedClass, ring.variable("c1")):
        with pytest.raises(InvalidInputError) as err:
            getattr(owner, member)(*args(ring))
        assert str(err.value) == (
            f"GradedClass.{member} ignores the grading; use {constructor}")


def test_graded_class_refuses_subs():
    ring = surface_ring()
    cls = ring.variable("c1") + ring.variable("v1")
    with pytest.raises(InvalidInputError, match="GradedClass.substitute"):
        cls.subs({"c1": 1})
    with pytest.raises(InvalidInputError, match="GradedClass.substitute"):
        cls.subs({"c1": 1}, vars=ring.names)
    # plain polynomials keep their substitution
    assert Poly.variable(ring.names, "c1").subs({"c1": 2}) == 2


def test_serialization_round_trip():
    ring = GradedRing([GradedVariable("L", 1),
                       GradedVariable("C1", 1, "base")], 3, {"base": 2})
    cls = 3 * ring.variable("L") - ring.variable("C1") * Fraction(5, 2)
    again = GradedClass.from_payload(cls.to_payload())
    assert again == cls
    assert again.ring == ring


def test_substitute_homogeneity_enforced():
    ring = surface_ring()
    target = surface_ring()
    with pytest.raises(InvalidInputError):
        ring.variable("c2").substitute(target, {"c2": target.variable("c1")})


def test_canonical_string_order():
    ring = GradedRing([GradedVariable("L", 1),
                       GradedVariable("C1", 1, "base"),
                       GradedVariable("V1", 1, "base")], 3, {"base": 2})
    L, C1, V1 = (ring.variable(n) for n in ("L", "C1", "V1"))
    cls = 3 * L + 3 * V1 - 5 * C1
    assert str(cls) == "3*L - 5*C1 + 3*V1"


def test_every_stored_term_respects_the_grading():
    rng = random.Random(33)
    ring = GradedRing([GradedVariable("L", 1),
                       GradedVariable("C1", 1, "base"),
                       GradedVariable("C2", 2, "base")], 4, {"base": 2})
    classes = [ring.one(), ring.variable("L") + ring.variable("C1"),
               ring.variable("C2") - 2 * ring.variable("L") ** 2]
    for _ in range(50):
        a, b = rng.choice(classes), rng.choice(classes)
        out = rng.choice([a + b, a * b, a - b, a ** 2])
        classes.append(out)
        for exps in out.terms:
            assert ring.admits(exps)
            assert out.terms[exps] != 0


# -- the shared kernel contract ------------------------------------------------


def test_graded_coefficients_are_int_while_integral():
    ring = surface_ring()
    c1 = ring.variable("c1")
    half = c1 * Fraction(1, 2)
    assert [type(c) for c in half.terms.values()] == [Fraction]
    for cls in (half * 2, half + half, GradedClass(ring, {(1, 0, 0, 0): Fraction(6, 3)}),
                (ring.one() + c1).series_inverse(), ring.scalar(Fraction(4, 2))):
        assert all(type(c) is int for c in cls.terms.values()), cls


def test_graded_scalar_accessors_return_fractions():
    ring = surface_ring()
    cls = 3 + 2 * ring.variable("c1")
    assert type(cls.constant_term) is Fraction and cls.constant_term == 3
    assert type(ring.zero().constant_term) is Fraction
    for key in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0)):
        assert type(cls.coefficient(key)) is Fraction
    assert cls.coefficient((1, 0, 0, 0)) == 2 and cls.coefficient((0, 1, 0, 0)) == 0
    assert cls.coefficient((0, 0, 0, 0)) == 3


def test_graded_class_refuses_a_plain_poly_over_the_same_names():
    ring = surface_ring()
    cls = ring.variable("c1")
    poly = Poly.variable(ring.names, "c1")
    for mix in (lambda: cls + poly, lambda: cls - poly, lambda: cls * poly,
                lambda: poly + cls, lambda: poly - cls, lambda: poly * cls):
        with pytest.raises(RingMismatchError):
            mix()
    assert cls != poly and poly != cls


def test_equal_classes_hash_equal():
    ring = surface_ring()
    c1, v1 = ring.variable("c1"), ring.variable("v1")
    a = (c1 + v1) ** 2
    b = c1 * c1 + v1 * v1 + c1 * v1 * Fraction(4, 2)
    assert a == b and hash(a) == hash(b)
    assert 3 * ring.one() == 3 and hash(3 * ring.one()) == hash(ring.scalar(Fraction(3)))
    assert {a, b} == {a}


def test_equality_needs_the_same_ring_on_both_sides():
    ring = surface_ring()
    one, poly = ring.one(), Poly.const(ring.names, 1)
    assert not one == poly and not poly == one
    base = [GradedVariable("c1", 1, "base"), GradedVariable("c2", 2, "base"),
            GradedVariable("v1", 1), GradedVariable("v2", 2)]
    for a, b in ((ring, surface_ring(3)),
                 (GradedRing(base, 2, {"base": 1}), GradedRing(base, 2, {"base": 2}))):
        assert a.names == b.names and a != b
        for x, y in ((a.one(), b.one()), (a.variable("v1"), b.variable("v1"))):
            assert x.terms == y.terms and not x == y and not y == x
    twin = surface_ring()
    assert twin is not ring and twin == ring
    for x, y in ((ring.variable("c1") * 3 + 1, twin.variable("c1") * 3 + 1),
                 (ring.scalar(2), twin.scalar(Fraction(4, 2)))):
        assert x == y and hash(x) == hash(y)


def test_bool_and_integral_fraction_scalars_keep_int_coefficients():
    for x in (surface_ring().variable("c1") + 3, Poly.variable(("x",), "x") + 3):
        for scalar in (True, Fraction(4, 2)):
            for out in (x * scalar, scalar * x, x + scalar, x - scalar, scalar - x):
                assert type(out) is type(x)
                assert [type(c) for c in out.terms.values()] == [int, int], (x, scalar)
        assert x - x + 1 == True and x - x + 2 == Fraction(4, 2)


def test_graded_class_keeps_only_the_grading_on_top_of_poly():
    own = set(vars(GradedClass))
    assert {"_new", "_print_key", "_product", "_space", "series_inverse"} <= own
    assert not own & {"__add__", "__sub__", "__neg__", "__pow__", "__str__",
                      "__eq__", "__hash__", "_scalar"}
    assert GradedClass.__mul__ is GradedClass.__rmul__ is Poly.__mul__
    assert not hasattr(chern, "_coerce") and not hasattr(chern, "_print_key")


def test_graded_products_never_use_the_plain_product(monkeypatch):
    def plain_product(self, other):
        raise AssertionError("graded arithmetic reached Poly._product")

    monkeypatch.setattr(Poly, "_product", plain_product)
    ring = surface_ring()
    x = ring.one() + ring.variable("c1") - ring.variable("v2") * Fraction(1, 3)
    assert x * x.series_inverse() == ring.one()
    assert (x ** 2) * 3 == 3 * x * x
    assert sym_power(bundle_from_classes(2, [ring.variable("c1"), ring.variable("c2")]),
                     2).rank == 3
