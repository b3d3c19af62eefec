from fractions import Fraction

import pytest

from scrollflex import formulas
from scrollflex.errors import InvalidInputError
from scrollflex.exactpoly import Poly
from scrollflex.scroll import scroll_ring


def test_divisor_class_validation():
    with pytest.raises(InvalidInputError):
        formulas.divisor_class(3, 3)


@pytest.mark.parametrize("make", [
    lambda: formulas.threefold_surface_class(4),
    lambda: formulas.fourfold_threefold_class(5),
    lambda: formulas.fourfold_degree(5),
    lambda: formulas.abelian_class(2, 2, 5),
    lambda: formulas.thm_details_exception_degree(2, q=1),
    lambda: formulas.thm_details_exception_degree(3, d=Fraction(1, 2), q=1, f=0, g=0),
], ids=["threefold-part-4", "fourfold-class-codim-5", "fourfold-degree-codim-5",
        "abelian-codim-past-the-grading", "exception-unknown-parameter",
        "exception-non-integer-degree"])
def test_formula_refusals(make):
    with pytest.raises(InvalidInputError):
        make()


def test_threefold_class_part_is_homogeneous():
    for part in (1, 2, 3):
        cls = formulas.threefold_surface_class(part)
        assert cls.is_homogeneous(part)


def test_abelian_class_small_codim_warns_and_truncates():
    ring = scroll_ring(4, 2)
    with pytest.warns(UserWarning):
        cls = formulas.abelian_class(2, 2, 1, ring)
    # only the L and V1 terms survive at codimension one
    assert cls == 3 * ring.variable("L") + 3 * ring.variable("V1")


def test_abelian_class_rejects_other_bases():
    with pytest.raises(InvalidInputError):
        formulas.abelian_class(4, 2, 2)


def test_abelian_degree_headline_value():
    poly = formulas.abelian_surface_degree(2, 3)
    d, g2 = Poly.variables(("d", "g2"))
    assert poly == 19 * d + 27 * g2


def test_example4_values():
    assert formulas.abelian_example4_degree(2) == 1815
    assert formulas.abelian_example4_degree(3) == 11016
    with pytest.raises(InvalidInputError):
        formulas.abelian_example4_degree(1)


def test_exception_degree_cases():
    assert formulas.thm_details_exception_degree(1) == (7, 3)
    assert formulas.thm_details_exception_degree(2, d=13) == 27
    sym = formulas.thm_details_exception_degree(3, q=1, f=2, g=3)
    d = Poly.variable(("d",), "d")
    assert sym == (3 * Poly.variable(sym.vars, "d") + 10)
    assert formulas.thm_details_exception_degree(4, q=1, f=1, A=1, M=1, d=10) == 58
    with pytest.raises(InvalidInputError):
        formulas.thm_details_exception_degree(5)
    with pytest.raises(InvalidInputError):
        formulas.thm_details_exception_degree(1, d=3)


def test_two_expressions_identity():
    subs = formulas.degree_substitution_m2()
    for n in (3, 4, 5, 6):
        first, second = formulas.divisor_degree_m2(n)
        assert first.subs(subs) == second.subs(subs)


def test_surface_degree_rejects_bad_ambient():
    with pytest.raises(InvalidInputError):
        formulas.surface_degree(11)


def test_divisor_degree_lower_bound():
    # nef boundary case: the plane with the quintic determinant is the
    # equality case of the divisor-case degree bound binom(m + 1, 2) d
    from scrollflex.scroll import BASE_PRESETS, ScrollSetup, degree_of_inflection

    data = BASE_PRESETS["p2"].numerical(v=5, y=6)
    d = 25 - 6
    res = degree_of_inflection(ScrollSetup(3, 2, 2, 8), data)
    assert res.value == 3 * d
