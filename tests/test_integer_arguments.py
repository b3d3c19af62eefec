"""One integer rule: every count, order and dimension argument of the engine
refuses a float, a bool, a numeric string and a value below its floor with
``InvalidInputError``, and accepts its floor."""

import warnings

import pytest

from scrollflex.chern import (FormalBundle, GradedRing, GradedVariable,
                              sym_power, trivial_bundle)
from scrollflex.errors import InvalidInputError
from scrollflex.exactpoly import Poly
from scrollflex import formulas
from scrollflex.jets import JetProbeSpec
from scrollflex.linalg import iter_minors
from scrollflex.scans import build_problem
from scrollflex.scroll import (NumericalBaseData, ScrollSetup, max_rank,
                               rank_breakdown)


def _abelian_class(m=2, k=2, ell=2):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ell < m warns that terms drop
        return formulas.abelian_class(m, k, ell)


def _ring():
    return GradedRing([GradedVariable("c1"), GradedVariable("c2", 2)], 2)


def _probe(**fields):
    return JetProbeSpec(**{"variables": ["x"], "coordinates": ["1", "x", "x^2"],
                           "order": 1, **fields})


_X = Poly.variables(("x", "y"))
_MATRIX = [[_X[0], _X[1]], [_X[1], _X[0]]]

# each entry point with one integer argument left free, and its floor: the
# least value it accepts (None: any integer)
ENTRIES = {
    "GradedVariable-weight": (lambda v: GradedVariable("x", v), 1),
    "GradedRing-truncation": (lambda v: GradedRing([GradedVariable("x")], v), 0),
    "FormalBundle-rank": (lambda v: FormalBundle(v, _ring().one()), 0),
    "sym_power-order": (lambda v: sym_power(trivial_bundle(_ring(), 2), v), 0),
    "Poly-pow": (lambda v: _X[0] ** v, 0),
    "ScrollSetup-n": (lambda v: ScrollSetup(v, 2, 2, 9), 3),
    "ScrollSetup-m": (lambda v: ScrollSetup(3, v, 2, 9), 1),
    "ScrollSetup-k": (lambda v: ScrollSetup(3, 2, v, 9), 1),
    "ScrollSetup-N": (lambda v: ScrollSetup(3, 2, 2, v), 3),
    "max_rank-n": (lambda v: max_rank(v, 2, 2), 2),
    "max_rank-m": (lambda v: max_rank(3, v, 2), 1),
    "max_rank-k": (lambda v: max_rank(3, 2, v), 1),
    "rank_breakdown-n": (lambda v: rank_breakdown(v, 2, 2), 2),
    "rank_breakdown-m": (lambda v: rank_breakdown(3, v, 2), 1),
    "rank_breakdown-k": (lambda v: rank_breakdown(3, 2, v), 1),
    "NumericalBaseData-dimension": (lambda v: NumericalBaseData(v, {}), None),
    "iter_minors-r": (lambda v: list(iter_minors(_MATRIX, v)), 1),
    "JetProbeSpec-order": (lambda v: _probe(order=v), 1),
    "JetProbeSpec-trials": (lambda v: _probe(trials=v), 1),
    "JetProbeSpec-seed": (lambda v: _probe(seed=v), None),
    "JetProbeSpec-height": (lambda v: _probe(height=v), 1),
    "Fe-e": (lambda v: build_problem("Fe", e=v), 0),
    "ProductsBxP1-q": (lambda v: build_problem("ProductsBxP1", q=v), 1),
    "P3-ell": (lambda v: build_problem("P3", ell=v), 2),
    "Q3-ell": (lambda v: build_problem("Q3", ell=v), 2),
    "threefold_surface_class-part": (formulas.threefold_surface_class, 1),
    "fourfold_threefold_class-codim": (formulas.fourfold_threefold_class, 2),
    "divisor_class-m": (lambda v: formulas.divisor_class(4, v), 2),
    "divisor_class-n": (lambda v: formulas.divisor_class(v, 2), 3),
    "divisor_degree_m2-n": (formulas.divisor_degree_m2, 3),
    "surface_degree-N": (formulas.surface_degree, 8),
    "fourfold_degree-codim": (formulas.fourfold_degree, 1),
    "abelian_class-m": (lambda v: _abelian_class(m=v), 2),
    "abelian_class-k": (lambda v: _abelian_class(k=v), 1),
    "abelian_class-ell": (lambda v: _abelian_class(ell=v), 0),
    "abelian_surface_degree-k": (lambda v: formulas.abelian_surface_degree(v, 2), 1),
    "abelian_surface_degree-ell": (lambda v: formulas.abelian_surface_degree(2, v), 1),
    "abelian_example4_degree-k": (formulas.abelian_example4_degree, 2),
    "thm_details_exception_degree-case": (formulas.thm_details_exception_degree, 1),
}


def _cases():
    for name, (make, floor) in ENTRIES.items():
        least = 2 if floor is None else floor
        # the floor as a float, and half above it: a comparison reads both in range
        yield pytest.param(make, float(least), id=f"{name}-float")
        yield pytest.param(make, least + 0.5, id=f"{name}-half")
        yield pytest.param(make, True, id=f"{name}-bool")
        yield pytest.param(make, str(least), id=f"{name}-string")
        if floor is not None:
            yield pytest.param(make, floor - 1, id=f"{name}-below")
    # the digit estimate read a k far below 1 as a rank too large to list
    yield pytest.param(ENTRIES["rank_breakdown-k"][0], -5000,
                       id="rank_breakdown-k-far-below")


@pytest.mark.parametrize("make, value", _cases())
def test_integer_arguments_refuse_all_but_integers_from_their_floor(make, value):
    with pytest.raises(InvalidInputError):
        make(value)


@pytest.mark.parametrize("name", ENTRIES)
def test_integer_arguments_accept_their_floor(name):
    make, floor = ENTRIES[name]
    make(0 if floor is None else floor)


def test_minor_size_message_tells_a_non_integer_from_a_small_one():
    with pytest.raises(InvalidInputError, match=r"must be an integer, got 1\.5"):
        list(iter_minors(_MATRIX, 1.5))
    with pytest.raises(InvalidInputError, match=r"must be at least 1, got 0"):
        list(iter_minors(_MATRIX, 0))
