"""Seeded checks of the reduced form as a remainder by the monic relation.

The rewriting loop the engine used before, which lowers every term at or
above L^r by the relation multiplied out in the whole ring, is kept here as
the oracle of ``chern_wu_reduce``.
"""

import random
from fractions import Fraction

import pytest

from scrollflex.chern import GradedClass, _trusted
from scrollflex.exactpoly import _as_univariate, _from_univariate
from scrollflex.scroll import (ScrollSetup, chern_wu_reduce, inflection_class,
                               max_rank, scroll_ring)

CASES = 400


# -- the oracle: the rewriting loop ------------------------------------------


def rewrite_reduce(x, r):
    """Rewrite L-powers >= r via L^r = sum_i (-1)^(i+1) V_i L^(r-i), all
    terms at or above L^r at once, until none is left."""
    ring = x.ring
    li = ring.index("L")
    rule = ring.zero()
    for i in range(1, r + 1):
        name = f"V{i}"
        if name not in ring.names:
            continue
        term = ring.variable(name) * ring.variable("L") ** (r - i)
        rule = rule + (term if i % 2 == 1 else -term)
    done = ring.zero()
    while not x.is_zero():
        low, high = {}, {}
        for exps, coeff in x.terms.items():
            if exps[li] < r:
                low[exps] = coeff
            else:
                high[exps[:li] + (exps[li] - r,) + exps[li + 1:]] = coeff
        done = done + _trusted(ring, low)
        x = _trusted(ring, high) * rule
    return done


def _random_class(ring, rng, max_terms=8):
    """Up to ``max_terms`` terms, each with a uniform L-power up to its
    random degree, the rest of the degree spent on random generators."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * len(ring.names)
        budget = rng.randint(1, ring.truncation)
        exps[ring.index("L")] = rng.randint(0, budget)
        budget -= exps[ring.index("L")]
        while budget > 0:
            i = rng.randrange(len(ring.names))
            if ring.weights[i] > budget:
                break
            exps[i] += 1
            budget -= ring.weights[i]
        coeff = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + coeff
    return GradedClass(ring, terms)


def _typed(x):
    return sorted((e, type(c), c) for e, c in x.terms.items())


def test_remainder_matches_the_rewriting_loop_on_random_classes():
    # r runs past the ring's fiber rank and past m, where some V_i are absent
    rng = random.Random(24680)
    rings = [scroll_ring(n, m) for n in range(2, 7) for m in range(1, n + 1)]
    rewritten = 0
    for case in range(CASES):
        ring = rng.choice(rings)
        r = rng.randint(1, ring.truncation + 1)
        x = _random_class(ring, rng)
        got = chern_wu_reduce(x, r)
        assert got.ring is ring, case
        assert _typed(got) == _typed(rewrite_reduce(x, r)), (case, ring, r)
        rewritten += got != x
    assert rewritten > CASES // 3  # about half the draws reach L^r


@pytest.mark.parametrize("n, m, k", [(12, 11, 2), (8, 7, 3), (3, 2, 30), (100, 2, 2)])
def test_remainder_matches_the_rewriting_loop_at_the_top_of_the_range(n, m, k):
    setup = ScrollSetup(n, m, k, max_rank(n, m, k) + n - 2)
    cls = inflection_class(setup)
    got = chern_wu_reduce(cls, setup.fiber_rank)
    assert _typed(got) == _typed(rewrite_reduce(cls, setup.fiber_rank))
    li = cls.ring.index("L")
    assert all(exps[li] < setup.fiber_rank for exps in got.terms)


def test_univariate_view_round_trip_keeps_the_ring():
    rng = random.Random(1357)
    ring = scroll_ring(5, 3)
    li = ring.index("L")
    for _ in range(20):
        x = _random_class(ring, rng)
        view = _as_univariate(x, li)
        assert all(type(c) is GradedClass and c.ring is ring for c in view.values())
        back = _from_univariate(view, x, li)
        assert type(back) is GradedClass and back.ring is ring
        assert back == x
