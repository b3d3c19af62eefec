import json
import random
import time
import warnings
from fractions import Fraction
from math import comb

import pytest

from scrollflex import chern, scroll
from scrollflex.chern import (GradedClass, dual, sym_power, tensor,
                              tensor_line)
from scrollflex.errors import (IncompleteDataError, InvalidInputError,
                               ResourceLimitError)
from scrollflex.exactpoly import Poly, monomial_text
from scrollflex.scroll import (BASE_PRESETS, NumericalBaseData, ScrollSetup,
                               base_ring, chern_wu_reduce, degree_class,
                               degree_of_inflection, expected_codim,
                               graded_to_poly, hyperplane_class,
                               inflection_class, max_rank, pushforward,
                               rank_breakdown, scroll_ring, symbolic_degree,
                               tangent_bundle, tautological_subsheaf_bundle,
                               total_chern_E_k)


# -- rank bound ----------------------------------------------------------------


def test_max_rank_over_curves_is_affine_in_k():
    for n in (2, 3, 5):
        for k in (1, 2, 3, 4):
            assert max_rank(n, 1, k) == k * n + 1


def test_max_rank_examples():
    assert max_rank(3, 2, 2) == 9
    assert max_rank(4, 3, 2) == 14


def test_max_rank_increment_identity():
    from math import comb
    for n, m, k in ((3, 2, 2), (4, 3, 2), (5, 2, 3), (6, 4, 2)):
        lhs = max_rank(n, m, k + 1)
        rhs = max_rank(n, m, k) + comb(m + k, m - 1) + (n - m) * comb(m - 1 + k, m - 1)
        assert lhs == rhs


def test_rank_breakdown_sums_to_rank():
    for n, m, k in ((3, 2, 2), (4, 3, 3), (5, 2, 2)):
        rows = rank_breakdown(n, m, k)
        assert sum(count for _, count in rows) == max_rank(n, m, k)
        assert rows[0] == (0, 1)
        assert rows[1] == (1, n)


# -- setups and ranges ------------------------------------------------------------


def test_expected_codim_in_range():
    res = expected_codim(ScrollSetup(3, 2, 2, 8))
    assert (res.codim, res.in_range) == (1, True)
    assert (res.range_lo, res.range_hi) == (8, 10)


def test_expected_codim_thresholds():
    # codimension N + 2 - r_k, flagged against r_k - 1 <= N <= r_k + n - 2
    assert expected_codim(ScrollSetup(4, 3, 2, 13)).codim == 1
    assert expected_codim(ScrollSetup(4, 3, 2, 16)).codim == 4
    assert expected_codim(ScrollSetup(4, 3, 2, 16)).in_range
    out = expected_codim(ScrollSetup(3, 2, 2, 11))
    assert out.codim == 4 and not out.in_range


def test_setup_validation():
    with pytest.raises(InvalidInputError):
        ScrollSetup(2, 2, 2, 8)
    with pytest.raises(InvalidInputError):
        ScrollSetup(3, 2, 0, 8)


# -- total Chern class of the osculating quotient -----------------------------------


def test_order_one_factorization():
    # k = 1 reduces to c(dual V) * c(pullback tangent twisted down by L)
    setup = ScrollSetup(3, 2, 1, 4)
    ring = scroll_ring(3, 2)
    got = total_chern_E_k(setup, ring)
    Vd = dual(tautological_subsheaf_bundle(ring, 3, 2))
    twisted = tensor_line(tangent_bundle(ring, 2), hyperplane_class(ring), -1)
    assert got == Vd.total_chern * twisted.total_chern


def test_order_two_factorization():
    setup = ScrollSetup(3, 2, 2, 8)
    ring = scroll_ring(3, 2)
    got = total_chern_E_k(setup, ring)
    T = tangent_bundle(ring, 2)
    Vd = dual(tautological_subsheaf_bundle(ring, 3, 2))
    last = tensor_line(sym_power(T, 2), hyperplane_class(ring), -1)
    want = Vd.total_chern * tensor(Vd, T).total_chern * last.total_chern
    assert got == want


@pytest.mark.parametrize("n, m", [(3, 2), (4, 2), (4, 3), (5, 3)])
def test_total_chern_matches_the_per_order_product(n, m):
    # c(E_k) as the product over E_k's summands, one derived bundle per order
    ring = scroll_ring(n, m)
    T = tangent_bundle(ring, m)
    Vd = dual(tautological_subsheaf_bundle(ring, n, m))
    for k in range(1, 7):
        want = tensor_line(sym_power(T, k), hyperplane_class(ring), -1).total_chern
        for i in range(1, k + 1):
            want = want * tensor(sym_power(T, i - 1), Vd).total_chern
        assert total_chern_E_k(ScrollSetup(n, m, k, n), ring) == want


def test_total_chern_makes_two_symmetric_powers_at_any_order(monkeypatch):
    calls = {"sym_power": 0, "tensor": 0, "tensor_line": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(scroll, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(scroll, name, counted)
    total_chern_E_k(ScrollSetup(3, 2, 8, 3), scroll_ring(3, 2))
    assert calls["sym_power"] <= 2
    assert calls["tensor"] <= 1 and calls["tensor_line"] <= 1


# -- Chern-Wu reduction and pushforward -----------------------------------------------


def test_chern_wu_examples():
    ring = scroll_ring(3, 2)
    L, V1, V2 = (ring.variable(s) for s in ("L", "V1", "V2"))
    assert chern_wu_reduce(L, 2) == L
    assert chern_wu_reduce(L ** 2, 2) == V1 * L - V2
    assert chern_wu_reduce(L ** 3, 2) == (V1 ** 2 - V2) * L - V1 * V2


def test_chern_wu_idempotent_and_degree_preserving():
    ring = scroll_ring(4, 2)
    L, C1, V1 = (ring.variable(s) for s in ("L", "C1", "V1"))
    cls = L ** 4 + C1 * L ** 3 + V1 ** 2 * L
    once = chern_wu_reduce(cls, 3)
    assert chern_wu_reduce(once, 3) == once
    for degree in range(ring.truncation + 1):
        reduced = chern_wu_reduce(cls.homogeneous_part(degree), 3)
        assert reduced.is_zero() or reduced.is_homogeneous(degree)
        assert all(exps[ring.index("L")] <= 2 for exps in reduced.terms)


def test_pushforward_basics():
    ring = scroll_ring(3, 2)
    L = ring.variable("L")
    C1 = ring.variable("C1")
    pf = pushforward(L, 2)
    assert pf == pf.ring.one()
    assert pushforward(C1, 2).is_zero()          # L-degree below r - 1
    y = pushforward(L ** 3, 2)
    v1, v2 = y.ring.variable("v1"), y.ring.variable("v2")
    assert y == v1 ** 2 - v2


def test_pushforward_of_hyperplane_powers_is_the_segre_class():
    # Under L^r = sum_i (-1)^(i+1) V_i L^(r-i), pi_* L^(r-1+i) is the
    # degree-i part of 1 / c(V^dual) (Fulton, Intersection Theory, 3.1).
    for n in range(2, 13):
        for m in range(1, n):
            r = n - m + 1
            base = base_ring(m, r)
            c_dual = base.one()
            for i in range(1, min(r, m) + 1):
                c_dual = c_dual + (-1) ** i * base.variable(f"v{i}")
            segre = c_dual.series_inverse()
            L = hyperplane_class(scroll_ring(n, m))
            for i in range(m + 1):
                got = pushforward(L ** (r - 1 + i), r)
                assert got == segre.homogeneous_part(i), (n, m, i)


def full_ring_pushforward(x, r, shift):
    """pi_*(x L^shift) through 1 / c(V^dual) inverted in the whole base ring
    and split by degree afterwards, as fiber integration once ran."""
    ring = x.ring
    m = ring.sector_caps["base"]
    base = base_ring(m, r)
    c_dual = base.one()
    for i in range(1, min(r, m) + 1):
        c_dual = c_dual + (-1) ** i * base.variable(f"v{i}")
    segre = {}
    for exps, c in c_dual.series_inverse().terms.items():
        segre.setdefault(base.monomial_degree(exps), {})[exps] = c
    out = base.zero()
    for exps, coeff in x.terms.items():
        i = exps[ring.index("L")] + shift - (r - 1)
        t = [0] * len(base.names)
        for name, e in zip(ring.names, exps):
            if name != "L" and e:
                t[base.index(name.lower())] = e
        out = out + GradedClass(base, {tuple(t): coeff}) * GradedClass(base, segre.get(i, {}))
    return out


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_degree_class_over_a_large_base_matches_the_full_ring_series(ell):
    n, m = 40, 39
    setup = ScrollSetup(n, m, 2, max_rank(n, m, 2) - 2 + ell)
    want = full_ring_pushforward(inflection_class(setup), n - m + 1, n - ell)
    got = degree_class(setup)
    assert got.ring == want.ring
    assert sorted((e, type(c), c) for e, c in got.terms.items()) == sorted(
        (e, type(c), c) for e, c in want.terms.items())


def test_rank_two_segre_series_has_its_binomial_closed_form():
    # 1 / (1 - v1 + v2) = sum_j (v1 - v2)^j, so
    # s_d = sum_j (-1)^j C(d - j, j) v1^(d - 2j) v2^j
    m = 500
    parts = scroll._segre_parts(m, 2)
    for d in range(m + 1):
        want = {(d - 2 * j, j): (-1) ** j * comb(d - j, j) for j in range(d // 2 + 1)}
        assert sorted(parts[d]) == sorted(want.items()), d
        assert all(type(c) is int for _, c in parts[d])


def test_oversized_segre_series_stops_counting_past_the_limit():
    # v_1 alone admits 2001 monomials, past the 500 that 2000 generators allow
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="Segre series"):
        scroll._segre_parts(2000, 2000)
    assert time.perf_counter() - start < 0.2


def reduce_then_read(x, r):
    """Fiber integration by the rewriting rule: reduce every L-power below r,
    then read off the coefficient of L^(r-1), renamed into the base ring."""
    ring = x.ring
    target = base_ring(ring.sector_caps["base"], r)
    li = ring.index("L")
    out = {}
    for exps, coeff in chern_wu_reduce(x, r).terms.items():
        if exps[li] != r - 1:
            continue
        t = [0] * len(target.names)
        for name, e in zip(ring.names, exps):
            if name != "L" and e:
                t[target.index(name.lower())] = e
        out[tuple(t)] = out.get(tuple(t), 0) + coeff
    return GradedClass(target, out)


def random_class(ring, rng, fractions):
    """A class with at least one term at every L-exponent up to the truncation."""
    base = [(i, w) for i, w in enumerate(ring.weights) if ring.names[i] != "L"]
    cap = ring.sector_caps["base"]
    terms = {}
    for j in range(ring.truncation + 1):
        for _ in range(rng.randint(1, 3)):
            exps = [0] * len(ring.names)
            exps[ring.index("L")] = j
            room = rng.randint(0, min(cap, ring.truncation - j))
            while room:
                i, w = rng.choice([(i, w) for i, w in base if w <= room])
                exps[i] += 1
                room -= w
            num = rng.randint(-9, 9) or 1
            terms[tuple(exps)] = Fraction(num, rng.randint(1, 6)) if fractions else num
    return GradedClass(ring, terms)


def test_pushforward_matches_the_rewriting_rule():
    rng = random.Random(20101)
    for n in range(2, 10):
        for m in range(1, n):
            r = n - m + 1
            ring = scroll_ring(n, m)
            for fractions in (False, True):
                x = random_class(ring, rng, fractions)
                assert pushforward(x, r) == reduce_then_read(x, r), (n, m, fractions)


def test_fiber_integration_caches_are_bounded():
    assert scroll.scroll_ring.cache_info().maxsize == scroll.RING_CACHE_SIZE
    assert scroll.base_ring.cache_info().maxsize == scroll.RING_CACHE_SIZE
    assert scroll._segre_parts.cache_info().maxsize == scroll.RING_CACHE_SIZE
    assert scroll_ring(4, 3) is scroll_ring(4, 3)
    assert base_ring(3, 2) is base_ring(3, 2)


def test_pushforward_projection_formula():
    ring = scroll_ring(3, 2)
    L, C1, V1 = (ring.variable(s) for s in ("L", "C1", "V1"))
    beta = C1 - 2 * V1
    lhs = pushforward(L ** 2 * beta, 2)
    rhs_base = pushforward(L ** 2, 2)
    y = rhs_base.ring
    beta_base = y.variable("c1") - 2 * y.variable("v1")
    assert lhs == rhs_base * beta_base


# -- degeneracy class and degree -----------------------------------------------------


def test_inflection_class_out_of_grading_is_zero():
    assert inflection_class(ScrollSetup(3, 2, 2, 11)).is_zero()


# every in-range N of the benchmark's cold class setups and of four larger ones
TRUNCATION_SETUPS = [(2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 2, 2), (3, 2, 3),
                     (3, 2, 4), (4, 2, 2), (4, 2, 3), (4, 2, 4), (4, 3, 2),
                     (4, 3, 3), (5, 4, 3), (6, 5, 3), (7, 6, 2), (8, 7, 2)]


def _typed(cls):
    return sorted((e, type(c).__name__, c) for e, c in cls.terms.items())


# the oracle inverts c(E_k) whole at full truncation; the class inverts each
# summand at truncation ell and forms only the degree-ell product
@pytest.mark.parametrize("n,m,k", TRUNCATION_SETUPS + [(12, 11, 2), (8, 7, 3), (3, 2, 30)])
def test_class_at_codim_truncation_matches_full_truncation(n, m, k):
    ring = scroll_ring(n, m)
    lo = max_rank(n, m, k) - 1
    full = total_chern_E_k(ScrollSetup(n, m, k, lo), ring).series_inverse()
    for N in range(lo, lo + n):
        setup = ScrollSetup(n, m, k, N)
        got = inflection_class(setup)
        assert got.ring == ring
        assert _typed(got) == _typed(full.homogeneous_part(setup.codim)), N


@pytest.mark.parametrize("k", [1, 2, 4])
def test_class_converts_each_summand_from_power_sums_once(monkeypatch, k):
    # each symmetric power hands its power sums to the tensor product that
    # takes it, so only the two summands' totals leave power sums
    calls = []

    def counted(ring, p):
        calls.append(ring)
        return original(ring, p)

    original = chern._from_power_sums
    monkeypatch.setattr(chern, "_from_power_sums", counted)
    ring = scroll_ring(4, 3)
    scroll._inverted_summands.cache_clear()
    scroll._class_terms.__wrapped__(ring, 4, 3, k, 4)
    assert len(calls) == (1 if k == 1 else 2)


@pytest.mark.parametrize("n,m,k,ell", [(4, 3, 2, 4), (6, 5, 3, 6), (4, 2, 16, 4)])
def test_class_makes_no_product_with_the_hyperplane_class(monkeypatch, n, m, k, ell):
    # L enters the class only through binomial weights, so every product
    # runs in a ring without L and no bundle is twisted by it
    rings, twists = [], []
    mul_into = chern._mul_into
    monkeypatch.setattr(chern, "_mul_into",
                        lambda ring, *args: rings.append(ring) or mul_into(ring, *args))
    for module in (chern, scroll):
        monkeypatch.setattr(module, "tensor_line", lambda *args: twists.append(args))
    scroll._inverted_summands.cache_clear()
    scroll._class_terms.__wrapped__(scroll_ring(n, m), n, m, k, ell)
    assert rings and not any("L" in ring.names for ring in rings)
    assert not twists


def test_class_cache_hands_out_fresh_classes():
    assert scroll._class_terms.cache_info().maxsize == scroll.CLASS_CACHE_SIZE == 128
    assert scroll._inverted_summands.cache_info().maxsize == scroll.CLASS_CACHE_SIZE
    assert scroll._base_of.cache_info().maxsize == scroll.RING_CACHE_SIZE
    setup = ScrollSetup(4, 3, 2, 14)
    first = inflection_class(setup)
    want = dict(first.terms)
    first.terms.clear()
    first.terms[(9, 0, 0, 0, 0, 0)] = 5
    assert inflection_class(setup).terms == want
    assert inflection_class(setup).terms is not inflection_class(setup).terms


# the setups above, the benchmark's warm class setup and its frontier ladder rungs
DEGREE_SETUPS = TRUNCATION_SETUPS + [(5, 4, 2), (6, 5, 2), (5, 3, 4),
                                     (6, 4, 4), (7, 6, 3)]


@pytest.mark.parametrize("n,m,k", DEGREE_SETUPS)
def test_degree_class_matches_the_rewriting_rule(n, m, k):
    L = hyperplane_class(scroll_ring(n, m))
    lo = max_rank(n, m, k) - 1
    for N in range(lo, lo + n):
        setup = ScrollSetup(n, m, k, N)
        dotted = inflection_class(setup) * L ** (n - setup.codim)
        assert degree_class(setup) == reduce_then_read(dotted, setup.fiber_rank), N


def _clear_class_caches():
    for cache in (scroll._degree_terms, scroll._class_terms, scroll._inverted_summands):
        cache.cache_clear()


@pytest.mark.parametrize("n,m,k", DEGREE_SETUPS)
def test_series_cache_sweep_matches_cold_classes(n, m, k):
    # every N of the range (codimension 1..n, below and from m on) in a
    # shuffled order against each class computed from cold caches
    ring = scroll_ring(n, m)
    lo = max_rank(n, m, k) - 1
    cold = {}
    for N in range(lo, lo + n):
        ell = ScrollSetup(n, m, k, N).codim
        _clear_class_caches()
        parts = scroll._class_terms.__wrapped__(ring, n, m, k, ell)
        _clear_class_caches()
        cold[N] = parts, scroll._degree_terms.__wrapped__(n, m, k, ell)
    order = list(cold)
    random.Random(f"{n},{m},{k}").shuffle(order)
    _clear_class_caches()
    for N in order:
        setup = ScrollSetup(n, m, k, N)
        parts, degree_terms = cold[N]
        li, ell = ring.index("L"), setup.codim
        want = chern._trusted(ring, {e[:li] + (ell - d,) + e[li:]: c
                                     for d, part in enumerate(parts) for e, c in part})
        assert _typed(inflection_class(setup)) == _typed(want), N
        want = chern._trusted(base_ring(m, n - m + 1), dict(degree_terms))
        assert _typed(degree_class(setup)) == _typed(want), N


def test_warm_series_cache_still_meters_each_codimension(monkeypatch):
    # (6, 5, 3) at codimensions 5 and 6 shares one truncation, so the second
    # class hits the series cache, and the lowered limit still refuses it;
    # the degree at codimension 5 builds the Segre series first
    n, m, k = 6, 5, 3
    lo = max_rank(n, m, k) - 1
    _clear_class_caches()
    degree_class(ScrollSetup(n, m, k, lo + 4))
    assert scroll._inverted_summands.cache_info().currsize == 1
    base = scroll._base_of(scroll_ring(n, m), m)
    monkeypatch.setattr(chern, "WORK_LIMIT", chern._pass_work(base) - 1)
    with pytest.raises(ResourceLimitError, match="codimension 6"):
        inflection_class(ScrollSetup(n, m, k, lo + 5))
    with pytest.raises(ResourceLimitError, match="codimension 6"):
        degree_class(ScrollSetup(n, m, k, lo + 5))
    assert scroll._inverted_summands.cache_info().currsize == 1


@pytest.mark.parametrize("n,m,k", [(4, 2, 3), (6, 5, 3), (8, 7, 2), (5, 3, 4)])
def test_series_cache_misses_once_per_truncation(monkeypatch, n, m, k):
    # one series pair per top = min(m, ell), and one meter per class call
    meters = []
    check_work = scroll.check_work
    monkeypatch.setattr(scroll, "check_work",
                        lambda work, what: meters.append(what) or check_work(work, what))
    lo = max_rank(n, m, k) - 1
    _clear_class_caches()
    for N in range(lo, lo + n):
        inflection_class(ScrollSetup(n, m, k, N))
        degree_class(ScrollSetup(n, m, k, N))
    info = scroll._inverted_summands.cache_info()
    assert info.misses == len({min(m, ell) for ell in range(1, n + 1)})
    assert info.hits == n - info.misses
    assert len(meters) == n


@pytest.mark.parametrize("n,m,k", [(2, 1, 2), (3, 2, 2), (4, 2, 3), (4, 3, 2),
                                   (5, 3, 4), (6, 4, 4), (8, 7, 2)])
def test_scroll_degree_is_the_pushforward_of_the_top_hyperplane_power(
        n, m, k, monkeypatch):
    # degree_of_inflection evaluates the degree class, then the scroll degree
    seen = []
    evaluate = NumericalBaseData.evaluate
    monkeypatch.setattr(NumericalBaseData, "evaluate",
                        lambda data, cls: seen.append(cls) or evaluate(data, cls))
    r = n - m + 1
    base = base_ring(m, r)
    data = NumericalBaseData(m, {monomial_text(base.names, exps): 1 + sum(exps)
                                 for exps in _exponents(base.weights, m)})
    setup = ScrollSetup(n, m, k, max_rank(n, m, k) - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        degree_of_inflection(setup, data)
    symbolic, scroll_degree = seen
    assert symbolic == degree_class(setup)
    L = hyperplane_class(scroll_ring(n, m))
    assert scroll_degree == reduce_then_read(L ** n, r)


@pytest.mark.parametrize("n,m,k", [(3, 2, 2), (6, 5, 3), (8, 7, 2)])
def test_degree_makes_no_product_with_the_hyperplane_class(monkeypatch, n, m, k):
    # the degree pairs the class's base parts with Segre classes of V, and
    # the scroll degree is s_m, so no product runs in a ring that has L
    rings = []
    mul_into = chern._mul_into
    monkeypatch.setattr(chern, "_mul_into",
                        lambda ring, *args: rings.append(ring) or mul_into(ring, *args))
    for cache in (scroll._scroll_degree, scroll._degree_terms, scroll._class_terms,
                  scroll._inverted_summands):
        cache.cache_clear()
    base = base_ring(m, n - m + 1)
    data = NumericalBaseData(m, {monomial_text(base.names, exps): 1
                                 for exps in _exponents(base.weights, m)})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        degree_of_inflection(ScrollSetup(n, m, k, max_rank(n, m, k) - 1), data)
    assert rings and not any("L" in ring.names for ring in rings)


def _exponents(weights, total):
    """Exponent vectors of the given weighted degree."""
    if not weights:
        if total == 0:
            yield ()
        return
    for e in range(total // weights[0] + 1):
        for rest in _exponents(weights[1:], total - e * weights[0]):
            yield (e,) + rest


def test_degree_example_abelian_symbolic():
    poly = symbolic_degree(ScrollSetup(3, 2, 2, 10),
                           BASE_PRESETS["abelian-surface"].assignments(),
                           ("d", "g2"))
    d, g2 = Poly.variables(("d", "g2"))
    assert poly == 19 * d + 27 * g2


def test_degree_example_secant_family():
    data = BASE_PRESETS["abelian-surface"].numerical(d=33, g2=44)
    assert degree_of_inflection(ScrollSetup(3, 2, 2, 10), data).value == 1815


def test_degree_example_veronese_projection():
    data = BASE_PRESETS["p2"].numerical(v=4, y=4)
    assert degree_of_inflection(ScrollSetup(3, 2, 2, 10), data).value == 6


def test_degree_missing_data_lists_keys():
    data = NumericalBaseData(2, {"c1^2": 9, "c2": 3, "c1*v1": 12, "v1^2": 16})
    with pytest.raises(IncompleteDataError) as err:
        degree_of_inflection(ScrollSetup(3, 2, 2, 10), data)
    assert "v2" in err.value.missing


def test_degree_warns_on_nonpositive_degree():
    data = NumericalBaseData(2, {"c1^2": 0, "c2": 0, "c1*v1": 0,
                                 "v1^2": 0, "v2": 0})
    with pytest.warns(UserWarning):
        degree_of_inflection(ScrollSetup(3, 2, 2, 10), data)


def test_base_data_rejects_wrong_weight():
    with pytest.raises(InvalidInputError):
        NumericalBaseData(2, {"c1": 3})


@pytest.mark.parametrize("first, second", [("c1*v1", "v1*c1"), ("c2", "c1^0*c2")])
def test_base_data_refuses_one_monomial_with_two_values(first, second):
    values = {"c1^2": 9, "c2": 3, "c1*v1": 12, "v1^2": 16, "v2": 4}
    with pytest.raises(InvalidInputError) as err:
        NumericalBaseData(2, {**values, second: values[first] + 1})
    assert repr(first) in str(err.value) and repr(second) in str(err.value)
    # the same value under two spellings names one number
    data = NumericalBaseData(2, {**values, second: values[first]})
    assert data.assignments == NumericalBaseData(2, values).assignments


@pytest.mark.parametrize("key", ["c01*v1", "c0*c2", "c1*v1^", "c1^*v1", "c\u0661*v1",
                                 "v1^\u0662", "C1*v1", "c1**v1", "c1^-2*c1^3*v1"])
def test_base_data_refuses_malformed_keys(key):
    # a lenient parser read "c01*v1" as a second spelling of c1*v1 and kept
    # "c0*c2" as a number nothing reads
    values = {"c1^2": 9, "c2": 3, "c1*v1": 12, "v1^2": 16, "v2": 4}
    with pytest.raises(InvalidInputError, match="bad base monomial"):
        NumericalBaseData(2, {**values, key: 13})
    with pytest.raises(InvalidInputError, match="bad base monomial"):
        NumericalBaseData(2, {**{k: v for k, v in values.items() if k != "c1*v1"},
                              key: 12})
    # spaces around factors, powers with leading zeros and ^0 still parse
    data = NumericalBaseData(2, {**values, " v1 * c1^01 ": 12, "c1^0*c2": 3})
    assert data.assignments == values


def test_base_data_round_trip():
    data = NumericalBaseData(2, {"c1^2": 9, "c2": 3, "c1*v1": 12,
                                 "v1^2": 16, "v2": 4})
    payload = json.loads(json.dumps(data.to_payload()))
    assert NumericalBaseData.from_payload(payload) == data
    # a file may still carry pairing data for divisors; it is not read
    payload["divisors"] = {"H": {"H*v1": 4}}
    assert NumericalBaseData.from_payload(payload) == data


def test_preset_unknown_slot_rejected():
    with pytest.raises(InvalidInputError):
        BASE_PRESETS["p2"].assignments(nope=3)
    with pytest.raises(InvalidInputError):
        BASE_PRESETS["p2"].numerical(v=4)


def test_graded_to_poly_round():
    ring = scroll_ring(3, 2)
    cls = 3 * ring.variable("L") - 5 * ring.variable("C1")
    poly = graded_to_poly(cls)
    assert poly == 3 * Poly.variable(ring.names, "L") - 5 * Poly.variable(ring.names, "C1")


def test_degree_class_matches_explicit_pipeline():
    # the class dotted with L^(n - codim) in the scroll ring, then pushed forward
    for n, m, k in DEGREE_SETUPS:
        L = hyperplane_class(scroll_ring(n, m))
        lo = max_rank(n, m, k) - 1
        for N in range(lo, lo + n):
            setup = ScrollSetup(n, m, k, N)
            direct = pushforward(inflection_class(setup) * L ** (n - setup.codim),
                                 setup.fiber_rank)
            assert degree_class(setup) == direct, (n, m, k, N)


def test_order_two_range_specializations():
    # over a surface the admissible ambient range is [3n - 1, 4n - 2];
    # over a threefold it is [4n - 3, 5n - 4]
    for n in range(3, 7):
        res = expected_codim(ScrollSetup(n, 2, 2, 3 * n - 1))
        assert (res.range_lo, res.range_hi) == (3 * n - 1, 4 * n - 2)
    for n in range(4, 7):
        res = expected_codim(ScrollSetup(n, 3, 2, 4 * n - 3))
        assert (res.range_lo, res.range_hi) == (4 * n - 3, 5 * n - 4)
