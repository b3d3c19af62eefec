"""The packed kernel of ``chern`` against a tuple-keyed oracle.

The oracle is the product and the series inverse that ``GradedClass`` used
before packing: terms grouped by grade (total degree, then the degree in
each capped sector), pairs of groups past a limit skipped.  The power-sum
recursions of ``tensor`` and ``sym_power`` are written again on top of it.
Results are compared term by term with their coefficient types, since the
kernel promises an ``int`` while a coefficient is integral.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod
from operator import mul

import pytest

from scrollflex import chern, scroll
from scrollflex.chern import (FormalBundle, GradedClass, GradedRing,
                              GradedVariable, sym_power, tensor, tensor_line)
from scrollflex.scroll import ScrollSetup, scroll_ring


# -- the tuple-keyed oracle -----------------------------------------------------


def _grade(ring, exps):
    degrees = [w * e for w, e in zip(ring.weights, exps)]
    return (sum(degrees), *(
        sum(d for d, v in zip(degrees, ring.variables) if v.sector == sector)
        for sector in ring.sector_caps))


def _groups(cls):
    groups = {}
    for e, c in cls.terms.items():
        groups.setdefault(_grade(cls.ring, e), []).append((e, c))
    return list(groups.items())


def oracle_mul(a, b):
    ring = a.ring
    out = {}
    right = _groups(b)
    for g1, left in _groups(a):
        for g2, terms in right:
            if any(x + y > cap for x, y, cap in zip(g1, g2, ring.limits)):
                continue
            for e1, c1 in left:
                for e2, c2 in terms:
                    exps = tuple(map(sum, zip(e1, e2)))
                    out[exps] = out.get(exps, 0) + c1 * c2
    return GradedClass(ring, out)


def oracle_inverse(x):
    ring = x.ring
    inv = [ring.one()]
    for d in range(1, ring.truncation + 1):
        total = ring.zero()
        for i in range(1, d + 1):
            total = total + oracle_mul(x.homogeneous_part(i), inv[d - i])
        inv.append(-total)
    return sum(inv[1:], inv[0])


def oracle_power_sums(e):
    ring = e.ring
    top = min(e.rank, ring.truncation)
    signed = [e.total_chern.homogeneous_part(i) * (-1) ** (i + 1)
              for i in range(top + 1)]
    p = [ring.scalar(e.rank)]
    for d in range(1, ring.truncation + 1):
        total = signed[d] * d if d <= top else ring.zero()
        for i in range(1, min(d - 1, top) + 1):
            total = total + oracle_mul(signed[i], p[d - i])
        p.append(total)
    return p


def oracle_from_power_sums(p):
    ring = p[0].ring
    c = [ring.one()]
    for d in range(1, ring.truncation + 1):
        total = ring.zero()
        for i in range(1, d + 1):
            term = oracle_mul(c[d - i], p[i])
            total = total + term if i % 2 else total - term
        c.append(total * Fraction(1, d))
    return sum(c[1:], c[0])


def oracle_tensor(a, b):
    ring = a.ring
    pa, pb = oracle_power_sums(a), oracle_power_sums(b)
    p = [sum((oracle_mul(pa[t], pb[d - t]) * comb(d, t) for t in range(d + 1)),
             ring.zero()) for d in range(ring.truncation + 1)]
    return FormalBundle(a.rank * b.rank, oracle_from_power_sums(p))


def oracle_sym_power(e, k):
    ring = e.ring
    p = oracle_power_sums(e)
    zero = ring.zero()
    sym = [[ring.one()] + [zero] * ring.truncation]
    for i in range(1, k + 1):
        ps = []
        for d in range(ring.truncation + 1):
            total = zero
            for t in range(d + 1):
                weighted = zero
                for j in range(1, i + 1):
                    weighted = weighted + sym[i - j][d - t] * j ** t
                total = total + oracle_mul(p[t], weighted) * comb(d, t)
            ps.append(total * Fraction(1, i))
        sym.append(ps)
    return FormalBundle(comb(e.rank + k - 1, k), oracle_from_power_sums(sym[k]))


# -- random classes and bundles ---------------------------------------------------


def _typed(cls):
    return sorted((e, type(c).__name__, c) for e, c in cls.terms.items())


def _monomials(ring, degree):
    """Every monomial of ``ring`` of weighted degree ``degree`` that it admits."""
    ranges = [range(degree // w + 1) for w in ring.weights]
    return [e for e in itertools.product(*ranges)
            if ring.monomial_degree(e) == degree and ring.admits(e)]


def _coefficient(rng, fractions):
    c = rng.randint(-5, 5)
    return Fraction(c, rng.randint(1, 3)) if fractions else c


def _random_part(ring, rng, degree, fractions, density=0.6):
    return GradedClass(ring, {e: _coefficient(rng, fractions)
                              for e in _monomials(ring, degree) if rng.random() < density})


def _random_class(ring, rng, fractions):
    return sum((_random_part(ring, rng, d, fractions, 0.4)
                for d in range(ring.truncation + 1)), ring.zero())


def _random_bundle(ring, rng, rank, fractions):
    total = ring.one()
    for d in range(1, min(rank, ring.truncation) + 1):
        total = total + _random_part(ring, rng, d, fractions)
    return FormalBundle(rank, total)


def _random_ring(rng, capped):
    nvars = rng.randint(1, 3)
    sectors = [rng.choice((None, "base")) for _ in range(nvars)]
    truncation = rng.randint(1, 4)
    caps = None
    if capped:
        sectors[0] = "base"
        caps = {"base": rng.randint(0, truncation)}
    return GradedRing([GradedVariable(f"x{i}", rng.randint(1, 2), sectors[i])
                       for i in range(nvars)], truncation, caps)


CASES = [(seed, capped, fractions) for seed in range(12)
         for capped in (False, True) for fractions in (False, True)]


@pytest.mark.parametrize("seed, capped, fractions", CASES)
def test_product_and_inverse_match_the_oracle(seed, capped, fractions):
    rng = random.Random(f"kernel {seed} {capped} {fractions}")
    ring = _random_ring(rng, capped)
    a = _random_class(ring, rng, fractions)
    b = _random_class(ring, rng, fractions)
    assert _typed(a * b) == _typed(oracle_mul(a, b))
    assert _typed(b * a) == _typed(oracle_mul(a, b))
    assert _typed(a * a * a) == _typed(oracle_mul(oracle_mul(a, a), a))
    unit = ring.one() + a - a.homogeneous_part(0)
    assert _typed(unit.series_inverse()) == _typed(oracle_inverse(unit))


@pytest.mark.parametrize("seed, capped, fractions", CASES)
def test_tensor_and_symmetric_powers_match_the_oracle(seed, capped, fractions):
    rng = random.Random(f"bundles {seed} {capped} {fractions}")
    ring = _random_ring(rng, capped)
    a = _random_bundle(ring, rng, rng.randint(0, 3), fractions)
    b = _random_bundle(ring, rng, rng.randint(1, 3), fractions)
    got, want = tensor(a, b), oracle_tensor(a, b)
    assert got.rank == want.rank
    assert _typed(got.total_chern) == _typed(want.total_chern)
    k = rng.randint(1, 4)
    got, want = sym_power(a, k), oracle_sym_power(a, k)
    assert got.rank == want.rank
    assert _typed(got.total_chern) == _typed(want.total_chern)


def adams_by_j_sums(e, k):
    """Packed power sums of S^k E by the direct Adams sums: every order i
    forms sum_(j=1..i) j^t p(S^(i-j) E) afresh, so its additions grow as k^2,
    where ``sym_power`` keeps these sums running from order to order."""
    ring = e.ring
    p = chern._power_sums(e)
    sym = [[chern._constant(1)] + [{}] * ring.truncation]
    for i in range(1, k + 1):
        ps = []
        for d in range(ring.truncation + 1):
            total: dict = {}
            for t in range(d + 1):
                weighted = chern._add_into([(sym[i - j][d - t], j ** t)
                                            for j in range(1, i + 1)])
                chern._mul_into(ring, total, p[t], weighted, comb(d, t))
            ps.append(chern._divide(chern._tidy(total), i))
        sym.append(ps)
    return sym[k]


def _typed_sums(ring, sums):
    return [sorted((e, type(c).__name__, c) for e, c in chern._unpack(ring, [part]).items())
            for part in sums]


ADAMS_CASES = [(rank, capped, carried) for rank in range(1, 5)
               for capped in (False, True) for carried in (False, True)]


@pytest.mark.parametrize("rank, capped, carried", ADAMS_CASES)
def test_running_adams_sums_match_the_direct_loop(rank, capped, carried):
    rng = random.Random(f"adams {rank} {capped} {carried}")
    ring = _random_ring(rng, capped)
    e = _random_bundle(ring, rng, rank, fractions=rng.random() < 0.5)
    if carried:  # a twist by the trivial line carries the same power sums
        e = tensor(e, FormalBundle(1, ring.one()))
    for k in (1, 2, 3, 11, 40):
        got = sym_power(e, k)
        assert got.rank == comb(rank + k - 1, k)
        assert _typed_sums(ring, got._sums) == _typed_sums(ring, adams_by_j_sums(e, k)), k


@pytest.mark.parametrize("capped", [False, True])
def test_running_adams_sums_match_the_direct_loop_at_order_300(capped):
    # the edge ring, or its variables without the sector cap
    ring = _edge_ring(3) if capped else GradedRing(_edge_ring(3).variables, 3)
    L, C1, C2 = (ring.variable(name) for name in ("L", "C1", "C2"))
    for e in (FormalBundle(2, ring.one() + C1 * 3 + C2),
              tensor(FormalBundle(4, ring.one() - L + C1), FormalBundle(1, ring.one()))):
        assert _typed_sums(ring, sym_power(e, 300)._sums) == _typed_sums(
            ring, adams_by_j_sums(e, 300))


def eulerian(n):
    """Coefficients of the Eulerian polynomial A_n, where
    sum_(j>=1) j^n t^j = t A_n(t) / (1 - t)^(n+1)."""
    return [sum((-1) ** j * comb(n + 1, j) * (i + 1 - j) ** n for j in range(i + 1))
            for i in range(max(n, 1))]


def _partitions(total, largest=None):
    """Partitions of ``total`` as non-increasing tuples of parts."""
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest or total), 0, -1):
        for rest in _partitions(total - part, part):
            yield (part, *rest)


def power_sums_by_partitions(e, k):
    """p_D(S^k E) for D = 0..truncation with no Adams recursion.

    By the splitting principle sum_k ch(S^k E) t^k = prod_i 1/(1 - t e^(x_i))
    = (1 - t)^-r exp(sum_(d>=1) (p_d / d!) sum_j j^(d-1) t^j), and
    sum_j j^n t^j = t A_n(t) / (1 - t)^(n+1).  So a partition mu of D with
    l parts, m_d of them equal to d, adds D! p_mu / prod_d (d!^m_d m_d!)
    times [t^k] t^l prod_(d in mu) A_(d-1)(t) / (1 - t)^(r+D), a sum of
    binomials in k over the coefficients of the A-product (Macdonald,
    Symmetric Functions, I.2).  The work does not depend on k.
    """
    ring, r = e.ring, e.rank
    p = oracle_power_sums(e)
    sums = []
    for total in range(ring.truncation + 1):
        part = ring.zero()
        for mu in _partitions(total):
            weight = [1]
            for d in mu:
                a = eulerian(d - 1)
                weight = [sum(weight[i] * a[j - i] for i in range(len(weight))
                              if 0 <= j - i < len(a))
                          for j in range(len(weight) + len(a) - 1)]
            top = r + total - 1
            count = sum(c * comb(k - len(mu) - i + top, top)
                        for i, c in enumerate(weight) if k - len(mu) - i >= 0)
            if not count:
                continue
            scale = Fraction(factorial(total) * count,
                             prod(map(factorial, mu))
                             * prod(map(factorial, Counter(mu).values())))
            term = ring.one()
            for d in mu:
                term = oracle_mul(term, p[d])
            part = part + term * scale
        sums.append(part)
    return sums


def _partition_ring(truncation, capped):
    return GradedRing([GradedVariable("x0", 1), GradedVariable("x1", 1, "base"),
                       GradedVariable("x2", 2, "base")],
                      truncation, {"base": 2} if capped else None)


def _assert_partition_sums(e, k):
    want = power_sums_by_partitions(e, k)
    assert _typed_sums(e.ring, sym_power(e, k)._sums) == [_typed(p) for p in want], k


@pytest.mark.parametrize("rank, capped", [(rank, capped) for rank in range(1, 5)
                                          for capped in (False, True)])
def test_symmetric_powers_match_the_partition_identity(rank, capped):
    rng = random.Random(f"partitions {rank} {capped}")
    ring = _partition_ring(4, capped)
    e = _random_bundle(ring, rng, rank, fractions=rank % 2 == 0)
    for k in (1, 2, 3, 5, 17, 64, 257):
        _assert_partition_sums(e, k)


@pytest.mark.parametrize("rank, k, capped", [(2, 2000, False), (3, 3000, True)])
def test_symmetric_powers_match_the_partition_identity_at_large_order(rank, k, capped):
    rng = random.Random(f"large order {rank} {k}")
    e = _random_bundle(_partition_ring(3, capped), rng, rank, fractions=capped)
    _assert_partition_sums(e, k)


def test_the_partition_identity_sums_the_roots_of_the_symmetric_power():
    # p_D(S^k E) = sum_(|a| = k) (a . x)^D over the integer roots x of E
    rng = random.Random(2718)
    ring = GradedRing([GradedVariable("h", 1)], 4)
    h = ring.variable("h")
    for _ in range(20):
        roots = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        e = FormalBundle(len(roots), prod((ring.one() + h * x for x in roots), start=ring.one()))
        for k in range(7):
            want = [sum(sum(map(mul, a, roots)) ** total
                        for a in itertools.product(range(k + 1), repeat=len(roots))
                        if sum(a) == k) * h ** total
                    for total in range(ring.truncation + 1)]
            assert power_sums_by_partitions(e, k) == want, (roots, k)


# -- the edges of the packed fields ------------------------------------------------------


def _edge_ring(truncation):
    """L in the low field, then C1 and C2 in a sector capped one below the
    truncation (at zero for truncation 0)."""
    return GradedRing([GradedVariable("L", 1), GradedVariable("C1", 1, "base"),
                       GradedVariable("C2", 2, "base")],
                      truncation, {"base": max(0, truncation - 1)})


@pytest.mark.parametrize("truncation", [0, 1, 2, 3, 4, 7, 8, 15, 16])
def test_pure_powers_fill_their_field_and_stop_at_the_limits(truncation):
    ring = _edge_ring(truncation)
    cap = ring.sector_caps["base"]
    for name, limit in (("L", truncation), ("C1", cap)):
        x = ring.variable(name) if truncation else ring.zero()
        i = ring.index(name)
        for t in range(truncation + 2):
            power = x ** t
            want = {tuple(t if j == i else 0 for j in range(3)): 1} if t <= limit else {}
            assert power.terms == want, (name, t)
            assert _typed(power) == _typed(oracle_mul(x ** (t // 2), x ** (t - t // 2)))
        # 1 / (1 - x) is the sum of the powers the ring admits
        geometric = {tuple(t if j == i else 0 for j in range(3)): 1
                     for t in range(limit + 1)}
        assert (ring.one() - x).series_inverse().terms == geometric
        assert _typed((ring.one() - x).series_inverse()) == _typed(
            oracle_inverse(ring.one() - x))


@pytest.mark.parametrize("truncation", [0, 1, 2, 3, 4, 7, 8, 15, 16])
def test_mixed_products_at_the_field_edges_match_the_oracle(truncation):
    ring = _edge_ring(truncation)
    if not truncation:
        assert _typed(ring.scalar(3) * ring.scalar(Fraction(1, 3))) == [((0, 0, 0), "int", 1)]
        return
    L, C1, C2 = (ring.variable(name) for name in ("L", "C1", "C2"))
    x = ring.one() + L - C1 * Fraction(1, 2) + C2 * 3
    y = ring.one() - L * 2 + C1
    assert _typed(x * y) == _typed(oracle_mul(x, y))
    assert _typed(x ** truncation) == _typed(oracle_mul(x ** (truncation - 1), x))
    assert _typed(x.series_inverse()) == _typed(oracle_inverse(x))
    line = FormalBundle(1, ring.one() + L)
    pair = FormalBundle(2, ring.one() + C1 + C2)
    assert tensor(line, pair) == oracle_tensor(line, pair)
    assert sym_power(pair, 3) == oracle_sym_power(pair, 3)


# -- derived bundles carry their power sums -------------------------------------------


def _rebuilt(b):
    """The same bundle through the public constructor, without power sums."""
    return FormalBundle(b.rank, b.total_chern)


@pytest.mark.parametrize("seed, capped, fractions", CASES)
def test_derived_bundles_equal_their_rebuilt_bundles(seed, capped, fractions):
    rng = random.Random(f"carried {seed} {capped} {fractions}")
    ring = _random_ring(rng, capped)
    a = _random_bundle(ring, rng, rng.randint(0, 3), fractions)
    b = _random_bundle(ring, rng, rng.randint(1, 3), fractions)
    line = _random_part(ring, rng, 1, fractions, 1.0)
    for got in (tensor(a, b), tensor_line(a, line, -1), sym_power(a, rng.randint(1, 3))):
        want = _rebuilt(got)
        assert got == want and want == got
        assert (got.rank, got.ring) == (want.rank, want.ring)
        assert _typed(got.total_chern) == _typed(want.total_chern)
        assert repr(got) == repr(want)


@pytest.mark.parametrize("truncation", [0, 1, 2, 3, 4, 7, 8, 15, 16])
def test_operations_on_carried_sums_match_the_rebuilt_bundle(truncation):
    # each chain starts from a derived bundle, once as derived (its power
    # sums read directly) and once rebuilt from its total Chern class
    ring = _edge_ring(truncation)
    L, C1, C2 = (ring.variable(name) for name in ("L", "C1", "C2"))
    pair = FormalBundle(2, ring.one() + C1 * Fraction(1, 2) + C2 * 3)
    line = FormalBundle(1, ring.one() - L)
    chains = [
        lambda e: sym_power(tensor(e, pair), 2),
        lambda e: tensor_line(e, L, -1),
        lambda e: tensor(sym_power(e, 3), line),
        lambda e: sym_power(tensor_line(tensor(line, e), C1, 1), 2),
    ]
    for start in (sym_power(pair, 2), tensor(pair, line), tensor_line(pair, L, 1)):
        for chain in chains:
            got, want = chain(start), chain(_rebuilt(start))
            assert got.rank == want.rank
            assert _typed(got.total_chern) == _typed(want.total_chern)


# -- work, counted in term products -----------------------------------------------


def _count_products(monkeypatch):
    """Count the calls of ``chern._mul_into`` and the term products they form:
    the sizes of each admitted pair of grade groups, multiplied."""
    count = {"calls": 0, "products": 0}
    mul_into = chern._mul_into

    def counted(ring, out, x, y, scale=1):
        count["calls"] += 1
        count["products"] += sum(len(left) * len(right)
                                 for g1, left in x.items() for g2, right in y.items()
                                 if ring._admits_grade(g1 + g2))
        mul_into(ring, out, x, y, scale)

    monkeypatch.setattr(chern, "_mul_into", counted)
    return count


def test_the_segre_series_pairs_each_degree_with_nonzero_parts_only(monkeypatch):
    # the series behind degree --n 500 --m 499: the inverse of c(V^dual), V
    # of rank 2, up to degree 499; a pass over every lower degree would make
    # about 125,000 calls
    count = _count_products(monkeypatch)
    scroll._segre_parts.__wrapped__(499, 2)
    assert count["calls"] <= 2 * 499
    assert count["products"] == 124750


# Term products of the class route measured when each of chern's passes
# still wrote its own loop.  ``_power_sums`` now forms (-1)^(d-1) d c_d as
# the product of c_d with p_0 = 1, one more product per monomial of c_d.
CLASS_PRODUCTS = {(14, 13, 2, 131): 131549, (6, 5, 3, 81): 1277,
                  (5, 4, 5, 199): 726, (3, 2, 30, 962): 521, (40, 3, 3, 428): 241}


@pytest.mark.parametrize("n,m,k,N", sorted(CLASS_PRODUCTS))
def test_class_route_forms_no_more_products_than_the_newton_terms(monkeypatch,
                                                                   n, m, k, N):
    count = _count_products(monkeypatch)
    newton_terms = []
    power_sums = chern._power_sums

    def counted_sums(e):
        if e._sums is None:
            top = min(e.rank, e.ring.truncation)
            newton_terms.append(sum(1 <= e.ring.monomial_degree(exps) <= top
                                    for exps in e.total_chern.terms))
        return power_sums(e)

    monkeypatch.setattr(chern, "_power_sums", counted_sums)
    ell = ScrollSetup(n, m, k, N).codim
    scroll._inverted_summands.cache_clear()
    scroll._class_terms.__wrapped__(scroll_ring(n, m), n, m, k, ell)
    assert count["products"] == CLASS_PRODUCTS[n, m, k, N] + sum(newton_terms)


# The top of the range of N at k = 2 and along the order, large k at small
# m and the fiber axis, and (4, 2, 1000) at codimension 1
ESTIMATED = [(14, 13, 2, 131), (18, 17, 2, 205), (16, 15, 3, 966), (13, 12, 3, 557),
             (10, 9, 6, 7015), (6, 5, 4, 186), (5, 3, 100, 520254),
             (4, 2, 300, 135753), (3, 2, 30, 962), (1000, 2, 2, 3998),
             (4, 2, 1000, 1502500)]


@pytest.mark.parametrize("n,m,k,N", ESTIMATED)
def test_the_work_estimate_bounds_the_counted_work_within_a_factor_8(monkeypatch,
                                                                     n, m, k, N):
    count = _count_products(monkeypatch)
    additions = []
    add_into = chern._add_into

    def counted_add(scaled):
        additions.append(sum(len(group) for x, _ in scaled for group in x.values()))
        return add_into(scaled)

    estimates = []
    check_work = chern.check_work

    def metered(work, what):
        estimates.append(work)
        check_work(work, what)

    monkeypatch.setattr(chern, "_add_into", counted_add)
    monkeypatch.setattr(chern, "check_work", metered)
    monkeypatch.setattr(scroll, "check_work", metered)
    ell = ScrollSetup(n, m, k, N).codim
    scroll._inverted_summands.cache_clear()
    scroll._class_terms.__wrapped__(scroll_ring(n, m), n, m, k, ell)
    counted = count["products"] + sum(additions)
    assert counted <= sum(estimates) <= 8 * counted
