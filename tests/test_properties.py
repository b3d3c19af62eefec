"""Randomized property suites, 500 seeded cases each."""

import itertools
import json
import random
import warnings
from fractions import Fraction
from math import comb

import pytest

from scrollflex.chern import (FormalBundle, GradedClass, GradedRing,
                              GradedVariable, bundle_from_classes, direct_sum,
                              sym_power, tensor)
from scrollflex.errors import InvalidInputError, ScrollflexError, load_json
from scrollflex.exactpoly import Poly, parse_poly
from scrollflex import jets
from scrollflex.jets import (BUNDLED_PROBES, JetProbeSpec, bundled_minor_report,
                             jet_matrix, probe_rank, symbolic_jet_matrix)
from scrollflex.linalg import det_poly, iter_minors, rank_rational
from scrollflex.scroll import (BASE_PRESETS, NumericalBaseData, ScrollSetup,
                               chern_wu_reduce, inflection_class, max_rank,
                               pushforward, scroll_ring)

CASES = 500


def _random_class(ring, rng, max_terms=5, unit=False):
    terms = {}
    names = ring.names
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * len(names)
        budget = rng.randint(0 if unit else 1, ring.truncation)
        while budget > 0:
            i = rng.randrange(len(names))
            if ring.weights[i] <= budget:
                exps[i] += 1
                budget -= ring.weights[i]
            else:
                break
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if coeff and any(exps):
            terms[tuple(exps)] = terms.get(tuple(exps), 0) + coeff
    cls = ring.zero()
    for exps, coeff in terms.items():
        cls = cls + GradedClass(ring, {exps: coeff})
    return ring.one() + cls if unit else cls


def test_series_inverse_identity_500():
    rng = random.Random(20260808)
    for case in range(CASES):
        nvars = rng.randint(1, 4)
        trunc = rng.randint(1, 6)
        ring = GradedRing(
            [GradedVariable(f"x{i}", rng.randint(1, 2)) for i in range(nvars)],
            trunc)
        x = _random_class(ring, rng, unit=True)
        assert x * x.series_inverse() == ring.one(), f"case {case}"


def _degree_part(cls, d):
    """The terms of a graded class of degree ``d`` in its ring's grading."""
    return GradedClass(cls.ring, {e: c for e, c in cls.terms.items()
                                  if cls.ring.monomial_degree(e) == d})


def _truncated(ring, poly):
    """The terms of a plain polynomial that the ring admits."""
    return {e: c for e, c in poly.terms.items() if ring.admits(e)}


def test_graded_kernel_matches_truncated_poly_500():
    """Graded products, powers and inverses against plain ``Poly`` products
    filtered by ``ring.admits``, over rings with and without a sector cap."""
    rng = random.Random(20261018)
    capped = 0
    for case in range(CASES):
        nvars = rng.randint(1, 4)
        trunc = rng.randint(1, 6)
        sectors = [rng.choice((None, "s")) for _ in range(nvars)]
        caps = None
        if "s" in sectors and case % 2:
            caps = {"s": rng.randint(0, trunc)}
            capped += 1
        ring = GradedRing([GradedVariable(f"x{i}", rng.randint(1, 2), sectors[i])
                           for i in range(nvars)], trunc, caps)
        a = _random_class(ring, rng) * rng.choice((1, 2, Fraction(1, 3)))
        b = _random_class(ring, rng) + rng.randint(-2, 2)
        pa, pb = Poly(ring.names, a.terms), Poly(ring.names, b.terms)
        power = rng.randint(0, 4)
        unit = ring.one() + a
        geometric = sum(((-pa) ** j for j in range(trunc + 1)), Poly.zero(ring.names))
        for got, want in ((a * b, pa * pb), (b * a, pa * pb), (a ** power, pa ** power),
                          (unit.series_inverse(), geometric)):
            assert got.terms == _truncated(ring, want), f"case {case}"
            assert all(type(c) is int or c.denominator != 1 for c in got.terms.values())
    assert capped > CASES // 4


def _random_bundle(ring, rng, rank):
    classes = []
    for i in range(1, min(rank, ring.truncation) + 1):
        piece = ring.zero()
        for exps in _degree_exponents(ring, i):
            if rng.random() < 0.5:
                piece = piece + _monomial(ring, exps) * rng.randint(-3, 3)
        classes.append(piece)
    if not classes:
        classes = [ring.zero()]
    return bundle_from_classes(rank, classes)


def _degree_exponents(ring, degree):
    out = []

    def rec(i, left, exps):
        if i == len(ring.names):
            if left == 0:
                out.append(tuple(exps))
            return
        for e in range(left // ring.weights[i] + 1):
            rec(i + 1, left - e * ring.weights[i], exps + [e])

    rec(0, degree, [])
    return out


def _monomial(ring, exps):
    return GradedClass(ring, {exps: Fraction(1)})


def _one_plus_product(ring, roots):
    """prod (1 + a*t + b*s) over integer roots (a, b), expanded with plain
    ints and truncated at the ring's degree."""
    poly = {(0, 0): 1}
    for a, b in roots:
        grown = dict(poly)
        for (i, j), c in poly.items():
            if i + j < ring.truncation:
                grown[i + 1, j] = grown.get((i + 1, j), 0) + a * c
                grown[i, j + 1] = grown.get((i, j + 1), 0) + b * c
        poly = grown
    return GradedClass(ring, poly)


def _root_bundle(ring, rng, rank):
    """A bundle with random integer Chern roots a*t + b*s, and those roots."""
    roots = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rank)]
    return FormalBundle(rank, _one_plus_product(ring, roots)), roots


# Derived ranks drawn by the root suite: every rank up to 64, the largest
# the retired universal tables took, and ranks past it up to 160.
RANK_CAPS = (64, 160)


def _max_sym_base_rank(k, cap):
    """The largest rank whose k-th symmetric power has rank at most cap."""
    r = 1
    while comb(r + k, k) <= cap:
        r += 1
    return r


def test_root_consistency_and_whitney_500():
    rng = random.Random(4711)
    root_rings = {trunc: GradedRing([GradedVariable("t", 1), GradedVariable("s", 1)],
                                    trunc) for trunc in (2, 3, 4)}
    mixed_rings = {trunc: GradedRing([GradedVariable("p", 1), GradedVariable("q", 2)],
                                     trunc) for trunc in (2, 3, 4)}
    reached = {"tensor": set(), "sym": set()}
    for case in range(CASES):
        trunc = rng.randint(2, 4)
        mode = case % 3
        # modes 0 and 1: derived bundles against products over their roots
        ring = root_rings[trunc] if mode < 2 else mixed_rings[trunc]
        if mode == 0:
            ra = rng.randint(1, 8)
            cap = rng.choice(RANK_CAPS)
            rb = rng.choice((rng.randint(1, cap // ra), cap // ra))
            a, alpha = _root_bundle(ring, rng, ra)
            b, beta = _root_bundle(ring, rng, rb)
            want = _one_plus_product(
                ring, [(x + u, y + v) for x, y in alpha for u, v in beta])
            got = tensor(a, b)
            assert got.rank == ra * rb
            assert got.total_chern == want, f"case {case}: ranks {ra}, {rb}"
            reached["tensor"].add(got.rank)
        elif mode == 1:
            k = rng.randint(1, 4)
            top = _max_sym_base_rank(k, rng.choice(RANK_CAPS))
            r = rng.choice((rng.randint(1, top), top))
            e, alpha = _root_bundle(ring, rng, r)
            want = _one_plus_product(ring, [
                tuple(map(sum, zip(*combo)))
                for combo in itertools.combinations_with_replacement(alpha, k)])
            got = sym_power(e, k)
            assert got.rank == comb(r + k - 1, k)
            assert got.total_chern == want, f"case {case}: rank {r}, k {k}"
            reached["sym"].add(got.rank)
        else:
            a = _random_bundle(ring, rng, rng.randint(1, 3))
            b = _random_bundle(ring, rng, rng.randint(1, 3))
            # Whitney additivity and distributivity of tensor over sums
            c = _random_bundle(ring, rng, rng.randint(1, 2))
            s = direct_sum(a, b)
            assert s.total_chern == a.total_chern * b.total_chern
            lhs = tensor(s, c)
            rhs = direct_sum(tensor(a, c), tensor(b, c))
            assert lhs.rank == rhs.rank
            assert lhs.total_chern == rhs.total_chern
    for ranks in reached.values():
        assert max(r for r in ranks if r <= RANK_CAPS[0]) == RANK_CAPS[0]
        assert max(ranks) > RANK_CAPS[0]


@pytest.mark.parametrize("r, k, trunc", [(2, 8, 4), (2, 12, 4), (2, 16, 4),
                                         (3, 6, 6)])
def test_sym_power_high_order_against_roots(r, k, trunc):
    """The Adams-operation tables at orders past the suite above (k <= 4)."""
    rng = random.Random(1000 * r + k)
    ring = GradedRing([GradedVariable("t", 1), GradedVariable("s", 1)], trunc)
    for case in range(3):
        e, alpha = _root_bundle(ring, rng, r)
        want = _one_plus_product(ring, [
            tuple(map(sum, zip(*combo)))
            for combo in itertools.combinations_with_replacement(alpha, k)])
        got = sym_power(e, k)
        assert got.rank == comb(r + k - 1, k)
        assert got.total_chern == want, f"case {case}"


# The benchmark's cold class setups and its frontier ladder, as (n, m, k).
COLD_SETUPS = [(2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 2, 2), (3, 2, 3), (3, 2, 4),
               (4, 2, 2), (4, 2, 3), (4, 2, 4), (4, 3, 2), (4, 3, 3)]
LADDER = [(4, 3, 2), (6, 5, 2), (7, 6, 2), (5, 4, 3), (5, 3, 4),
          (6, 5, 3), (6, 4, 4), (7, 6, 3), (8, 7, 2)]
# Classes at the top of the range, codimension n; (12, 11, 2) to (5, 4, 5)
# were refused by the rank limits of the retired universal tables, the next
# four reach high orders k, and the last three have long fibers over small bases.
TOP_OF_RANGE = [(9, 8, 2), (5, 3, 6), (12, 11, 2), (8, 7, 3), (6, 5, 4), (5, 4, 5),
                (4, 2, 16), (3, 2, 30), (5, 3, 8), (6, 4, 6),
                (60, 2, 2), (40, 3, 3), (30, 2, 4)]


def _elementary(roots):
    """e_0..e_len(roots) of integer roots, with plain ints."""
    e = [1]
    for x in roots:
        e = [a + x * b for a, b in zip(e + [0], [0] + e)]
    return e


def _plain_inverse(terms, ell, m):
    """The inverse of a unit series in L and s, {(i, j): int} with the
    L-exponent i and the s-exponent j, truncated at degree ell and s^(m+1)."""
    inverse = {(0, 0): 1}
    for d in range(1, ell + 1):
        for j in range(min(d, m) + 1):
            inverse[d - j, j] = -sum(
                c * inverse.get((d - j - a, j - b), 0)
                for (a, b), c in terms.items() if (a, b) != (0, 0))
    return inverse


def _splitting_principle_class(n, m, k, ell, t_roots, v_roots):
    """The degree-ell part of c(E_k)^-1 from E_k's explicit Chern roots.

    E_k is the sum of S^(i-1) T (x) V^dual for i = 1..k and S^k T (x) L^-1;
    a root is (L-coefficient, s-coefficient)."""
    roots = []
    for i in range(1, k + 1):
        for combo in itertools.combinations_with_replacement(t_roots, i - 1):
            roots += [(0, sum(combo) - v) for v in v_roots]
    roots += [(-1, sum(combo))
              for combo in itertools.combinations_with_replacement(t_roots, k)]
    ring = GradedRing([GradedVariable("L", 1), GradedVariable("s", 1, "base")],
                      ell, {"base": m})
    inverse = _plain_inverse(_one_plus_product(ring, roots).terms, ell, m)
    return ring, {(i, j): c for (i, j), c in inverse.items() if i + j == ell and c}


def _oracle_setups(setups):
    """(n, m, k, N) at every codimension of each setup's range."""
    out = []
    for n, m, k in setups:
        rk = max_rank(n, m, k)
        out += [(n, m, k, N) for N in range(rk - 1, rk + n - 1)]
    return out


@pytest.mark.parametrize("n, m, k, N", _oracle_setups(COLD_SETUPS + LADDER)
                         + [(n, m, k, max_rank(n, m, k) + n - 2)
                            for n, m, k in TOP_OF_RANGE])
def test_class_against_splitting_principle(n, m, k, N):
    """The whole of c(E_k)^-1 against E_k's Chern roots: T_Y and V get random
    integer roots times s, C_i and V_i become their elementary symmetric
    functions times s^i, and the expected class is expanded as a product
    over E_k's roots and inverted with plain ints."""
    setup = ScrollSetup(n, m, k, N)
    ell = setup.codim
    rng = random.Random(f"{n},{m},{k},{N}")
    t_roots = [rng.randint(-3, 3) for _ in range(m)]
    v_roots = [rng.randint(-3, 3) for _ in range(n - m + 1)]
    ring, want = _splitting_principle_class(n, m, k, ell, t_roots, v_roots)
    cls = inflection_class(setup)
    s, et, ev = ring.variable("s"), _elementary(t_roots), _elementary(v_roots)
    mapping = {"L": ring.variable("L")}
    for name in cls.ring.names[1:]:
        i = int(name[1:])
        mapping[name] = s ** i * (et[i] if name[0] == "C" else ev[i])
    assert cls.substitute(ring, mapping).terms == want


LONG_FIBERS = {2: [(200, 2), (500, 2)], 3: [(100, 3)]}


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_class_over_an_abelian_base(m):
    """With c(T_Y) = 1, c(E_k) = c(V^dual)^nu (1 - L)^mu, where nu and mu
    are the ranks C(m+k-1, k-1) and C(m+k-1, k) of the V^dual and L^-1
    parts; the class is the degree-ell part of its inverse."""
    for n, k in [(m + 1, 2), (m + 1, 3), (m + 1, 4), (m + 2, 2)] + LONG_FIBERS.get(m, []):
        ring = scroll_ring(n, m)
        nu, mu = comb(m + k - 1, k - 1), comb(m + k - 1, k)
        c_dual = ring.one()
        for i in range(1, min(n - m + 1, m) + 1):
            c_dual = c_dual + ring.variable(f"V{i}") * (-1) ** i
        L = ring.variable("L")
        # the inverse split by degree once, not scanned once per N
        parts = {}
        for exps, c in (c_dual ** nu * (1 - L) ** mu).series_inverse().terms.items():
            parts.setdefault(ring.monomial_degree(exps), {})[exps] = c
        mapping = {name: (ring.zero() if name[0] == "C" else ring.variable(name))
                   for name in ring.names}
        rk = max_rank(n, m, k)
        for N in range(rk - 1, rk + n - 1):
            setup = ScrollSetup(n, m, k, N)
            got = inflection_class(setup).substitute(ring, mapping)
            assert got == GradedClass(ring, parts.get(setup.codim, {})), (n, m, k, N)


def test_chern_wu_idempotence_500():
    rng = random.Random(90125)
    rings = {(n, m): scroll_ring(n, m)
             for n in (3, 4) for m in (1, 2, 3) if m < n}
    for case in range(CASES):
        n, m = rng.choice(sorted(rings))
        ring = rings[(n, m)]
        r = n - m + 1
        cls = _random_class(ring, rng, max_terms=6)
        once = chern_wu_reduce(cls, r)
        assert chern_wu_reduce(once, r) == once, f"case {case}"
        li = ring.index("L")
        assert all(exps[li] <= r - 1 for exps in once.terms)


def test_pushforward_projection_formula_500():
    rng = random.Random(271828)
    for case in range(CASES):
        n = rng.choice((3, 4))
        m = rng.choice(tuple(mm for mm in (1, 2, 3) if mm < n))
        ring = scroll_ring(n, m)
        r = n - m + 1
        x = _random_class(ring, rng, max_terms=4)
        # beta: a pure pullback class
        beta = ring.zero()
        for name in ring.names:
            if name != "L" and rng.random() < 0.6:
                beta = beta + ring.variable(name) * rng.randint(-2, 2)
        lhs = pushforward(x * beta, r)
        base = pushforward(x, r)
        beta_down = ring.zero()
        mapping = {}
        target = base.ring
        for name in ring.names:
            if name == "L":
                continue
            mapping[name] = target.variable(name.lower())
        beta_base = beta.substitute(target, mapping) if not beta.is_zero() \
            else target.zero()
        assert lhs == base * beta_base, f"case {case}"


def _random_scroll_chart(rng):
    m = rng.choice((1, 2))
    s = rng.choice((1, 2))
    n = m + s
    k = rng.choice((2, 3))
    unames = tuple(f"u{i}" for i in range(1, m + 1))
    names = unames + tuple(f"t{j}" for j in range(1, s + 1))

    def random_base_poly():
        p = Poly.zero(names)
        for exps in _poly_exponents(len(unames), rng.randint(0, 2)):
            if rng.random() < 0.7:
                full = exps + (0,) * s
                p = p + Poly(names, {full: Fraction(rng.randint(-3, 3))})
        return p

    coords = [Poly.const(names, 1)]
    for i, u in enumerate(unames):
        coords.append(Poly.variable(names, u))
    for j in range(1, s + 1):
        t = Poly.variable(names, f"t{j}")
        for _ in range(rng.randint(1, 2)):
            b = random_base_poly()
            if not b.is_zero():
                coords.append(b * t)
    spec = JetProbeSpec(names, tuple(coords), k, trials=2, seed=rng.randrange(10 ** 6))
    return spec, n, m, k


def _poly_exponents(nvars, max_degree):
    out = []

    def rec(i, left, exps):
        if i == nvars:
            out.append(tuple(exps))
            return
        for e in range(left + 1):
            rec(i + 1, left - e, exps + [e])

    rec(0, max_degree, [])
    return out


def test_jet_rank_bound_and_monotonicity_500():
    rng = random.Random(1729)
    for case in range(CASES):
        spec, n, m, k = _random_scroll_chart(rng)
        point = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                      for _ in spec.variables)
        high = rank_rational(jet_matrix(spec, point))
        assert high <= max_rank(n, m, k), f"case {case}: bound violated"
        low = rank_rational(jet_matrix(spec.with_order(k - 1), point))
        assert low <= high, f"case {case}: rank dropped with the order"
        assert high <= len(spec.coordinates)


# -- the exact polynomial kernel -------------------------------------------------

KERNEL_VARS = ("x", "y", "z")


def _random_coefficient(rng):
    """A nonzero int or a non-integral rational, about half of each."""
    if rng.random() < 0.5:
        return rng.choice((-1, 1)) * rng.randint(1, 9)
    den = rng.randint(2, 6)
    num = rng.choice([k for k in range(-12, 13) if k % den])
    return Fraction(num, den)


def _random_poly(rng, max_terms=5, max_degree=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_degree) for _ in KERNEL_VARS)
        terms[exps] = _random_coefficient(rng)
    return Poly(KERNEL_VARS, terms)


def _assert_canonical(p):
    for c in p.terms.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), p


def test_kernel_round_trips_with_mixed_coefficients_500():
    rng = random.Random(31337)
    for case in range(CASES):
        p, q, r = (_random_poly(rng) for _ in range(3))
        point = {v: Fraction(rng.randint(-7, 7), rng.randint(1, 4)) for v in KERNEL_VARS}
        results = [p + q, p - q, -p, p * q, (p + q) * r, p * r + q * r]
        for value in results:
            _assert_canonical(value)
        assert (p + q) - q == p, f"case {case}"
        assert (p - p).is_zero() and (p + (-p)).is_zero()
        assert p * q == q * p
        assert (p + q) * r == p * r + q * r, f"case {case}"
        assert (p * q).eval_at(point) == p.eval_at(point) * q.eval_at(point)
        if q.is_zero():
            continue
        quotient = (p * q).exact_div(q)
        _assert_canonical(quotient)
        assert quotient == p, f"case {case}"
        if not q.is_constant():
            with pytest.raises(InvalidInputError):
                (p * q + 1).exact_div(q)


def _laplace(m):
    if len(m) == 1:
        return m[0][0]
    total = Poly.zero(KERNEL_VARS)
    for j, entry in enumerate(m[0]):
        minor = _laplace([row[:j] + row[j + 1:] for row in m[1:]])
        total = total + entry * minor if j % 2 == 0 else total - entry * minor
    return total


def test_det_poly_matches_laplace_on_4x4_500():
    rng = random.Random(8128)
    zero = Poly.zero(KERNEL_VARS)
    for case in range(CASES):
        m = [[_random_poly(rng, max_terms=3, max_degree=2) for _ in range(4)]
             for _ in range(4)]
        if case % 4 == 1:
            m[rng.randrange(4)] = [zero] * 4
        elif case % 4 == 2:
            j = rng.randrange(4)
            for row in m:
                row[j] = zero
        det = det_poly(m)
        _assert_canonical(det)
        assert det == _laplace(m), f"case {case}"
        if case % 4 in (1, 2):
            assert det.is_zero()


def _fraction_rank(rows):
    m = [list(row) for row in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            factor = m[i][col] / m[rank][col]
            m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_rank_rational_matches_fraction_elimination_500():
    # products of random sparse factors: deficient ranks and skipped pivot
    # columns, where the integer elimination relies on exact division
    rng = random.Random(424242)
    for case in range(CASES):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        inner = rng.randint(1, min(nrows, ncols))
        a = [[_random_coefficient(rng) if rng.random() < 0.6 else 0
              for _ in range(inner)] for _ in range(nrows)]
        b = [[_random_coefficient(rng) if rng.random() < 0.6 else 0
              for _ in range(ncols)] for _ in range(inner)]
        m = [[sum((a[i][t] * b[t][j] for t in range(inner)), Fraction(0))
              for j in range(ncols)] for i in range(nrows)]
        assert rank_rational(m) == _fraction_rank(m), f"case {case}"


# Minor sizes per bundled probe at which every minor's full elimination
# stays well under half a second: the smallest and largest sizes, and the
# ones in between with few minors.
STRUCTURAL_ZERO_SIZES = {
    "segre-1-1": (3, 1, 2, 4), "segre-2-1": (4, 1, 2, 3, 5, 6),
    "segre-2-2": (2, 1), "segre-3-1": (2, 1), "p1-cube": (7, 1, 2, 8),
    "p1-fourth": (15, 1), "p1-fifth": (1,), "flag-threefold": (8, 1, 2, 9),
    "cubic-scroll-times-p1": (9, 1, 2, 10), "veronese": (4, 1, 2, 3, 5, 6),
    "two-summand-plane-scroll": (8, 1, 2, 9),
    "cubic-surface-scroll": (4, 1, 2, 3, 5), "bordiga": (2, 1, 9, 10),
}


@pytest.mark.parametrize("name", sorted(BUNDLED_PROBES))
def test_structural_zero_minors_equal_full_bareiss(name):
    matrix = symbolic_jet_matrix(BUNDLED_PROBES[name].build())
    for size in STRUCTURAL_ZERO_SIZES[name]:
        keys = [(rows, cols)
                for rows in itertools.combinations(range(len(matrix)), size)
                for cols in itertools.combinations(range(len(matrix[0])), size)]
        minors = list(iter_minors(matrix, size))
        assert [key for key, _ in minors] == keys
        for (rows, cols), value in minors:
            full = det_poly([[matrix[i][j] for j in cols] for i in rows])
            assert value == full, (name, rows, cols)


# The minor requests of the jet benchmark: (probe, minor size).
MINOR_REQUESTS = [("bordiga", 9), ("flag-threefold", 8), ("p1-cube", 7),
                  ("two-summand-plane-scroll", 9), ("cubic-surface-scroll", 5)]


def _fraction_det(rows):
    """Determinant by plain Fraction elimination, first nonzero pivot down."""
    m = [list(row) for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((i for i in range(col, len(m)) if m[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, len(m)):
            factor = m[i][col] / m[col][col]
            m[i] = [a - factor * b for a, b in zip(m[i], m[col])]
    return det


@pytest.mark.parametrize("name,size", MINOR_REQUESTS)
def test_minors_match_fraction_determinants_at_points(name, size):
    # an oracle that shares neither the pivot rule nor the Bareiss
    # divisions: each minor's value at a point is the determinant of the
    # jet matrix evaluated there
    spec = BUNDLED_PROBES[name].build()
    report = bundled_minor_report(name, size)
    nrows, ncols = len(symbolic_jet_matrix(spec)), len(spec.coordinates)
    keys = [(rows, cols)
            for rows in itertools.combinations(range(nrows), size)
            for cols in itertools.combinations(range(ncols), size)]
    assert len(keys) == len(report.minors)
    rng = random.Random(2718)
    for _ in range(2):
        point = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                      for _ in spec.variables)
        values = dict(zip(spec.variables, point))
        evaluated = jet_matrix(spec, point)
        checked = 0
        for (rows, cols), minor in zip(keys, report.minors):
            if minor.is_zero():
                continue
            sub = [[evaluated[i][j] for j in cols] for i in rows]
            assert minor.eval_at(values) == _fraction_det(sub), (name, rows, cols)
            checked += 1
        assert checked == report.nonzero_minors > 0
    if name == "bordiga":
        assert str(report.content) == "y^5"


def _non_integral_probe():
    return JetProbeSpec(
        ("u1", "u2"),
        ("1", "1/2*u1^2", "u1 + 1/3*u2", "u1*u2 - 2/5*u2^3", "u1^3/7 + u2^2"),
        2, trials=64, seed=5)


@pytest.mark.filterwarnings("ignore:no constant coordinate")
@pytest.mark.parametrize("name", sorted(BUNDLED_PROBES) + ["non-integral"])
def test_scaled_ranks_equal_fraction_route(name):
    if name == "non-integral":
        spec = _non_integral_probe()
    else:
        base = BUNDLED_PROBES[name].build()
        spec = JetProbeSpec(base.variables, base.coordinates, base.order,
                            trials=64, seed=5, height=base.height)
    rng = random.Random(spec.seed)
    points = [jets._random_point(spec, rng) for _ in range(spec.trials)]
    expected = tuple(rank_rational(jet_matrix(spec, p)) for p in points)
    assert probe_rank(spec).per_trial == expected
    assert any(x < 0 for p in points for x in p)
    # each scaled row is the evaluated row times a positive constant
    layout, monomials = jets._scaled_layout(jets._shared_jet_matrix(spec))
    kinds = set()
    for point in points:
        scaled = jets._scaled_rows(layout, monomials, point)
        for row, exact in zip(scaled, jet_matrix(spec, point)):
            kinds.update(type(x) for x in row)
            scale = next((a / b for a, b in zip(row, exact) if b), 1)
            assert scale > 0 and row == [scale * b for b in exact], (name, point)
    assert kinds == ({int, Fraction} if name == "non-integral" else {int})


def test_scalar_accessors_return_fractions():
    rng = random.Random(65537)
    for _ in range(50):
        p = _random_poly(rng) + rng.randint(-3, 3)
        point = {v: rng.randint(-5, 5) for v in KERNEL_VARS}
        values = [p.eval_at(point), p.coefficient((0, 0, 0)),
                  p.coefficient((9, 9, 9))]
        if p.is_constant():
            values.append(p.constant_value())
        assert all(type(v) is Fraction for v in values), values
    assert type(Poly.const(KERNEL_VARS, 4).constant_value()) is Fraction
    assert type(Poly.zero(KERNEL_VARS).constant_value()) is Fraction


# -- input fuzzing ---------------------------------------------------------------

FUZZ_TOKENS = ("x", "y", "z", "q", "x1", "_", "0", "1", "2", "17", "123456789",
               "+", "-", "*", "/", "^", "**", "(", ")", " ", ".", "#", "1e3",
               "é", "\n", "^-1", "9" * 5000)


def _fuzz_expression(rng, depth=0):
    """A random polynomial text: mostly well formed, with big powers, deep
    nesting and stray tokens mixed in."""
    roll = rng.random()
    if depth > 4 or roll < 0.3:
        return rng.choice(FUZZ_TOKENS[:11])
    if roll < 0.55:
        op = rng.choice(("+", "-", "*", "/"))
        return _fuzz_expression(rng, depth + 1) + op + _fuzz_expression(rng, depth + 1)
    if roll < 0.75:
        exponent = rng.choice((0, 1, 2, 3, 7, 50, 400, 10 ** 9))
        return f"({_fuzz_expression(rng, depth + 1)})^{exponent}"
    if roll < 0.85:
        n = rng.choice((1, 2, 99, 101, 3000))
        return "(" * n + _fuzz_expression(rng, depth + 1) + ")" * n
    return "".join(rng.choice(FUZZ_TOKENS) for _ in range(rng.randint(0, 12)))


def test_parse_poly_fuzz_raises_only_typed_errors():
    rng = random.Random(60221)
    parsed = 0
    for case in range(CASES):
        text = _fuzz_expression(rng)
        if rng.random() < 0.3:  # drop or duplicate a character
            i = rng.randrange(len(text) + 1)
            text = text[:i] + text[i + 1:] if rng.random() < 0.5 else text[:i] + text[i - 1:]
        try:
            parse_poly(text, ("x", "y", "z"))
            parsed += 1
        except ScrollflexError:
            pass
    assert 0 < parsed < CASES


def _fuzz_json(rng, depth=0):
    roll = rng.random()
    if depth > 2 or roll < 0.5:
        return rng.choice((None, True, False, 0, -1, 2, 10 ** 30, 1.5, float("nan"),
                           "", "x", "c1^2", "v2", "1", _fuzz_expression(rng, 3)))
    if roll < 0.75:
        return [_fuzz_json(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {rng.choice(("x", "c1^2", "c2", "v1", "1", "")): _fuzz_json(rng, depth + 1)
            for _ in range(rng.randint(0, 4))}


def _mutated(rng, payload):
    """A copy of a valid payload with a few fields dropped, replaced or added."""
    payload = dict(payload)
    for _ in range(rng.randint(1, 3)):
        key = rng.choice(sorted(payload) + ["extra"])
        action = rng.random()
        if action < 0.15:
            payload.pop(key, None)
        elif action < 0.5:
            payload[key] = _fuzz_json(rng)
        elif isinstance(payload.get(key), (list, dict)) and payload[key]:
            inner = payload[key]
            if isinstance(inner, list):
                inner = list(inner)
                inner[rng.randrange(len(inner))] = _fuzz_json(rng)
            else:
                inner = dict(inner)
                inner[rng.choice(sorted(inner))] = _fuzz_json(rng)
            payload[key] = inner
    return payload


def test_data_and_probe_loaders_fuzz_raise_only_typed_errors(tmp_path):
    """The ``--data`` and probe-file loaders on mutated payloads and on
    broken files: every failure is a ``ScrollflexError``."""
    rng = random.Random(1618)
    data = BASE_PRESETS["p2"].numerical(v=4, y=4).to_payload()
    probe = BUNDLED_PROBES["cubic-surface-scroll"].build().to_payload()
    path = tmp_path / "input.json"
    loaded = 0
    for case in range(CASES):
        kind = case % 2
        payload = _mutated(rng, data if kind else probe)
        text = json.dumps(payload) if rng.random() < 0.85 else json.dumps(_fuzz_json(rng))
        if rng.random() < 0.2:  # truncate, or break the encoding
            text = text[:rng.randrange(len(text) + 1)]
        raw = text.encode("utf-8") + (b"\xff" if rng.random() < 0.05 else b"")
        path.write_bytes(raw)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                if kind:
                    NumericalBaseData.from_payload(load_json(path))
                else:
                    JetProbeSpec.load(path)
            loaded += 1
        except ScrollflexError:
            pass
    assert 0 < loaded < CASES
