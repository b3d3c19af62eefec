"""Randomized property suites, 500 seeded cases each."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from scrollflex.chern import (SYM_RANK_LIMIT, TENSOR_RANK_LIMIT, FormalBundle,
                              GradedClass, GradedRing, GradedVariable,
                              bundle_from_classes, direct_sum, sym_power,
                              tensor)
from scrollflex.errors import InvalidInputError
from scrollflex.exactpoly import Poly
from scrollflex import jets
from scrollflex.jets import (BUNDLED_PROBES, JetProbeSpec, bundled_minor_report,
                             jet_matrix, probe_rank, symbolic_jet_matrix)
from scrollflex.linalg import _bareiss, det_poly, iter_minors, rank_rational
from scrollflex.scroll import (chern_wu_reduce, max_rank, pushforward,
                               scroll_ring)

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


def _max_sym_base_rank(k):
    """The largest rank whose k-th symmetric power is within the limit."""
    r = 1
    while comb(r + k, k) <= SYM_RANK_LIMIT:
        r += 1
    return r


def test_root_consistency_and_whitney_500():
    rng = random.Random(4711)
    root_rings = {trunc: GradedRing([GradedVariable("t", 1), GradedVariable("s", 1)],
                                    trunc) for trunc in (2, 3, 4)}
    mixed_rings = {trunc: GradedRing([GradedVariable("p", 1), GradedVariable("q", 2)],
                                     trunc) for trunc in (2, 3, 4)}
    largest = {"tensor": 0, "sym": 0}
    for case in range(CASES):
        trunc = rng.randint(2, 4)
        mode = case % 3
        # modes 0 and 1: the power-sum tables against products over roots
        ring = root_rings[trunc] if mode < 2 else mixed_rings[trunc]
        if mode == 0:
            ra = rng.randint(1, 8)
            rb = rng.choice((rng.randint(1, TENSOR_RANK_LIMIT // ra),
                             TENSOR_RANK_LIMIT // ra))
            a, alpha = _root_bundle(ring, rng, ra)
            b, beta = _root_bundle(ring, rng, rb)
            want = _one_plus_product(
                ring, [(x + u, y + v) for x, y in alpha for u, v in beta])
            got = tensor(a, b)
            assert got.rank == ra * rb
            assert got.total_chern == want, f"case {case}: ranks {ra}, {rb}"
            largest["tensor"] = max(largest["tensor"], got.rank)
        elif mode == 1:
            k = rng.randint(1, 4)
            top = _max_sym_base_rank(k)
            r = rng.choice((rng.randint(1, top), top))
            e, alpha = _root_bundle(ring, rng, r)
            want = _one_plus_product(ring, [
                tuple(map(sum, zip(*combo)))
                for combo in itertools.combinations_with_replacement(alpha, k)])
            got = sym_power(e, k)
            assert got.rank == comb(r + k - 1, k)
            assert got.total_chern == want, f"case {case}: rank {r}, k {k}"
            largest["sym"] = max(largest["sym"], got.rank)
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
    assert largest == {"tensor": TENSOR_RANK_LIMIT, "sym": SYM_RANK_LIMIT}


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


# Minor size per bundled probe at which every minor's full elimination
# stays well under half a second.
STRUCTURAL_ZERO_SIZES = {
    "segre-1-1": 3, "segre-2-1": 4, "segre-2-2": 2, "segre-3-1": 2,
    "p1-cube": 7, "p1-fourth": 15, "p1-fifth": 1, "flag-threefold": 8,
    "cubic-scroll-times-p1": 9, "veronese": 4, "two-summand-plane-scroll": 8,
    "cubic-surface-scroll": 4, "bordiga": 2,
}


@pytest.mark.parametrize("name", sorted(BUNDLED_PROBES))
def test_structural_zero_minors_equal_full_bareiss(name):
    matrix = symbolic_jet_matrix(BUNDLED_PROBES[name].build())
    size = STRUCTURAL_ZERO_SIZES[name]
    keys = [(rows, cols)
            for rows in itertools.combinations(range(len(matrix)), size)
            for cols in itertools.combinations(range(len(matrix[0])), size)]
    minors = list(iter_minors(matrix, size))
    assert [key for key, _ in minors] == keys
    for (rows, cols), value in minors:
        full = _bareiss([[matrix[i][j] for j in cols] for i in rows])
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
