"""Scroll-specific layer: rank bounds, degeneracy classes, pushforwards.

The ambient variety is X = P(V) -> Y with dim X = n, dim Y = m, fiber rank
r = n - m + 1, hyperplane class L, and osculation order k.  Classes on X
live in a graded ring with generators L, C_i (pullbacks of c_i(T_Y)) and
V_i (pullbacks of c_i(V)); pullback generators carry a sector cap at m, the
base dimension, since any pullback class vanishes above it.

Fiber integration uses Segre classes: pi_*(beta L^(r-1+i)) = beta s_i for
a class beta pulled back from Y, where s = 1 / c(V^dual) (Fulton,
Intersection Theory, 3.1).  The ``reduced`` form of a class that the
command line prints is its remainder by the monic tautological relation
sum_i (-1)^i V_i L^(r-i) = 0 (3.2), independent of the Segre route.
"""

from __future__ import annotations

import re
import warnings
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import add, itemgetter
from typing import Mapping, Sequence, Union

from .chern import (FormalBundle, GradedClass, GradedRing, GradedVariable,
                    _pass_work, _sym_powers, _trusted, _weighted_parts,
                    admitted_monomials, bundle_from_classes, check_work,
                    direct_sum, dual, sym_power, tensor, tensor_line,
                    trivial_bundle)
from ._record import Record, set_field
from .errors import (IncompleteDataError, InvalidInputError,
                     ResourceLimitError, is_integer, require_fields,
                     require_integer)
from .exactpoly import (Poly, Scalar, _as_univariate, _clean,
                        _from_univariate, _pseudo_rem, _substitute, as_scalar,
                        monomial_text)

BASE_SECTOR = "base"
# Entries kept per monomial-key cache of the pairing; a full ``verify`` run
# and a warm degree session each fill 14 exponent keys and 14 text keys.
TABLE_CACHE_SIZE = 256
# Largest rank report: orders listed by rank_breakdown, digits of max_rank.
MAX_RANK_ORDERS = 1000
MAX_RANK_DIGITS = 1000


def _check_dimensions(n: int, m: int) -> None:
    require_integer(m, "base dimension m must be an integer >= 1", 1)
    require_integer(n, "dimension n must be an integer >= m", m)


def _check_rank_arguments(n: int, m: int, k: int) -> None:
    _check_dimensions(n, m)
    require_integer(k, "osculation order k must be an integer >= 1", 1)


def max_rank(n: int, m: int, k: int) -> int:
    """Largest generic rank a k-th jet evaluation can have on an n-fold scroll."""
    _check_rank_arguments(n, m, k)
    return _jet_rank(n, m, k)


def _jet_rank(n: int, m: int, k: int) -> int:
    """``max_rank`` on arguments already checked, as a setup's are."""
    return (n - m) * comb(m + k - 1, k - 1) + comb(m + k, k)


def rank_breakdown(n: int, m: int, k: int) -> list[tuple[int, int]]:
    """Per-derivative-order contributions to max_rank: order h -> row count.

    Refuses more than MAX_RANK_ORDERS orders, and a rank of more than
    MAX_RANK_DIGITS digits, before computing any of them.
    """
    _check_rank_arguments(n, m, k)
    if k + 1 > MAX_RANK_ORDERS:
        raise ResourceLimitError(
            f"k={k} lists {k + 1} orders, over the limit {MAX_RANK_ORDERS}")
    # comb(a, b) >= max(2, a / b)^b as a >= 2b, and 2^(10 D / 3) > 10^D
    a, b = m + k, min(m, k)
    low_bits = max(b, b * (a.bit_length() - b.bit_length() - 1))
    if (3 * low_bits > 10 * MAX_RANK_DIGITS
            or _jet_rank(n, m, k) >= 10 ** MAX_RANK_DIGITS):
        raise ResourceLimitError(
            f"the rank for n={n}, m={m}, k={k} has over {MAX_RANK_DIGITS} "
            f"digits, over the limit")
    out = []
    for h in range(k + 1):
        base = comb(m - 1 + h, h)
        fiber = (n - m) * comb(m - 2 + h, h - 1) if h >= 1 else 0
        out.append((h, base + fiber))
    return out


class ScrollSetup(Record):
    """Discrete data of a scroll probe: dimensions, order and ambient space."""

    __slots__ = ("n", "m", "k", "N")

    def __init__(self, n: int, m: int, k: int, N: int):
        # every degree query builds a setup: exact ints in range pass in one
        # test, which implies each check below; those decide everything else
        if not (type(n) is type(m) is type(k) is type(N) is int
                and 1 <= m < n <= N and k >= 1):
            _check_rank_arguments(n, m, k)
            require_integer(n, "dimension n must be an integer above m", m + 1)
            require_integer(N, "ambient dimension N must be an integer >= n", n)
        set_field(self, "n", n)
        set_field(self, "m", m)
        set_field(self, "k", k)
        set_field(self, "N", N)

    @property
    def fiber_rank(self) -> int:
        return self.n - self.m + 1

    @property
    def max_jet_rank(self) -> int:
        return _jet_rank(self.n, self.m, self.k)

    @property
    def codim(self) -> int:
        return self.N + 2 - self.max_jet_rank

    @property
    def range_bounds(self) -> tuple[int, int]:
        rk = self.max_jet_rank
        return (rk - 1, rk + self.n - 2)

    @property
    def in_range(self) -> bool:
        lo, hi = self.range_bounds
        return lo <= self.N <= hi


class CodimResult(Record):
    """Expected codimension of the locus; ``in_range`` tells whether N lies in
    ``range_lo..range_hi``, where the class formula is asserted."""

    __slots__ = ("codim", "in_range", "range_lo", "range_hi")


def expected_codim(setup: ScrollSetup) -> CodimResult:
    lo, hi = setup.range_bounds
    return CodimResult(setup.codim, setup.in_range, lo, hi)


# -- rings and tautological bundles ----------------------------------------


RING_CACHE_SIZE = 64


@lru_cache(maxsize=RING_CACHE_SIZE, typed=True)
def scroll_ring(n: int, m: int) -> GradedRing:
    """Ring of classes on X: L, C_1..C_m, V_1..V_min(r, m); truncation n.

    Needs ``1 <= m <= n``, as ``max_rank`` does (``m = n`` is fiber rank 1).
    The cache keys by type as well, so ``True`` or ``1.0`` never hits the
    entry of ``1`` and is refused on its miss.
    """
    _check_dimensions(n, m)
    r = n - m + 1
    variables = [GradedVariable("L", 1)]
    variables += [GradedVariable(f"C{i}", i, BASE_SECTOR) for i in range(1, m + 1)]
    variables += [GradedVariable(f"V{i}", i, BASE_SECTOR)
                  for i in range(1, min(r, m) + 1)]
    return GradedRing(variables, n, {BASE_SECTOR: m})


@lru_cache(maxsize=RING_CACHE_SIZE)
def base_ring(m: int, r: int) -> GradedRing:
    """Ring of classes on Y: c_1..c_m, v_1..v_min(r, m); truncation m."""
    variables = [GradedVariable(f"c{i}", i) for i in range(1, m + 1)]
    variables += [GradedVariable(f"v{i}", i) for i in range(1, min(r, m) + 1)]
    return GradedRing(variables, m)


def tangent_bundle(ring: GradedRing, m: int) -> FormalBundle:
    """pi^* T_Y as a formal bundle on the scroll ring."""
    return bundle_from_classes(m, [ring.variable(f"C{i}") for i in range(1, m + 1)])


def tautological_subsheaf_bundle(ring: GradedRing, n: int, m: int) -> FormalBundle:
    """pi^* V, where V is the pushforward of the hyperplane bundle; its
    Chern classes above the base dimension m vanish."""
    classes = [ring.variable(f"V{i}") if f"V{i}" in ring.names else ring.zero()
               for i in range(1, min(n - m + 1, m) + 1)]
    return bundle_from_classes(n - m + 1, classes)


def hyperplane_class(ring: GradedRing) -> GradedClass:
    return ring.variable("L")


def total_chern_E_k(setup: ScrollSetup, ring: GradedRing | None = None) -> GradedClass:
    """Total Chern class of the rank-r_k quotient governing order-k osculation.

    E_k is the sum of S^(i-1)T_Y (x) dual(V) for i = 1..k and S^k T_Y twisted
    down by the hyperplane class.  Since the sum of S^i T_Y over i < k is
    S^(k-1)(T_Y + O) (Macdonald, Symmetric Functions, I.2), c(E_k) is the
    product of two derived bundles' classes, formed apart from ``_summands``.
    """
    ring = ring or scroll_ring(setup.n, setup.m)
    T = tangent_bundle(ring, setup.m)
    last = tensor_line(sym_power(T, setup.k), hyperplane_class(ring), -1)
    first = dual(tautological_subsheaf_bundle(ring, setup.n, setup.m))
    if setup.k > 1:
        first = tensor(sym_power(direct_sum(T, trivial_bundle(ring, 1)), setup.k - 1), first)
    return first.total_chern * last.total_chern


def _summands(ring: GradedRing, n: int, m: int, k: int) -> tuple[FormalBundle, FormalBundle]:
    """F = S^(k-1)(T_Y + O) (x) dual(V) and G = S^k T_Y, pulled back from Y,
    so that E_k = F + G (x) L^-1; ``ring`` need not have L.  One Adams
    recursion, metered first as the largest estimate, yields both powers."""
    last, lower = _sym_powers(tangent_bundle(ring, m), k)
    first = dual(tautological_subsheaf_bundle(ring, n, m))
    return (tensor(lower, first) if k > 1 else first), last


def inflection_class(setup: ScrollSetup, ring: GradedRing | None = None) -> GradedClass:
    """Degree-codim part of the inverse total Chern class, unreduced.

    The class has degree ``ell = setup.codim`` and is computed from classes
    pulled back from Y, with L entering only through binomial weights (see
    ``_class_terms``).  Its base parts Q_d are kept per (ring, n, m, k, ell)
    in a least-recently-used cache of CLASS_CACHE_SIZE (128) entries, and
    every call places each Q_d at L^(ell - d) of ``ring`` (the full scroll
    ring by default) in a fresh class.  The inverted summands the parts are
    weighted from depend on ell only through the truncation min(m, ell), so
    they are kept per truncation and (n, m, k) in a second cache of the
    same bound; each class computed still checks its work estimate first.

    Outside the asserted range the formal degree part is still returned;
    whether it means anything is the caller's concern (check ``in_range``).
    The standing hypotheses - maximal generic jet rank and expected
    codimension of the degeneracy locus - cannot be verified here.
    """
    ring = ring or scroll_ring(setup.n, setup.m)
    ell = setup.codim
    if ell < 0 or ell > ring.truncation:
        return ring.zero()
    li = ring.index("L")
    parts = _class_terms(ring, setup.n, setup.m, setup.k, ell)
    return _trusted(ring, {e[:li] + (ell - d,) + e[li:]: c
                           for d, part in enumerate(parts) for e, c in part})


CLASS_CACHE_SIZE = 128


@lru_cache(maxsize=CLASS_CACHE_SIZE)
def _class_terms(ring: GradedRing, n: int, m: int, k: int, ell: int) -> tuple:
    """Base parts Q_d of the degree-ell part sum_d L^(ell - d) Q_d of c(E_k)^-1.

    With E_k = F + G (x) L^-1 (see ``_summands``), g = rank G and s = c^-1,
    c(G (x) L^-1)^-1 = sum_j s_j(G) (1 - L)^-(g + j) (Fulton, Intersection
    Theory, Ex. 3.2.2), so Q_d = sum_j C(g + j + ell - d - 1, ell - d)
    s_(d-j)(F) s_j(G).  F and G are inverted in the variables of ``ring``
    other than L, truncated at top = min(m, ell), so no product has L; each
    Q_d is a tuple of (exponents over those variables, coeff).  Refused past
    ``chern.WORK_LIMIT`` by one pass's estimate first, then each operation's.
    """
    base = _base_of(ring, min(ring.sector_caps.get(BASE_SECTOR, ell), ell))
    check_work(_pass_work(base),
               f"the order-{k} class of n={n}, m={m} in codimension {ell}")
    s_first, s_last, g = _inverted_summands(base, n, m, k)
    parts = _weighted_parts(s_first, s_last,
                            lambda d, j: comb(g + j + ell - d - 1, ell - d))
    return tuple(tuple(part.items()) for part in parts)


@lru_cache(maxsize=RING_CACHE_SIZE)
def _base_of(ring: GradedRing, top: int) -> GradedRing:
    """The variables of ``ring`` other than L, truncated at ``top``."""
    li = ring.index("L")
    return GradedRing(ring.variables[:li] + ring.variables[li + 1:], top)


@lru_cache(maxsize=CLASS_CACHE_SIZE)
def _inverted_summands(base: GradedRing, n: int, m: int, k: int) -> tuple:
    """s(F), s(G) and rank G in ``base``, the summands of ``_summands``
    inverted once per truncation: only the weights of ``_class_terms``
    depend on the codimension.  Each operation meters its own work."""
    first, last = _summands(base, n, m, k)
    return (first.total_chern.series_inverse(), last.total_chern.series_inverse(),
            last.rank)


def _check_fiber_rank(r: int) -> None:
    require_integer(r, "fiber rank r must be an integer >= 1", 1)


def chern_wu_reduce(x: GradedClass, r: int) -> GradedClass:
    """The remainder of x, as a polynomial in L, by the monic relation
    sum_i (-1)^i V_i L^(r-i) = 0.

    Idempotent; the result has L-degree at most r - 1.  Coefficient products
    run in the ring of x, under its sector cap, and the relation is
    homogeneous, so every term put back on its L-power is admitted.  This
    gives the ``reduced`` form of a class; fiber integration does not need it.
    """
    _check_fiber_rank(r)
    ring = x.ring
    li = ring.index("L")
    relation = {r - i: ring.variable(f"V{i}") * (-1) ** i
                for i in range(1, r + 1) if f"V{i}" in ring.names}
    relation[r] = ring.scalar(1)
    return _from_univariate(_pseudo_rem(_as_univariate(x, li), relation), x, li)


def pushforward(x: GradedClass, r: int) -> GradedClass:
    """Fiber integration to Y through the Segre classes of V.

    pi_*(beta L^(r-1+i)) = beta s_i, with s = 1 / c(V^dual) (Fulton,
    Intersection Theory, 3.1); terms of L-degree below r - 1 integrate to
    zero, and C_i and V_i rename to their lowercase base counterparts.
    """
    _check_fiber_rank(r)
    ring = x.ring
    m = ring.sector_caps.get(BASE_SECTOR)
    if m is None:
        raise InvalidInputError("pushforward needs a scroll ring with a base sector")
    target = base_ring(m, r)
    li = ring.index("L")
    # each base variable reads its namesake's exponent, or a 0 appended last
    where = {target.index(name.lower()): src
             for src, name in enumerate(ring.names) if src != li}
    pick = itemgetter(*(where.get(j, -1) for j in range(len(target.names))))
    return _integrate(m, r, [(exps[li] - (r - 1), pick(exps + (0,)), coeff)
                             for exps, coeff in x.terms.items()])


# Largest Segre series, in estimated term products (each monomial times each
# v_i, as in ``series_inverse``), which also bound its memory.  The largest
# accepted, v_1, v_2 to degree 1412, takes 1.2 s, timed as ``chern.WORK_LIMIT``.
SEGRE_PRODUCT_LIMIT = 10 ** 6


@lru_cache(maxsize=RING_CACHE_SIZE)
def _segre_parts(m: int, r: int) -> tuple:
    """Terms of s_0..s_m, the graded parts of 1 / c(V^dual), V of rank r.

    The series involves only the s = min(r, m) generators v_i, so it is
    computed in their ring alone, truncated at the base dimension m, and
    split by degree in one pass.  Its coefficients are integers, and it is
    refused past SEGRE_PRODUCT_LIMIT before any product.
    """
    s = min(r, m)
    ring = GradedRing([GradedVariable(f"v{i}", i) for i in range(1, s + 1)], m)
    products = s * admitted_monomials(ring, SEGRE_PRODUCT_LIMIT // s)
    if products > SEGRE_PRODUCT_LIMIT:
        raise ResourceLimitError(
            f"the Segre series of V in {s} Chern classes up to degree {m} "
            f"needs an estimated {products} or more term products, over the limit "
            f"{SEGRE_PRODUCT_LIMIT}")
    v = bundle_from_classes(s, [ring.variable(f"v{i}") for i in range(1, s + 1)])
    parts: list = [[] for _ in range(m + 1)]
    for exps, c in dual(v).total_chern.series_inverse().terms.items():
        parts[ring.monomial_degree(exps)].append((exps, c))
    return tuple(map(tuple, parts))


def _integrate(m: int, r: int, items) -> GradedClass:
    """pi_* of the terms coeff * beta * L^(r-1+i), that is the sum of
    coeff * beta * s_i, over the items (i, exponents of beta in
    ``base_ring(m, r)``, coeff); an i outside 0..m gives zero."""
    target = base_ring(m, r)
    segre = _segre_parts(m, r)
    out: dict[tuple[int, ...], Scalar] = {}
    for i, exps, coeff in items:
        if not 0 <= i < len(segre):
            continue
        # the v_j sit last in the base ring, where the series' tuples add
        head, tail = exps[:m], exps[m:]
        for s_exps, s_coeff in segre[i]:
            key = head + tuple(map(add, tail, s_exps))
            out[key] = out.get(key, 0) + coeff * s_coeff
    return _trusted(target, _clean({e: c for e, c in out.items() if target.admits(e)}))


def graded_to_poly(cls: GradedClass, vars: Sequence[str] | None = None) -> Poly:
    """Forget the grading: the class as a polynomial over ``vars`` (the ring
    names by default), each ring variable read as the same-named one."""
    names = tuple(vars) if vars is not None else cls.ring.names
    return _substitute(cls.terms, lambda i: Poly.variable(names, cls.ring.names[i]),
                       Poly.zero(names))


# -- numerical and symbolic base data ---------------------------------------


def _monomial_factors(key: str) -> dict[str, int]:
    """Exponents of a base monomial such as ``c1^2*v1``, empty for ``1``; a
    factor is c_i or v_i (i >= 1, no leading zero) with an optional power."""
    if not isinstance(key, str):
        raise InvalidInputError(f"bad base monomial {key!r}")
    factors: dict[str, int] = {}
    if key.strip() == "1":
        return factors
    for factor in key.split("*"):
        match = re.fullmatch(r"([cv][1-9][0-9]*)(?:\^([0-9]+))?", factor.strip())
        if match is None:
            raise InvalidInputError(f"bad base monomial {key!r}")
        name, power = match.groups()
        factors[name] = factors.get(name, 0) + (int(power) if power else 1)
    return factors


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _monomial_key(ring: GradedRing, exps: tuple[int, ...]) -> str:
    """The canonical base-monomial key of a term of ``ring``."""
    return canonical_monomial(monomial_text(ring.names, exps))


def canonical_monomial(key: str) -> str:
    return _canonical_key(key)[0]


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _canonical_key(key: str) -> tuple[str, int]:
    """A base monomial's canonical form and its weight, parsed once per key."""
    factors = _monomial_factors(key)
    names = sorted(factors, key=lambda s: (s[0], int(s[1:])))
    weight = sum(int(name[1:]) * e for name, e in factors.items())
    return monomial_text(names, [factors[name] for name in names]), weight


def _canonical_table(assignments: Mapping) -> dict:
    """A symbolic table keyed by canonical base-monomial spellings.  Two
    spellings of one monomial with different values are refused as in
    ``NumericalBaseData``, whose own loop also checks weights and values;
    a key that is not a base monomial is left out, as no pairing reads it."""
    clean, source = {}, {}
    for key, value in assignments.items():
        try:
            ck = _canonical_key(key)[0]
        except InvalidInputError:
            continue
        first = source.setdefault(ck, key)
        if clean.setdefault(ck, value) != value:
            raise InvalidInputError(
                f"keys {first!r} and {key!r} both name {ck} with different values")
    return clean


class NumericalBaseData(Record):
    """Intersection numbers of Y paired against weight-m monomials.

    ``assignments`` maps canonical monomial strings in c_i = c_i(T_Y) and
    v_i = c_i(V) to integers.
    """

    __slots__ = ("dimension", "assignments")

    def __init__(self, dimension: int, assignments: Mapping[str, int]):
        require_integer(dimension, "dimension must be an integer")
        if not isinstance(assignments, Mapping):
            raise InvalidInputError("assignments must map monomials to integers")
        clean, source = {}, {}
        for key, value in assignments.items():
            ck, weight = _canonical_key(key)
            if weight != dimension:
                raise InvalidInputError(
                    f"monomial {key!r} does not have weight {dimension}"
                )
            if not is_integer(value):
                raise InvalidInputError(f"value for {key!r} must be an integer")
            first = source.setdefault(ck, key)
            if clean.setdefault(ck, value) != value:
                raise InvalidInputError(
                    f"keys {first!r} and {key!r} both name {ck} with different values")
        set_field(self, "dimension", dimension)
        set_field(self, "assignments", clean)

    def evaluate(self, cls: GradedClass) -> Fraction:
        """Pair a degree-m class on Y against the stored numbers."""
        total = 0
        missing = []
        for exps, coeff in cls.terms.items():
            key = _monomial_key(cls.ring, exps)
            if key not in self.assignments:
                missing.append(key)
                continue
            total += coeff * self.assignments[key]
        if missing:
            raise IncompleteDataError(missing)
        return Fraction(total)

    def to_payload(self) -> dict:
        return {"dimension": self.dimension, "assignments": dict(self.assignments)}

    @classmethod
    def from_payload(cls, payload: Mapping) -> "NumericalBaseData":
        require_fields(payload, ("dimension", "assignments"), "base data")
        return cls(payload["dimension"], payload["assignments"])


def evaluate_symbolic(cls: GradedClass,
                      assignments: Mapping[str, Union[Poly, Scalar]],
                      vars: Sequence[str]) -> Poly:
    """Pair a degree-m class against symbolic intersection values; a table
    that misses a key is read again by canonical spellings."""
    vars = tuple(vars)
    total = Poly.zero(vars)  # checks the names
    one = tuple(0 for _ in vars)
    out: dict[tuple[int, ...], Scalar] = {}
    get = out.get
    missing = []
    for exps, coeff in cls.terms.items():
        key = _monomial_key(cls.ring, exps)
        if key not in assignments:
            missing.append(key)
            continue
        value = assignments[key]
        if not isinstance(value, Poly):
            out[one] = get(one, 0) + as_scalar(value) * coeff
            continue
        if value._space() != vars:
            raise InvalidInputError(f"assignment for {key!r} uses foreign variables")
        for e, c in value.terms.items():
            out[e] = get(e, 0) + c * coeff
    if missing:
        canonical = _canonical_table(assignments)
        if canonical.keys() & missing:
            return evaluate_symbolic(cls, canonical, vars)
        raise IncompleteDataError(missing)
    return total._new(_clean(out))


class DegreeResult(Record):
    """The degree ``value`` of the locus, ``symbolic`` the degree-m class on Y
    before pairing, and whether the formula is ``asserted`` for the setup."""

    __slots__ = ("value", "symbolic", "setup", "asserted")


def degree_class(setup: ScrollSetup) -> GradedClass:
    """pi_* of the degeneracy class dotted with L^(n - codim), on Y.

    The class is sum_d L^(ell - d) Q_d (see ``_class_terms``), so the dotted
    class integrates to sum_d Q_d s_(m-d): the cached base parts meet the
    Segre classes of V directly, and no power of L is formed.
    """
    target = base_ring(setup.m, setup.fiber_rank)
    ell = setup.codim
    # the dotted class has degree n, so it vanishes past the scroll ring's top
    if not 0 <= ell <= setup.n:
        return target.zero()
    return _trusted(target, dict(_degree_terms(setup.n, setup.m, setup.k, ell)))


@lru_cache(maxsize=CLASS_CACHE_SIZE)
def _degree_terms(n: int, m: int, k: int, ell: int) -> tuple:
    """Terms of ``degree_class`` in the base ring, integrated once per class."""
    r = n - m + 1
    _segre_parts(m, r)  # refuses an oversized series before the class
    # Q_d lists the C_i then the V_i, as the base ring lists the c_i, v_i
    parts = _class_terms(scroll_ring(n, m), n, m, k, ell)
    return tuple(_integrate(m, r, ((m - d, exps, c) for d, part in enumerate(parts)
                                   for exps, c in part)).terms.items())


def degree_of_inflection(setup: ScrollSetup, data: NumericalBaseData) -> DegreeResult:
    """Count (or degree) of the order-k degeneracy locus against base data."""
    if data.dimension != setup.m:
        raise InvalidInputError(
            f"data dimension {data.dimension} does not match m={setup.m}"
        )
    symbolic = degree_class(setup)
    value = data.evaluate(symbolic)
    if value.denominator != 1:
        raise InvalidInputError(f"degree evaluated to a non-integer {value}")
    d = data.evaluate(_scroll_degree(setup.n, setup.m))
    if d <= 0:
        warnings.warn(f"base data gives non-positive scroll degree d={d}",
                      stacklevel=2)
    return DegreeResult(int(value), symbolic, setup, setup.in_range)


@lru_cache(maxsize=RING_CACHE_SIZE)
def _scroll_degree(n: int, m: int) -> GradedClass:
    """The scroll degree pi_*(L^n), the top Segre class s_m, on the base."""
    r = n - m + 1
    return _integrate(m, r, [(m, (0,) * len(base_ring(m, r).names), 1)])


def symbolic_degree(setup: ScrollSetup,
                    assignments: Mapping[str, Union[Poly, Scalar]],
                    vars: Sequence[str]) -> Poly:
    """The degree as a polynomial in symbolic intersection numbers."""
    return evaluate_symbolic(degree_class(setup), assignments, vars)


# -- bundled base presets ----------------------------------------------------


# Base families of the integer-point scans (``scans.build_problem``), defined
# here so that the command line can list them without importing the scans.
SCAN_FAMILIES = ("P2_N10", "P2_N9", "Fe", "ProductsBxP1", "P3", "Q3")


class BasePreset(Record):
    """A base surface/threefold with its intersection lattice filled in.

    ``slots`` are the free symbolic parameters, explained by ``legend``;
    ``_table`` maps the slot values, in slot order, to the monomial table,
    each entry a number or a ``Poly`` in them.
    """

    __slots__ = ("name", "dimension", "slots", "legend", "_table")

    def assignments(self, **values) -> dict[str, Poly]:
        """Monomial table over the still-free slots; bound slots become numbers.

        The table over all the slots is built once per preset, in a bounded
        cache; every call returns a fresh dict.
        """
        if not values:
            return dict(_preset_table(self))
        return self._polys(values)

    def numerical(self, **values) -> NumericalBaseData:
        missing = [s for s in self.slots if s not in values]
        if missing:
            raise InvalidInputError(f"preset {self.name} needs values for {missing}")
        ints = {}
        for key, value in self._table(*self._scalars(values).values()).items():
            c = as_scalar(value)
            if type(c) is not int:  # integral rationals are stored as ints
                raise InvalidInputError(f"{key} evaluated to non-integer {c}")
            ints[key] = c
        return NumericalBaseData(self.dimension, ints)

    def _scalars(self, values: Mapping[str, Scalar]) -> dict[str, Scalar]:
        """The bound slots' values as exact rationals, in slot order."""
        unknown = set(values) - set(self.slots)
        if unknown:
            raise InvalidInputError(f"unknown preset parameters {sorted(unknown)}")
        return {name: as_scalar(values[name]) for name in self.slots if name in values}

    def _polys(self, values: Mapping[str, Scalar]) -> dict[str, Poly]:
        """The table at ``values``, over the slots they leave free."""
        bound = self._scalars(values)
        free = tuple(name for name in self.slots if name not in bound)
        symbols = iter(Poly.variables(free))
        table = self._table(*(bound[name] if name in bound else next(symbols)
                              for name in self.slots))
        return {key: v if isinstance(v, Poly) else Poly.const(free, v)
                for key, v in table.items()}


@lru_cache(maxsize=RING_CACHE_SIZE)
def _preset_table(preset: BasePreset) -> tuple:
    """(key, Poly over every slot) pairs of a preset's monomial table."""
    return tuple(preset._polys({}).items())


BASE_PRESETS: dict[str, BasePreset] = {
    "p2": BasePreset(
        "p2", 2, ("v", "y"), "v = c1(V).h on the plane, y = c2(V)",
        lambda v, y: {"c1^2": 9, "c2": 3, "c1*v1": v * 3, "v1^2": v * v, "v2": y}),
    "abelian-surface": BasePreset(
        "abelian-surface", 2, ("d", "g2"), "d = scroll degree, g2 = 2g-2",
        lambda d, g2: {"c1^2": 0, "c2": 0, "c1*v1": 0, "v1^2": g2, "v2": g2 - d}),
    "k3": BasePreset(
        "k3", 2, ("d", "g2"), "d = scroll degree, g2 = 2g-2",
        lambda d, g2: {"c1^2": 0, "c2": 24, "c1*v1": 0, "v1^2": g2, "v2": g2 - d}),
    "fe": BasePreset(
        "fe", 2, ("a", "b", "e", "v2"),
        "det V = a s + b f on the Hirzebruch surface F_e, v2 = c2(V)",
        lambda a, b, e, v2: {"c1^2": 8, "c2": 4, "c1*v1": a * 2 + b * 2 - a * e,
                             "v1^2": a * (b * 2 - a * e), "v2": v2}),
    "bxp1": BasePreset(
        "bxp1", 2, ("a", "b", "q", "v2"),
        "det V = a s + b f on B x P1, q = genus of B, v2 = c2(V)",
        lambda a, b, q, v2: {"c1^2": (1 - q) * 8, "c2": (1 - q) * 4,
                             "c1*v1": b * 2 - (q * 2 - 2) * a, "v1^2": a * b * 2,
                             "v2": v2}),
    "p3": BasePreset(
        "p3", 3, ("x", "y"), "v1 = x h, v2 = y h^2 on projective 3-space",
        lambda x, y: {"c1^3": 64, "c1*c2": 24, "c3": 4, "c1^2*v1": x * 16,
                      "c2*v1": x * 6, "c1*v1^2": x * x * 4, "c1*v2": y * 4,
                      "v1^3": x ** 3, "v1*v2": x * y}),
    # hyperplane h with h^3 = 2; v1 = x h, v2 = y (h^2 / 2)
    "q3": BasePreset(
        "q3", 3, ("x", "y"),
        "v1 = x h, v2 = y (h^2/2) on the smooth quadric threefold",
        lambda x, y: {"c1^3": 54, "c1*c2": 24, "c3": 4, "c1^2*v1": x * 18,
                      "c2*v1": x * 8, "c1*v1^2": x * x * 6, "c1*v2": y * 3,
                      "v1^3": x ** 3 * 2, "v1*v2": x * y}),
    "abelian-threefold": BasePreset(
        "abelian-threefold", 3, ("v111", "v12", "v3"),
        "v111 = v1^3, v12 = v1 v2, v3 = c3(V)",
        lambda v111, v12, v3: {"c1^3": 0, "c1*c2": 0, "c3": 0, "c1^2*v1": 0,
                               "c2*v1": 0, "c1*v1^2": 0, "c1*v2": 0,
                               "v1^3": v111, "v1*v2": v12, "v3": v3}),
}
