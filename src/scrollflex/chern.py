"""Truncated graded-ring arithmetic and splitting-principle bundle calculus.

A :class:`GradedClass` is a polynomial over exact rationals in named,
weighted variables, truncated above a fixed cohomological degree.  Variables
may carry a *sector* tag with its own degree cap; classes pulled back from a
lower-dimensional base use this to vanish above the base dimension.

There is one sparse-polynomial kernel, ``exactpoly.Poly``, and the grading
is a truncation policy on top of it: ``GradedClass`` subclasses ``Poly``
over the ring's names, keeps its arithmetic and coefficient contract (an
``int`` while integral), drops non-admitted terms on construction, and
multiplies by groups of equal grade so that it never forms a term above the
truncation or a sector cap.

:class:`FormalBundle` pairs a rank with a total Chern class of constant term
one.  Derived bundles (duals, twists by line classes, tensor products,
symmetric powers) follow the splitting principle.  Tensor products, twists
and symmetric powers are computed in the operand's own ring through power
sums of the formal Chern roots: Newton's identities turn the Chern classes
into power sums, the derived bundle's power sums are sums over its roots (a
convolution of the operands' for a tensor product, a recursion on Adams
operations for a symmetric power), and Newton's identities turn them back
into Chern classes.  Each operation estimates its work first and refuses
past WORK_LIMIT; the tests check the operations against direct products
over random integer roots.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb
from operator import add, le
from types import MappingProxyType
from typing import Mapping, Sequence

from ._record import Record, set_field
from .errors import InvalidInputError, ResourceLimitError, RingMismatchError
from .exactpoly import Poly, Scalar, _clean, as_scalar

# Largest estimated work (see ``check_work``) of a derived bundle or a class.
# Python 3.11 on a 2-vCPU x86-64 host does about 10^7 units a second, so
# this refuses what would run past half a minute.
WORK_LIMIT = 3 * 10 ** 8


class GradedVariable(Record):
    """A named generator with a positive cohomological weight."""

    __slots__ = ("name", "weight", "sector")

    def __init__(self, name: str, weight: int = 1, sector: str | None = None):
        if not name or not isinstance(name, str):
            raise InvalidInputError("variable name must be a nonempty string")
        if weight < 1:
            raise InvalidInputError(f"weight of {name} must be >= 1")
        set_field(self, "name", name)
        set_field(self, "weight", weight)
        set_field(self, "sector", sector)


class GradedRing:
    """An ordered tuple of graded variables with truncation data.

    Rings are shared between callers (the scroll layer caches them), so
    ``sector_caps`` is a read-only view and the hash is computed once.
    """

    __slots__ = ("variables", "names", "weights", "truncation", "sector_caps",
                 "limits", "_index", "_sector_idx", "_hash")

    def __init__(self, variables: Sequence[GradedVariable], truncation: int,
                 sector_caps: Mapping[str, int] | None = None):
        self.variables = tuple(variables)
        self.names = tuple(v.name for v in self.variables)
        if len(set(self.names)) != len(self.names):
            raise InvalidInputError("variable names must be unique in a ring")
        if truncation < 0:
            raise InvalidInputError("truncation must be non-negative")
        self.weights = tuple(v.weight for v in self.variables)
        self.truncation = truncation
        self.sector_caps = MappingProxyType(dict(sector_caps or {}))
        for sector in self.sector_caps:
            if not any(v.sector == sector for v in self.variables):
                raise InvalidInputError(f"sector cap for unused sector {sector!r}")
        self._index = {name: i for i, name in enumerate(self.names)}
        self._sector_idx = tuple(
            tuple(i for i, v in enumerate(self.variables) if v.sector == sector)
            for sector in self.sector_caps
        )
        # bounds on ``grade``: the truncation, then each sector cap
        self.limits = (truncation, *self.sector_caps.values())
        self._hash = hash((self.variables, self.truncation,
                           tuple(sorted(self.sector_caps.items()))))

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise InvalidInputError(f"ring has no variable {name!r}") from None

    def monomial_degree(self, exps: Sequence[int]) -> int:
        return sum(w * e for w, e in zip(self.weights, exps))

    def grade(self, exps: Sequence[int]) -> tuple[int, ...]:
        """Weighted degree of a monomial, then its degree in each capped sector."""
        degrees = [w * e for w, e in zip(self.weights, exps)]
        return (sum(degrees), *(sum(degrees[i] for i in idx) for idx in self._sector_idx))

    def admits(self, exps: Sequence[int]) -> bool:
        return all(map(le, self.grade(exps), self.limits))

    def monomial_string(self, exps: Sequence[int]) -> str:
        parts = []
        for name, e in zip(self.names, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    # -- constructors --------------------------------------------------

    def zero(self) -> "GradedClass":
        return _trusted(self, {})

    def one(self) -> "GradedClass":
        return self.scalar(1)

    def scalar(self, value: Scalar) -> "GradedClass":
        value = as_scalar(value)
        return _trusted(self, {tuple(0 for _ in self.names): value} if value else {})

    def variable(self, name: str) -> "GradedClass":
        i = self.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(self.names)))
        return GradedClass(self, {exps: 1})

    # -- identity ------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, GradedRing)
                and self.variables == other.variables
                and self.truncation == other.truncation
                and self.sector_caps == other.sector_caps)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"GradedRing({', '.join(self.names)}; trunc={self.truncation}"
                + (f"; caps={dict(self.sector_caps)}" if self.sector_caps else "") + ")")

    def descriptor(self) -> dict:
        return {
            "variables": [[v.name, v.weight, v.sector] for v in self.variables],
            "truncation": self.truncation,
            "sector_caps": dict(self.sector_caps),
        }

    @classmethod
    def from_descriptor(cls, payload: Mapping) -> "GradedRing":
        variables = [GradedVariable(n, w, s) for n, w, s in payload["variables"]]
        return cls(variables, payload["truncation"], payload.get("sector_caps") or None)


class GradedClass(Poly):
    """A truncated graded polynomial: a ``Poly`` over the ring's names.

    Sums, negation, powers, equality of terms, hashing and printing are
    ``Poly``'s, and so is the coefficient contract: a stored coefficient is
    an ``int`` while integral.  The grading adds a truncation policy: the
    constructor drops the terms the ring does not admit, and the product
    never forms them.
    """

    __slots__ = ("ring",)

    def __init__(self, ring: GradedRing, terms: Mapping[tuple[int, ...], Scalar]):
        super().__init__(ring.names, terms)
        self.ring = ring
        self.terms = {e: c for e, c in self.terms.items() if ring.admits(e)}

    # ``Poly`` members that would build classes without a ring
    def _refused(name: str, instead: str):
        def refuse(*args, **kwargs):
            raise InvalidInputError(
                f"GradedClass.{name} ignores the grading; use {instead}")
        refuse.__name__ = name
        return staticmethod(refuse)

    zero = _refused("zero", "GradedRing.zero()")
    const = _refused("const", "GradedRing.scalar(value)")
    variable = _refused("variable", "GradedRing.variable(name)")
    variables = _refused("variables", "GradedRing.variable(name)")
    subs = _refused("subs", "GradedClass.substitute(target, mapping) "
                            "with a GradedRing target")
    del _refused

    def _new(self, terms: dict) -> "GradedClass":
        return _trusted(self.ring, terms)

    def _scalar(self, value: Scalar) -> "GradedClass":
        return self.ring.scalar(value)

    def _print_key(self, exps: tuple[int, ...]):
        # ascending degree, then descending lex in the ring's variable order
        return (self.ring.monomial_degree(exps), tuple(-e for e in exps))

    # -- queries ---------------------------------------------------------

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self.terms.get(tuple(0 for _ in self.ring.names), 0))

    def homogeneous_part(self, d: int) -> "GradedClass":
        return self._new({
            e: c for e, c in self.terms.items()
            if self.ring.monomial_degree(e) == d
        })

    def graded_parts(self) -> dict[int, "GradedClass"]:
        parts: dict[int, dict] = {}
        for e, c in self.terms.items():
            parts.setdefault(self.ring.monomial_degree(e), {})[e] = c
        return {d: self._new(parts[d]) for d in sorted(parts)}

    def is_homogeneous(self, d: int) -> bool:
        return all(self.ring.monomial_degree(e) == d for e in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: Poly) -> None:
        ring = getattr(other, "ring", None)
        if ring is not self.ring and ring != self.ring:
            raise RingMismatchError(
                f"cannot mix classes from {self.ring!r} and "
                f"{ring if ring is not None else other.vars!r}"
            )

    def _groups(self) -> list:
        """Terms grouped by ``ring.grade`` of their monomials."""
        groups: dict[tuple[int, ...], list] = {}
        grade = self.ring.grade
        for e, c in self.terms.items():
            groups.setdefault(grade(e), []).append((e, c))
        return list(groups.items())

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._new(_clean({e: k * other for e, k in self.terms.items()}))
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        # grades add under products, so a pair of groups whose summed grade
        # passes a limit contributes only terms the ring does not admit
        limits = self.ring.limits
        out: dict[tuple[int, ...], Scalar] = {}
        get = out.get
        right = other._groups()
        for g1, left in self._groups():
            for g2, terms in right:
                if any(a + b > cap for a, b, cap in zip(g1, g2, limits)):
                    continue
                for e1, c1 in left:
                    for e2, c2 in terms:
                        exps = tuple(map(add, e1, e2))
                        out[exps] = get(exps, 0) + c1 * c2
        return self._new(_clean(out))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.scalar(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return (isinstance(other, GradedClass) and self.ring == other.ring
                and self.terms == other.terms)

    __hash__ = Poly.__hash__

    # -- series and structural operations -----------------------------------

    def series_inverse(self) -> "GradedClass":
        """Multiplicative inverse of a class with constant term one.

        Built degree by degree from the graded parts x_i of the class:
        inv_0 = 1 and inv_d = -(x_1 inv_{d-1} + ... + x_d inv_0).
        """
        if self.constant_term != 1:
            raise InvalidInputError(
                f"series inverse needs constant term 1, got {self.constant_term}"
            )
        parts = self.graded_parts()
        inv = [self.ring.one()]
        for d in range(1, self.ring.truncation + 1):
            total = self.ring.zero()
            for i in range(1, d + 1):
                if i in parts:
                    total = total + parts[i] * inv[d - i]
            inv.append(-total)
        return sum(inv[1:], inv[0])

    def alternate_signs(self) -> "GradedClass":
        """Negate every odd-degree graded piece (Chern classes of a dual)."""
        return self._new({
            e: (-c if self.ring.monomial_degree(e) % 2 else c)
            for e, c in self.terms.items()
        })

    def substitute(self, target: GradedRing,
                   mapping: Mapping[str, "GradedClass"]) -> "GradedClass":
        """Evaluate the class with each variable replaced by a target class.

        Every variable occurring in a term must be mapped; values must be
        homogeneous of the variable's weight (or zero).
        """
        values: dict[int, GradedClass] = {}
        for name, value in mapping.items():
            i = self.ring.index(name)
            if value.ring != target:
                raise RingMismatchError(
                    f"substitution value for {name!r} lives in the wrong ring"
                )
            if not value.is_zero() and not value.is_homogeneous(self.ring.weights[i]):
                raise InvalidInputError(
                    f"substitution for {name!r} must be homogeneous of degree "
                    f"{self.ring.weights[i]}"
                )
            values[i] = value
        out = target.zero()
        powers: dict[tuple[int, int], GradedClass] = {}
        for exps, c in self.terms.items():
            term = target.scalar(c)
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                if i not in values:
                    raise InvalidInputError(
                        f"no substitution supplied for {self.ring.names[i]!r}"
                    )
                key = (i, e)
                if key not in powers:
                    powers[key] = values[i] ** e
                term = term * powers[key]
                if term.is_zero():
                    break
            out = out + term
        return out

    # -- io ------------------------------------------------------------------

    def to_payload(self) -> dict:
        terms = sorted(self.terms.items(), key=lambda kv: self._print_key(kv[0]))
        return {
            "ring": self.ring.descriptor(),
            "terms": [[list(e), c.numerator, c.denominator] for e, c in terms],
        }

    @classmethod
    def from_payload(cls, payload: Mapping, ring: GradedRing | None = None) -> "GradedClass":
        found = GradedRing.from_descriptor(payload["ring"])
        if ring is not None and ring != found:
            raise RingMismatchError("payload ring does not match the expected ring")
        return cls(found, {
            tuple(e): Fraction(num, den) for e, num, den in payload["terms"]
        })



def _trusted(ring: GradedRing, terms: dict) -> GradedClass:
    """Wrap canonical, admitted terms without revalidating them."""
    out = object.__new__(GradedClass)
    out.vars = ring.names
    out.ring = ring
    out.terms = terms
    return out


class FormalBundle:
    """A rank together with a total Chern class of constant term one."""

    __slots__ = ("rank", "total_chern")

    def __init__(self, rank: int, total_chern: GradedClass):
        if not isinstance(rank, int) or rank < 0:
            raise InvalidInputError("bundle rank must be a non-negative integer")
        if total_chern.constant_term != 1:
            raise InvalidInputError("total Chern class must have constant term 1")
        self.rank = rank
        self.total_chern = total_chern

    @property
    def ring(self) -> GradedRing:
        return self.total_chern.ring

    def chern(self, i: int) -> GradedClass:
        return self.total_chern.homogeneous_part(i)

    def __eq__(self, other):
        return (isinstance(other, FormalBundle) and self.rank == other.rank
                and self.total_chern == other.total_chern)

    def __repr__(self):
        return f"FormalBundle(rank={self.rank}, c={self.total_chern})"


def trivial_bundle(ring: GradedRing, rank: int) -> FormalBundle:
    return FormalBundle(rank, ring.one())

def bundle_from_classes(rank: int, classes: Sequence[GradedClass]) -> FormalBundle:
    """Build a bundle from its positive-degree Chern classes c_1, c_2, ..."""
    if not classes:
        raise InvalidInputError("need at least c_1 (possibly zero)")
    ring = classes[0].ring
    total = ring.one()
    for i, cls in enumerate(classes, start=1):
        if not cls.is_zero() and not cls.is_homogeneous(i):
            raise InvalidInputError(f"c_{i} must be homogeneous of degree {i}")
        total = total + cls
    return FormalBundle(rank, total)


def dual(e: FormalBundle) -> FormalBundle:
    """Same rank, with c_i replaced by (-1)^i c_i."""
    return FormalBundle(e.rank, e.total_chern.alternate_signs())


def direct_sum(a: FormalBundle, b: FormalBundle) -> FormalBundle:
    """Whitney sum: ranks add, total Chern classes multiply."""
    return FormalBundle(a.rank + b.rank, a.total_chern * b.total_chern)


# -- derived bundles through power sums (Macdonald, Symmetric Functions, I.2)
# Each Newton conversion, convolution and Adams-recursion step is one pass
# of about (truncation + 1)^2 / 2 products of graded parts.


def admitted_monomials(ring: GradedRing) -> int:
    """How many monomials the ring admits, counted by grade one variable at
    a time (an unbounded knapsack over the truncation and sector caps)."""
    limits = [min(cap, ring.truncation) + 1 for cap in ring.limits]
    grades = sorted(product(*map(range, limits)))
    counts = dict.fromkeys(grades, 0)
    counts[grades[0]] = 1
    for v in ring.variables:
        step = (v.weight, *(v.weight if v.sector == s else 0 for s in ring.sector_caps))
        for grade in grades:  # each grade before the grades above it
            above = tuple(map(add, grade, step))
            if above in counts:
                counts[above] += counts[grade]
    return sum(counts.values())


def check_work(ring: GradedRing, steps: int, what: str) -> None:
    """Refuse, before any product, work past WORK_LIMIT: ``steps`` passes of
    (truncation + 1)^2 products over the ring's admitted monomials."""
    work = admitted_monomials(ring) * steps * (ring.truncation + 1) ** 2
    if work > WORK_LIMIT:
        raise ResourceLimitError(
            f"{what} needs an estimated {work} units of work, "
            f"over the limit {WORK_LIMIT}")


def sym_power_steps(k: int) -> int:
    """Passes of ``sym_power(e, k)``: Newton's identities both ways and the
    Adams recursion, whose order-i step sums i earlier orders."""
    return k * (k + 1) // 2 + 2


TENSOR_STEPS = 4  # two operands' power sums, their convolution, Newton back


def _power_sums(e: FormalBundle) -> list[GradedClass]:
    """p_0..p_trunc, p_0 = rank: p_d = sum_(i<d) (-1)^(i-1) c_i p_(d-i)
    + (-1)^(d-1) d c_d, with c_i = 0 past the rank."""
    ring = e.ring
    top = min(e.rank, ring.truncation)
    signed = [e.chern(i) * (-1) ** (i + 1) for i in range(top + 1)]
    p = [ring.scalar(e.rank)]
    for d in range(1, ring.truncation + 1):
        total = signed[d] * d if d <= top else ring.zero()
        for i in range(1, min(d - 1, top) + 1):
            total = total + signed[i] * p[d - i]
        p.append(total)
    return p


def _from_power_sums(p: Sequence[GradedClass]) -> GradedClass:
    """The total Chern class with power sums p: d c_d = sum_(i=1..d)
    (-1)^(i-1) c_(d-i) p_i."""
    ring = p[0].ring
    c = [ring.one()]
    for d in range(1, ring.truncation + 1):
        total = ring.zero()
        for i in range(1, d + 1):
            term = c[d - i] * p[i]
            total = total + term if i % 2 else total - term
        c.append(total * Fraction(1, d))
    return sum(c[1:], c[0])


def tensor(a: FormalBundle, b: FormalBundle) -> FormalBundle:
    """Tensor product: p_d = sum_t C(d, t) p_t(A) p_(d-t)(B)."""
    if a.ring != b.ring:
        raise RingMismatchError("tensor operands live in different rings")
    ring = a.ring
    check_work(ring, TENSOR_STEPS, f"a tensor product of ranks {a.rank} and {b.rank}")
    pa, pb = _power_sums(a), _power_sums(b)
    p = [sum((pa[t] * pb[d - t] * comb(d, t) for t in range(d + 1)), ring.zero())
         for d in range(ring.truncation + 1)]
    return FormalBundle(a.rank * b.rank, _from_power_sums(p))


def tensor_line(e: FormalBundle, line: GradedClass, sign: int) -> FormalBundle:
    """Twist by a line bundle with first Chern class ``sign * line``."""
    if sign not in (1, -1):
        raise InvalidInputError("sign must be +1 or -1")
    if not line.is_zero() and not line.is_homogeneous(1):
        raise InvalidInputError("line class must be homogeneous of degree 1")
    return tensor(e, FormalBundle(1, e.ring.one() + (line if sign == 1 else -line)))


def sym_power(e: FormalBundle, k: int) -> FormalBundle:
    """k-th symmetric power through Adams operations.

    In power-sum coordinates, ch(E) = sum_d p_d / d!, the Adams operation
    psi^j scales p_d by j^d and a product has (ab)_d = sum_t C(d, t) a_t
    b_(d-t).  The power sums of S^i E then follow from the Newton identity
    i ch(S^i E) = sum_{j=1..i} psi^j(ch E) ch(S^(i-j) E) (Macdonald,
    Symmetric Functions, I.2), with O(k truncation^2) products in all.
    """
    if not isinstance(k, int) or k < 0:
        raise InvalidInputError("symmetric power order must be a non-negative integer")
    if k == 0:
        return trivial_bundle(e.ring, 1)
    ring = e.ring
    check_work(ring, sym_power_steps(k), f"S^{k} of a rank-{e.rank} bundle")
    p = _power_sums(e)
    zero = ring.zero()
    # sym[i][d]: degree-d power sum of S^i E; S^0 E is the trivial line
    sym = [[ring.one()] + [zero] * ring.truncation]
    for i in range(1, k + 1):
        ps = []
        for d in range(ring.truncation + 1):
            total = zero
            for t in range(d + 1):
                # sum_j j^t p_(d-t)(S^(i-j) E): psi^j scales p_t by j^t
                weighted = zero
                for j in range(1, i + 1):
                    weighted = weighted + sym[i - j][d - t] * j ** t
                total = total + p[t] * weighted * comb(d, t)
            ps.append(total * Fraction(1, i))
        sym.append(ps)
    return FormalBundle(comb(e.rank + k - 1, k), _from_power_sums(sym[k]))
