"""Truncated graded-ring arithmetic and splitting-principle bundle calculus.

A :class:`GradedClass` is a polynomial over exact rationals in named,
weighted variables, truncated above a fixed cohomological degree.  Variables
may carry a *sector* tag with its own degree cap; classes pulled back from a
lower-dimensional base use this to vanish above the base dimension.

``GradedClass`` subclasses ``exactpoly.Poly`` over the ring's names and
overrides none of its operators, equality or hashing, only its hooks (the
ring is the ``_space``, and ``RingMismatchError`` the ``_mismatch``); the
grading drops non-admitted terms on construction, and ``substitute`` checks
its values (a number is a constant class) with ``_check``.  Its ``_product`` (so
powers), the series inverse and the bundle calculus below run on classes
packed into grade groups (see ``GradedRing``): a pair of groups whose
summed grade passes the truncation or a sector cap is skipped whole, and
every other pair goes to ``exactpoly``'s shared product loop.

:class:`FormalBundle` pairs a rank with a total Chern class of constant term
one.  Derived bundles (duals, twists by line classes, tensor products,
symmetric powers) follow the splitting principle.  Tensor products, twists
and symmetric powers are computed in the operand's own ring through power
sums of the formal Chern roots: Newton's identities turn the Chern classes
into power sums, the derived bundle's power sums are sums over its roots (a
convolution of the operands' for a tensor product, a recursion on Adams
operations for a symmetric power), and Newton's identities turn them back
into Chern classes.  A derived bundle keeps the power sums it was built
from and turns them into its total Chern class only on first access, so a
symmetric power fed to a tensor product or a twist makes no round trip
through Chern classes.  Each operation meters itself before its first
product; the tests check the operations against direct products over random
integer roots.  ``scroll`` forms its class from two inverses in a ring
without L, as binomially weighted degree parts (``_weighted_parts``), of
summands whose S^k E and S^(k-1)(E + O) share one recursion (``_sym_powers``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb
from operator import add, mul
from types import MappingProxyType
from typing import Mapping, Sequence

from ._record import Record, set_field
from .errors import (InvalidInputError, ResourceLimitError, RingMismatchError,
                     require_fields, require_integer)
from .exactpoly import (Poly, Scalar, _canon, _clean, _field_layout, _mul_acc,
                        _pack_key, _substitute, _unpack_terms)

# Largest estimated work (see ``check_work``) of a derived bundle or a class,
# in term operations.  In-process on a 2-vCPU Linux VM (Python 3.11.7) they
# run at about 3 * 10^6 a second at the top of the range and 5 * 10^5 at
# truncation 1, and the largest classes accepted are (22,21,2) at the top of
# the range (1.3 s) and (4,2,624999) at codimension 1 (11 s).
WORK_LIMIT = 15 * 10 ** 6


class GradedVariable(Record):
    """A named generator with a positive cohomological weight."""

    __slots__ = ("name", "weight", "sector")

    def __init__(self, name: str, weight: int = 1, sector: str | None = None):
        if not name or not isinstance(name, str):
            raise InvalidInputError("variable name must be a nonempty string")
        require_integer(weight, f"weight of {name} must be an integer >= 1", 1)
        set_field(self, "name", name)
        set_field(self, "weight", weight)
        set_field(self, "sector", sector)


class GradedRing:
    """An ordered tuple of graded variables with truncation data.

    Rings are shared between callers (the scroll layer caches them), so
    ``sector_caps`` is a read-only view and the hash is computed once.

    The ring also fixes the packed layout.  Monomial keys are
    ``exactpoly``'s, with fields of w = max(1, truncation bit length) bits,
    so the first variable (``L`` on a scroll) sits in the low field.
    A grade holds each capped sector's degree in a w-bit field, in the order
    of ``sector_caps``, and the total degree above them.  Keys and grades
    add under products; an admitted product keeps every field at most the
    truncation, so no field carries into the next.
    """

    __slots__ = ("variables", "names", "weights", "truncation", "sector_caps",
                 "limits", "_index", "_hash", "_mask", "_shifts",
                 "_grade_steps", "_fields", "_top", "_admitted", "_pairs",
                 "_degree_counts", "_admitted_grades")

    def __init__(self, variables: Sequence[GradedVariable], truncation: int,
                 sector_caps: Mapping[str, int] | None = None):
        self.variables = tuple(variables)
        self.names = tuple(v.name for v in self.variables)
        if len(set(self.names)) != len(self.names):
            raise InvalidInputError("variable names must be unique in a ring")
        require_integer(truncation, "truncation must be a non-negative integer", 0)
        self.weights = tuple(v.weight for v in self.variables)
        self.truncation = truncation
        self.sector_caps = MappingProxyType(dict(sector_caps or {}))
        for sector, cap in self.sector_caps.items():
            if not any(v.sector == sector for v in self.variables):
                raise InvalidInputError(f"sector cap for unused sector {sector!r}")
            require_integer(cap, f"cap of sector {sector!r} must be a "
                                 "non-negative integer", 0)
        self._index = {name: i for i, name in enumerate(self.names)}
        # the truncation, then each sector cap
        self.limits = (truncation, *self.sector_caps.values())
        w = max(1, truncation.bit_length())
        self._shifts, self._mask = _field_layout(len(self.names), w)
        self._top = top = w * len(self.sector_caps)
        self._grade_steps = tuple(
            (v.weight << top) + sum(v.weight << (w * j) for j, sector
                                    in enumerate(self.sector_caps) if v.sector == sector)
            for v in self.variables)
        self._fields = tuple((w * j, cap) for j, cap in enumerate(self.sector_caps.values()))
        self._hash = hash((self.variables, self.truncation,
                           tuple(sorted(self.sector_caps.items()))))
        self._admitted = self._pairs = self._degree_counts = None  # admitted_monomials
        self._admitted_grades: dict[int, bool] = {}  # filled by ``_mul_into``

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise InvalidInputError(f"ring has no variable {name!r}") from None

    def monomial_degree(self, exps: Sequence[int]) -> int:
        return sum(map(mul, self.weights, exps))

    def admits(self, exps: Sequence[int]) -> bool:
        return self._admits_grade(sum(map(mul, self._grade_steps, exps)))

    def _admits_grade(self, grade: int) -> bool:
        # a sector field past w bits means a total degree past the truncation
        if grade >> self._top > self.truncation:
            return False
        return all(grade >> shift & self._mask <= cap for shift, cap in self._fields)

    # -- constructors --------------------------------------------------

    def zero(self) -> "GradedClass":
        return _trusted(self, {})

    def one(self) -> "GradedClass":
        return self.scalar(1)

    def scalar(self, value: Scalar) -> "GradedClass":
        return self.zero()._scalar(value)

    def variable(self, name: str) -> "GradedClass":
        i = self.index(name)
        if not self._admits_grade(self._grade_steps[i]):
            return self.zero()
        exps = (0,) * i + (1,) + (0,) * (len(self.names) - i - 1)
        return _trusted(self, {exps: 1})

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
        require_fields(payload, ("variables", "truncation"), "ring descriptor")
        entries = payload["variables"]
        if not (isinstance(entries, list)
                and all(isinstance(v, list) and len(v) == 3
                        and (v[2] is None or isinstance(v[2], str)) for v in entries)):
            raise InvalidInputError("ring variables must be [name, weight, sector] lists")
        caps = payload.get("sector_caps") or None
        if caps is not None and not isinstance(caps, dict):
            raise InvalidInputError("sector caps must be a JSON object")
        return cls([GradedVariable(*v) for v in entries], payload["truncation"], caps)


class GradedClass(Poly):
    """A truncated graded polynomial: a ``Poly`` over the ring's names.

    Operators, equality, hashing, printing and the coefficient contract (an
    ``int`` while integral) are ``Poly``'s; the class sets the hooks ``_new``,
    ``_print_key``, ``_product``, ``_space`` (its ring) and ``_mismatch``
    (``RingMismatchError``).  The constructor drops the terms the ring does
    not admit, and ``_product``, over packed grade groups, never forms them.
    ``substitute`` checks its values (a number is a constant class) with ``_check``.
    """

    __slots__ = ("ring",)
    _mismatch = RingMismatchError

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

    def _print_key(self, exps: tuple[int, ...]):
        # ascending degree, then descending lex in the ring's variable order
        return (self.ring.monomial_degree(exps), tuple(-e for e in exps))

    # -- queries ---------------------------------------------------------

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self.terms.get(tuple(0 for _ in self.ring.names), 0))

    def is_homogeneous(self, d: int) -> bool:
        return all(self.ring.monomial_degree(e) == d for e in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _product(self, other: "GradedClass") -> dict:
        ring = self.ring
        out: dict = {}
        _mul_into(ring, out, _pack(ring, self.terms), _pack(ring, other.terms))
        return _unpack(ring, [out])

    def _space(self) -> GradedRing:
        return self.ring

    # Poly's operator, bound here too: the benchmark's tracer
    # (perfbench/spans.py) wraps vars(GradedClass)["__mul__"] under every
    # name that holds it, which times graded products apart from plain ones.
    __mul__ = __rmul__ = Poly.__mul__

    # -- series and structural operations -----------------------------------

    def series_inverse(self) -> "GradedClass":
        """Multiplicative inverse of a class with constant term one.

        Built degree by degree from the packed graded parts x_i of the
        class: inv_0 = 1 and inv_d = -(x_1 inv_{d-1} + ... + x_d inv_0).
        """
        if self.constant_term != 1:
            raise InvalidInputError(
                f"series inverse needs constant term 1, got {self.constant_term}"
            )
        ring = self.ring
        parts = _parts(ring, self.terms)
        del parts[max(i for i, part in enumerate(parts) if part) + 1:]
        inv = [parts[0]]
        for d in range(1, ring.truncation + 1):
            inv.append(_convolve(ring, parts, inv, d, lambda d, i: -1, 1))
        return self._new(_unpack(ring, inv))

    def substitute(self, target: GradedRing,
                   mapping: Mapping[str, "GradedClass | Scalar"]) -> "GradedClass":
        """Evaluate the class with each variable replaced by a target class.

        Every variable in a term must be mapped to a number or to a class that
        passes ``_check`` against ``target``, homogeneous of its weight or zero.
        """
        zero = target.zero()
        values: dict[int, GradedClass] = {}
        for name, value in mapping.items():
            i = self.ring.index(name)
            if not isinstance(value, Poly):
                value = target.scalar(value)
            zero._check(value)
            if not value.is_zero() and not value.is_homogeneous(self.ring.weights[i]):
                raise InvalidInputError(
                    f"substitution for {name!r} must be homogeneous of degree "
                    f"{self.ring.weights[i]}"
                )
            values[i] = value

        def value(i: int) -> GradedClass:
            if i not in values:
                raise InvalidInputError(
                    f"no substitution supplied for {self.ring.names[i]!r}"
                )
            return values[i]

        return _substitute(self.terms, value, zero)

    # -- io ------------------------------------------------------------------

    def to_payload(self) -> dict:
        terms = sorted(self.terms.items(), key=lambda kv: self._print_key(kv[0]))
        return {
            "ring": self.ring.descriptor(),
            "terms": [[list(e), c.numerator, c.denominator] for e, c in terms],
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "GradedClass":
        require_fields(payload, ("ring", "terms"), "class payload")
        ring = GradedRing.from_descriptor(payload["ring"])
        terms = payload["terms"]
        # JSON's unhashable values are lists and objects
        if not (isinstance(terms, list)
                and all(isinstance(t, list) and len(t) == 3 and isinstance(t[0], list)
                        and not any(isinstance(e, (list, dict)) for e in t[0])
                        for t in terms)):
            raise InvalidInputError(
                "class terms must be [exponents, numerator, denominator] lists")
        for _, num, den in terms:
            require_integer(num, "class term numerators must be integers")
            require_integer(den, "class term denominators must be integers >= 1", 1)
        return cls(ring, {tuple(e): Fraction(num, den) for e, num, den in terms})



def _trusted(ring: GradedRing, terms: dict) -> GradedClass:
    """Wrap canonical, admitted terms without revalidating them."""
    out = object.__new__(GradedClass)
    out.vars = ring.names
    out.ring = ring
    out.terms = terms
    return out


# -- packed classes -----------------------------------------------------------
# A packed class maps a grade to a dict from monomial key to coefficient, in
# the ring's layout (see ``GradedRing``); coefficients follow the ``Poly``
# contract once tidied.  Grades add under products, so a product visits
# pairs of grade groups and skips a pair whose summed grade the ring does
# not admit without looking at its terms.


def _pack(ring: GradedRing, terms: Mapping) -> dict:
    """Tuple-keyed terms as a packed class, coefficients as they are."""
    shifts, grades = ring._shifts, ring._grade_steps
    out: dict = {}
    for exps, c in terms.items():
        out.setdefault(sum(map(mul, grades, exps)), {})[_pack_key(exps, shifts)] = c
    return out


def _parts(ring: GradedRing, terms: Mapping) -> list:
    """The packed homogeneous parts of degree 0..truncation."""
    parts: list = [{} for _ in range(ring.truncation + 1)]
    for g, group in _pack(ring, terms).items():
        parts[g >> ring._top][g] = group
    return parts


def _unpack(ring: GradedRing, packed: Sequence[dict]) -> dict:
    """Tuple-keyed canonical terms of packed classes with disjoint grades."""
    out = {}
    for part in packed:
        for group in part.values():
            out.update(_unpack_terms(group.items(), ring._shifts, ring._mask))
    return out


def _tidy(x: dict) -> dict:
    """Drop zero coefficients and empty groups; store the rest canonically."""
    out = {}
    for g, group in x.items():
        group = _clean(group)
        if group:
            out[g] = group
    return out


def _constant(value: Scalar) -> dict:
    return {0: {0: value}} if value else {}


def _add_into(scaled: Sequence[tuple[dict, Scalar]]) -> dict:
    """The tidied packed sum of scale * x over the (x, scale) pairs."""
    out: dict = {}
    for x, scale in scaled:
        for g, group in x.items():
            acc = out.setdefault(g, {})
            get = acc.get
            for k, c in group.items():
                acc[k] = get(k, 0) + c * scale
    return _tidy(out)


def _mul_into(ring: GradedRing, out: dict, x: dict, y: dict, scale: Scalar = 1) -> None:
    """out += scale * x * y, forming only the terms the ring admits."""
    admitted = ring._admitted_grades
    for g1, left in x.items():
        for g2, right in y.items():
            g = g1 + g2
            ok = admitted.get(g)
            if ok is None:
                ok = admitted[g] = ring._admits_grade(g)
            if not ok:
                continue
            _mul_acc(out.setdefault(g, {}), left.items(), right.items(), scale)


def _divide(x: dict, d: int) -> dict:
    """x / d in place, with ``divmod`` while the quotient is whole."""
    for group in x.values():
        for k, c in group.items():
            if type(c) is int:
                q, r = divmod(c, d)
                group[k] = Fraction(c, d) if r else q
            else:
                group[k] = _canon(c / d)
    return x


def _convolve(ring: GradedRing, x: Sequence[dict], y: Sequence[dict], d: int,
              weight, low: int = 0) -> dict:
    """The tidied packed part sum_(i=low..min(d, len(x) - 1)) weight(d, i)
    x_i y_(d-i): parts past the end of x are zero, and a recurrence passes
    the list it is filling as y."""
    total: dict = {}
    for i in range(low, min(d, len(x) - 1) + 1):
        _mul_into(ring, total, x[i], y[d - i], weight(d, i))
    return _tidy(total)


def _weighted_parts(x: GradedClass, y: GradedClass, weight) -> list:
    """Tuple-keyed terms of sum_(j=0..d) weight(d, j) x_(d-j) y_j for each
    degree d = 0..truncation; x and y are packed into parts once."""
    ring = x.ring
    a, b = _parts(ring, x.terms), _parts(ring, y.terms)
    return [_unpack(ring, [_convolve(ring, b, a, d, weight)])
            for d in range(ring.truncation + 1)]


class FormalBundle:
    """A rank together with a total Chern class of constant term one.

    A bundle derived through power sums (``tensor``, ``tensor_line``,
    ``sym_power``) keeps the packed power sums it was built from: the next
    derived bundle reads them directly, and the total Chern class is
    computed from them on first access and then kept.
    """

    __slots__ = ("rank", "ring", "_total", "_sums")

    def __init__(self, rank: int, total_chern: GradedClass):
        require_integer(rank, "bundle rank must be a non-negative integer", 0)
        if total_chern.constant_term != 1:
            raise InvalidInputError("total Chern class must have constant term 1")
        self.rank = rank
        self.ring = total_chern.ring
        self._total = total_chern
        self._sums = None

    @property
    def total_chern(self) -> GradedClass:
        if self._total is None:
            self._total = _from_power_sums(self.ring, self._sums)
        return self._total

    def __eq__(self, other):
        return (isinstance(other, FormalBundle) and self.rank == other.rank
                and self.total_chern == other.total_chern)

    def __repr__(self):
        return f"FormalBundle(rank={self.rank}, c={self.total_chern})"


def _derived(ring: GradedRing, rank: int, sums: list) -> FormalBundle:
    """A bundle of packed power sums p_0..p_trunc, p_0 = rank; the sums are
    shared, never modified."""
    out = object.__new__(FormalBundle)
    out.rank, out.ring, out._total, out._sums = rank, ring, None, sums
    return out


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
    c = e.total_chern
    return FormalBundle(e.rank, c._new({
        m: -a if c.ring.monomial_degree(m) % 2 else a for m, a in c.terms.items()}))


def direct_sum(a: FormalBundle, b: FormalBundle) -> FormalBundle:
    """Whitney sum: ranks add, total Chern classes multiply."""
    return FormalBundle(a.rank + b.rank, a.total_chern * b.total_chern)


# -- derived bundles through power sums (Macdonald, Symmetric Functions, I.2)
# Each Newton conversion, convolution and Adams order is one degree-by-degree
# pass, of at most ``_pass_work(ring)`` operations, metered before it runs.


def admitted_monomials(ring: GradedRing, bound: int | None = None) -> int:
    """How many monomials the ring admits, counted by grade one variable at
    a time (an unbounded knapsack over the truncation and sector caps), and
    kept on the ring with the counts per degree and the pairs ``_pass_work``
    reads.  Each variable only adds monomials, so with a ``bound`` the count
    stops once past it, and that count is not kept."""
    if ring._admitted is not None:
        return ring._admitted
    limits = [min(cap, ring.truncation) + 1 for cap in ring.limits]
    grades = sorted(product(*map(range, limits)))
    counts = dict.fromkeys(grades, 0)
    counts[grades[0]] = total = 1
    for v in ring.variables:
        step = (v.weight, *(v.weight if v.sector == s else 0 for s in ring.sector_caps))
        for grade in grades:  # each grade before the grades above it
            above = tuple(map(add, grade, step))
            if above in counts:
                counts[above] += counts[grade]
        total = sum(counts.values())
        if bound is not None and total > bound:
            return total
    # g + h is admitted iff h <= corner - g, whose row-major flat index is the
    # reverse of g's; below[i] sums the counts of the grades at most grade i
    counts = list(counts.values())
    below, stride = counts[:], len(counts)
    for size in limits:
        stride //= size
        for i in range(len(below)):
            if i // stride % size:
                below[i] += below[i - stride]
    ring._pairs = sum(map(mul, counts, reversed(below)))
    stride = len(counts) // limits[0]  # the total degree is the first axis
    ring._degree_counts = [sum(counts[i:i + stride]) for i in range(0, len(counts), stride)]
    ring._admitted = total
    return total


def _pass_work(ring: GradedRing) -> int:
    """The most operations of one degree-by-degree pass in ``ring``: a term
    product per pair of admitted monomials with an admitted product, and one
    per pair of degree parts; past WORK_LIMIT monomials, their count so far."""
    monomials, top = admitted_monomials(ring, WORK_LIMIT), ring.truncation
    return monomials if ring._pairs is None else ring._pairs + (top + 1) * (top + 2) // 2


def check_work(work: int, what: str) -> None:
    """Refuse, before any product, more than WORK_LIMIT term operations."""
    if work > WORK_LIMIT:
        raise ResourceLimitError(f"{what} needs an estimated {work} or more term "
                                 f"operations, over the limit {WORK_LIMIT}")


def _power_sums(e: FormalBundle) -> list:
    """Packed p_0..p_trunc, p_0 = rank: the sums ``e`` carries, else
    p_d = sum_(i<d) (-1)^(i-1) c_i p_(d-i) + (-1)^(d-1) d c_d, with c_i = 0
    past the rank; p_0 stands at 1 while p fills, so d c_d is the i = d term."""
    if e._sums is not None:
        return e._sums
    ring = e.ring
    c = _parts(ring, e.total_chern.terms)[:min(e.rank, ring.truncation) + 1]
    p = [_constant(1)]
    for d in range(1, ring.truncation + 1):
        p.append(_convolve(ring, c, p, d,
                           lambda d, i: (d if i == d else 1) * (-1) ** (i + 1), 1))
    p[0] = _constant(e.rank)
    return p


def _from_power_sums(ring: GradedRing, p: Sequence[dict]) -> GradedClass:
    """The total Chern class with packed power sums p: d c_d =
    sum_(i=1..d) (-1)^(i-1) c_(d-i) p_i."""
    c = [_constant(1)]
    for d in range(1, ring.truncation + 1):
        c.append(_divide(_convolve(ring, p, c, d, lambda d, i: (-1) ** (i + 1), 1), d))
    return _trusted(ring, _unpack(ring, c))


def tensor(a: FormalBundle, b: FormalBundle) -> FormalBundle:
    """Tensor product: p_d = sum_t C(d, t) p_t(A) p_(d-t)(B)."""
    if a.ring != b.ring:
        raise RingMismatchError("tensor operands live in different rings")
    ring = a.ring
    # the convolution, Newton back, and Newton forth for an operand without sums
    check_work((2 + (a._sums is None) + (b._sums is None)) * _pass_work(ring),
               f"a tensor product of ranks {a.rank} and {b.rank}")
    pa, pb = _power_sums(a), _power_sums(b)
    p = [_convolve(ring, pa, pb, d, comb) for d in range(ring.truncation + 1)]
    return _derived(ring, a.rank * b.rank, p)


def tensor_line(e: FormalBundle, line: GradedClass, sign: int) -> FormalBundle:
    """Twist by a line bundle with first Chern class ``sign * line``."""
    if sign not in (1, -1):
        raise InvalidInputError("sign must be +1 or -1")
    if not line.is_zero() and not line.is_homogeneous(1):
        raise InvalidInputError("line class must be homogeneous of degree 1")
    return tensor(e, FormalBundle(1, e.ring.one() + (line if sign == 1 else -line)))


def sym_power(e: FormalBundle, k: int) -> FormalBundle:
    """k-th symmetric power through Adams operations.

    In power-sum coordinates, ch(E) = sum_d p_d / d!, psi^j scales p_d by
    j^d and (ab)_d = sum_t C(d, t) a_t b_(d-t), so the Newton identity
    i ch(S^i E) = sum_{j=1..i} psi^j(ch E) ch(S^(i-j) E) (Macdonald,
    Symmetric Functions, I.2) reads i p_d(S^i E) = sum_t C(d, t) p_t(E)
    w_t(i)_(d-t), w_t(i) = sum_(j=1..i) j^t p(S^(i-j) E).  The w run from
    order to order, w_t(i+1) = p(S^i E) + sum_(s<=t) C(t, s) w_s(i): each
    order is one product pass and O(truncation^3) part additions.
    """
    require_integer(k, "symmetric power order must be a non-negative integer", 0)
    return _sym_powers(e, k)[0] if k else trivial_bundle(e.ring, 1)


def _sym_powers(e: FormalBundle, k: int) -> tuple[FormalBundle, FormalBundle]:
    """S^k E and S^(k-1)(E + O) for k >= 1, from one run of ``sym_power``'s
    recursion: its last w_0(k) = sum_(j<k) p(S^j E) is p(S^(k-1)(E + O))."""
    ring, top = e.ring, e.ring.truncation
    # the orders' passes, Newton back, and Newton forth for an operand without
    # sums; an order adds t + 2 parts into each w_t(i)_u, each one operation
    # and, but for order 1's constant, the admitted monomials of degree u
    parts = [(top - u + 1) * (top - u + 4) // 2 for u in range(top + 1)]
    work = (k + 1 + (e._sums is None)) * _pass_work(ring) + k * sum(parts) + top + 1
    check_work(work + (k - 1) * sum(map(mul, parts, ring._degree_counts or ())),
               f"S^{k} of a rank-{e.rank} bundle")
    p = _power_sums(e)
    # sym[u]: p_u(S^(i-1) E), S^0 E the trivial line; w[t][u]: w_t(i-1)_u
    sym = [_constant(1)] + [{}] * top
    w = [[{}] * (top + 1 - t) for t in range(top + 1)]
    for i in range(1, k + 1):
        w = [[_add_into([(sym[u], 1)] + [(w[s][u], comb(t, s)) for s in range(t + 1)])
              for u in range(top + 1 - t)] for t in range(top + 1)]
        sym = [_divide(_convolve(ring, p, [w[d - u][u] for u in range(d + 1)], d, comb), i)
               for d in range(top + 1)]
    return (_derived(ring, comb(e.rank + k - 1, k), sym),
            _derived(ring, comb(e.rank + k - 1, k - 1), w[0]))
