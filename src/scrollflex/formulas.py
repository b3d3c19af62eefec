"""Hand-transcribed closed forms used as regression oracles.

Every closed form here is written out coefficient by coefficient,
independently of the engine in :mod:`scrollflex.scroll`; the test suite
checks the two sides against each other exactly.  The closed forms never
call the engine.

Scalar conventions for degree polynomials:

* ``d``  - degree of the scroll,
* ``g2`` - 2g - 2 for the sectional genus g,
* ``c1, c2, c3`` - Chern classes of the base tangent bundle (monomials of
  these symbols stand for the corresponding intersection numbers; the
  canonical class is -c1),
* ``v1, v2, v3`` - Chern classes of the rank-(n-m+1) bundle defining the
  scroll,
* family parameters ``v, x, y, a, b, e, q`` as documented per record.
"""

from __future__ import annotations

import warnings
from math import comb

from .chern import GradedClass, GradedRing
from .errors import InvalidInputError, require_integer
from .exactpoly import Poly
from .scroll import scroll_ring

SURFACE_VARS = ("d", "g2", "c1", "c2", "v1", "v2")
FOURFOLD_VARS = ("d", "c1", "c2", "c3", "v1", "v2")


def _sv(name: str) -> Poly:
    return Poly.variable(SURFACE_VARS, name)


def _fv(name: str) -> Poly:
    return Poly.variable(FOURFOLD_VARS, name)


def degree_substitution_m2() -> dict[str, Poly]:
    """Rewrite d and g2 in raw base monomials for a rank-2 bundle on a surface."""
    v1, v2, c1 = _sv("v1"), _sv("v2"), _sv("c1")
    return {"d": v1 * v1 - v2, "g2": v1 * v1 - c1 * v1}


def degree_substitution_m3_r2() -> dict[str, Poly]:
    """Rewrite d in raw base monomials for a rank-2 bundle on a threefold."""
    v1, v2 = _fv("v1"), _fv("v2")
    return {"d": v1 ** 3 - v1 * v2 * 2}


# -- classes on the scroll ---------------------------------------------------


def threefold_surface_class(part: int, ring: GradedRing | None = None) -> GradedClass:
    """Graded pieces of the order-2 degeneracy class for (n, m) = (3, 2)."""
    require_integer(part, "graded part must be 1, 2 or 3")
    ring = ring or scroll_ring(3, 2)
    L, C1, C2, V1, V2 = (ring.variable(s) for s in ("L", "C1", "C2", "V1", "V2"))
    if part == 1:
        return 3 * L + 3 * V1 - 5 * C1
    if part == 2:
        return (6 * L ** 2 + 9 * V1 * L - 18 * C1 * L + 6 * V1 ** 2 - 3 * V2
                - 16 * C1 * V1 + 16 * C1 ** 2 - 6 * C2)
    if part == 3:
        return (10 * L ** 3 - 42 * C1 * L ** 2 + 18 * V1 * L ** 2 + 68 * C1 ** 2 * L
                - 26 * C2 * L - 57 * C1 * V1 * L + 18 * V1 ** 2 * L - 9 * V2 * L)
    raise InvalidInputError("graded part must be 1, 2 or 3")


def fourfold_threefold_class(codim: int, ring: GradedRing | None = None) -> GradedClass:
    """Order-2 degeneracy classes for (n, m) = (4, 3), codimension 2..4."""
    require_integer(codim, "codimension must be 2, 3 or 4")
    ring = ring or scroll_ring(4, 3)
    L, C1, C2, C3, V1, V2 = (ring.variable(s)
                             for s in ("L", "C1", "C2", "C3", "V1", "V2"))
    if codim == 2:
        return (21 * L ** 2 + 24 * V1 * L - 40 * C1 * L + 10 * V1 ** 2 - 4 * V2
                - 25 * C1 * V1 + 22 * C1 ** 2 - 7 * C2)
    if codim == 3:
        return (56 * L ** 3 - 154 * C1 * L ** 2 + 84 * V1 * L ** 2
                + 162 * C1 ** 2 * L - 52 * C2 * L - 166 * C1 * V1 * L
                + 60 * V1 ** 2 * L - 24 * V2 * L + 20 * V1 ** 3 - 20 * V1 * V2
                - 65 * C1 * V1 ** 2 + 26 * C1 * V2 + 95 * C1 ** 2 * V1
                - 30 * C2 * V1 - 64 * C1 ** 3 + 53 * C1 * C2 - 9 * C3)
    if codim == 4:
        return (126 * L ** 4 + 224 * V1 * L ** 3 - 448 * C1 * L ** 3
                - 84 * V2 * L ** 2 + 210 * V1 ** 2 * L ** 2
                - 637 * C1 * V1 * L ** 2 + 683 * C1 ** 2 * L ** 2
                - 222 * C2 * L ** 2 + 694 * C1 ** 2 * V1 * L - 220 * C2 * V1 * L
                + 120 * V1 ** 3 * L - 120 * V1 * V2 * L - 430 * C1 * V1 ** 2 * L
                + 172 * C1 * V2 * L - 518 * C1 ** 3 * L + 433 * C1 * C2 * L
                - 75 * C3 * L)
    raise InvalidInputError("codimension must be 2, 3 or 4")


def divisor_class(n: int, m: int, ring: GradedRing | None = None) -> GradedClass:
    """Codimension-one degeneracy class: -(n+2) C1 + (m+1) V1 + binom(m+1,2) L."""
    require_integer(m, "need integers 2 <= m < n", 2)
    require_integer(n, "need integers 2 <= m < n", m + 1)
    ring = ring or scroll_ring(n, m)
    return (-(n + 2) * ring.variable("C1") + (m + 1) * ring.variable("V1")
            + comb(m + 1, 2) * ring.variable("L"))


def divisor_degree_m2(n: int) -> tuple[Poly, Poly]:
    """Two equivalent degree expressions in the divisor case over a surface."""
    require_integer(n, "need an integer n >= 3", 3)
    d, g2, v1, v2, c2 = _sv("d"), _sv("g2"), _sv("v1"), _sv("v2"), _sv("c2")
    first = (4 - n) * d + (n + 2) * g2 - (n - 1) * v2
    second = (4 - n) * v1 * v1 + (n + 2) * g2 - 3 * v2
    return first, second


# -- degree polynomials for threefold scrolls over surfaces ------------------


def surface_degree(N: int) -> Poly:
    """Degree of the order-2 locus for n=3, m=2 in ambient dimension N."""
    require_integer(N, "ambient dimension must be 8, 9 or 10")
    d, g2, c1, c2, v1, v2 = (_sv(s) for s in SURFACE_VARS)
    if N == 8:
        return 5 * g2 + v1 * v1 - 3 * v2
    if N == 9:
        return 9 * d + 12 * v1 * v1 - 34 * c1 * v1 + 16 * c1 * c1 - 6 * c2
    if N == 10:
        return (19 * d + 68 * c1 * c1 - 26 * c2 - 99 * c1 * v1 + 27 * v1 * v1)
    raise InvalidInputError("ambient dimension must be 8, 9 or 10")


def p2_specialization_n9() -> Poly:
    """The N=9 degree over the plane, in v = c1(V).h: 9d + 6v(2v-17) + 126."""
    vars = ("d", "v")
    d, v = Poly.variables(vars)
    return 9 * d + 6 * v * (2 * v - 17) + 126


def k3_form() -> Poly:
    """The N=9 degree over a K3 base: 3(3d + 4(2g-2) - 48)."""
    vars = ("d", "g2")
    d, g2 = Poly.variables(vars)
    return (3 * d + 4 * g2 - 48) * 3


def projection_remark() -> Poly:
    """Degree of the osculating-projection residual surface: 3d + 2 hk.

    ``hk`` stands for the pairing of the base hyperplane with the canonical
    class for a product scroll with both summands the hyperplane bundle.
    """
    vars = ("d", "hk")
    d, hk = Poly.variables(vars)
    return 3 * d + 2 * hk


def fourfold_degree(codim: int) -> Poly:
    """Degree of the order-2 locus for n=4, m=3, codimension 1..4."""
    require_integer(codim, "codimension must be 1, 2, 3 or 4")
    d, c1, c2, c3, v1, v2 = (_fv(s) for s in FOURFOLD_VARS)
    if codim == 1:
        return 8 * d + 2 * v1 ** 3 - 6 * c1 * v1 ** 2 + 6 * c1 * v2
    if codim == 2:
        return (35 * d + 20 * v1 ** 3 - 65 * c1 * v1 ** 2 + 40 * c1 * v2
                + 22 * c1 ** 2 * v1 - 7 * c2 * v1)
    if codim == 3:
        return (120 * d + 100 * v1 ** 3 - 385 * c1 * v1 ** 2 + 180 * c1 * v2
                + 257 * c1 ** 2 * v1 - 82 * c2 * v1 - 64 * c1 ** 3
                + 53 * c1 * c2 - 9 * c3)
    if codim == 4:
        return (340 * d + 340 * v1 ** 3 - 1515 * c1 * v1 ** 2 + 620 * c1 * v2
                + 1377 * c1 ** 2 * v1 - 442 * c2 * v1 - 518 * c1 ** 3
                + 433 * c1 * c2 - 75 * c3)
    raise InvalidInputError("codimension must be 1, 2, 3 or 4")


# -- abelian base closed forms ------------------------------------------------


def abelian_class(m: int, k: int, ell: int,
                  ring: GradedRing | None = None) -> GradedClass:
    """Degeneracy class over an abelian base of dimension 2 or 3.

    Terms whose formal L-power would be negative are dropped; usage with
    ell < m is flagged with a warning since only the leading terms remain.
    """
    require_integer(m, "abelian closed forms cover m = 2 and m = 3 only")
    require_integer(k, "osculation order k must be an integer >= 1", 1)
    require_integer(ell, "codimension ell must be an integer >= 0", 0)
    if m == 2:
        mu = k + 1
        nu = comb(k + 1, 2)
    elif m == 3:
        mu = comb(k + 2, 2)
        nu = comb(k + 2, 3)
    else:
        raise InvalidInputError("abelian closed forms cover m = 2 and m = 3 only")
    if ell < m:
        warnings.warn(
            f"ell={ell} < m={m}: only the surviving leading terms are returned",
            stacklevel=2,
        )
    ring = ring or scroll_ring(m + 2, m)
    if ell > ring.truncation:
        raise InvalidInputError(f"codimension {ell} is outside the grading")
    L, V1, V2 = ring.variable("L"), ring.variable("V1"), ring.variable("V2")
    out = comb(ell + mu - 1, mu - 1) * L ** ell
    if ell >= 1:
        out = out + nu * comb(ell + mu - 2, mu - 1) * V1 * L ** (ell - 1)
    if ell >= 2:
        out = out + comb(ell + mu - 3, mu - 1) * (
            comb(nu + 1, 2) * V1 ** 2 - nu * V2) * L ** (ell - 2)
    if m == 3 and ell >= 3:
        V3 = ring.variable("V3") if "V3" in ring.names else ring.zero()
        out = out + comb(ell + mu - 4, mu - 1) * (
            comb(nu + 2, 3) * V1 ** 3 - nu * (nu + 1) * V1 * V2 + nu * V3
        ) * L ** (ell - 3)
    return out


def abelian_surface_degree(k: int, ell: int) -> Poly:
    """Degree over an abelian surface in (d, g2), any codimension."""
    require_integer(k, "osculation order k must be an integer >= 1", 1)
    require_integer(ell, "codimension ell must be an integer >= 1", 1)
    vars = ("d", "g2")
    d, g2 = Poly.variables(vars)
    nu = comb(k + 1, 2)
    cd = comb(ell + k, k) + nu * comb(ell - 2 + k, k)
    cg = nu * comb(ell - 1 + k, k) + comb(nu, 2) * comb(ell - 2 + k, k)
    return cd * d + cg * g2


def abelian_example4_degree(k: int) -> int:
    """Flex count for the order-two secant threefold scroll over a quotient
    abelian surface: a quintic in k at polarization type p = (k+1)^2 + 2.
    The count is an integer: p is even for odd k, the quintic for even k.
    """
    require_integer(k, "the family needs an integer k >= 2", 2)
    p = (k + 1) ** 2 + 2
    return p * (k ** 5 + 5 * k ** 4 + 13 * k ** 3 + 19 * k ** 2 + 16 * k + 6) // 2


# -- the divisor-case exception table -----------------------------------------


def thm_details_exception_degree(case: int, **params):
    """Degrees of the order-2 divisor in the low-degree exception families.

    Case 1 is the single numeric pair (d, degree) = (7, 3).  Cases 2-4
    return polynomials; supply keyword values to specialize them.
    Parameters: case 2 takes d; case 3 takes d, q, f, g (f, g the degrees of
    the two rank-2 bundles on the base curve); case 4 takes d, q, f, A, M.
    """
    require_integer(case, "case must be 1, 2, 3 or 4")
    if case == 1:
        if params:
            raise InvalidInputError("case 1 takes no parameters")
        return (7, 3)
    if case == 2:
        vars = ("d",)
        expr = 3 * Poly.variable(vars, "d") - 12
    elif case == 3:
        vars = ("d", "q", "f", "g")
        d, q, f, g = Poly.variables(vars)
        expr = 3 * d + 20 * (q - 1) + 2 * (f + g)
    elif case == 4:
        vars = ("d", "q", "f", "A", "M")
        d, q, f, A, M = Poly.variables(vars)
        expr = 3 * d + 30 * (q - 1) + 12 * f + 8 * (A + M)
    else:
        raise InvalidInputError("case must be 1, 2, 3 or 4")
    unknown = set(params) - set(vars)
    if unknown:
        raise InvalidInputError(f"unknown parameters {sorted(unknown)}")
    value = expr.subs({k: v for k, v in params.items()})
    if value.is_constant():
        c = value.constant_value()
        if c.denominator != 1:
            raise InvalidInputError(f"degree {c} is not an integer")
        return int(c)
    return value
