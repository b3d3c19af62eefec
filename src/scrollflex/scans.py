"""Exhaustive integer-point scans behind the uninflectedness results.

Each family couples a degree-zero equation (transcribed where a printed
form exists, derived otherwise) with feasibility constraints and finite,
justified enumeration bounds.  Before a scan runs, the equation is derived
twice more through the family's base preset, once from the closed form in
:mod:`scrollflex.formulas` (``_on_preset``) and once from the engine, and
the three are compared; any mismatch aborts with an internal consistency
error.  Surviving points that the source arguments exclude geometrically
are annotated, never dropped.

The scan sweeps the last sweep variable innermost.  Each part of the
equation, the coefficient of a power of the solved variable, is a
polynomial in that variable: its integer coefficients are computed once
per point of the other sweep variables and evaluated at each value by
Horner's rule.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import lcm, prod
from typing import Callable, Mapping

from ._record import Record
from .errors import InternalConsistencyError, InvalidInputError, require_integer
from .exactpoly import Poly, monomial_text, parse_poly
from .formulas import fourfold_degree, p2_specialization_n9, surface_degree
from .scroll import (BASE_PRESETS, SCAN_FAMILIES as FAMILIES, ScrollSetup,
                     canonical_monomial, symbolic_degree)

MARGIN = 5  # safety cushion over every derived enumeration bound


class Constraint(Record):
    """A named feasibility screen: ``holds(point)`` is false where the
    geometry excludes the integer point, for the stated ``reason``."""

    __slots__ = ("name", "reason", "holds")


class Bound(Record):
    __slots__ = ("lo", "hi", "reason")


class ScanProblem(Record):
    """A family's scan: ``equation`` == 0, linear in the ``solve`` variable,
    swept over the ``sweep`` variables within their ``bounds``."""

    __slots__ = ("family", "params", "equation", "sweep", "solve", "bounds",
                 "constraints", "annotate", "notes", "exceptional")
    _defaults = {"notes": (), "exceptional": None}

    def scaled(self, factor: int) -> "ScanProblem":
        bounds = {
            name: Bound(b.lo, b.lo + (b.hi - b.lo) * factor,
                        f"{b.reason} (scaled x{factor})")
            for name, b in self.bounds.items()
        }
        return ScanProblem(self.family, self.params, self.equation, self.sweep,
                           self.solve, bounds, self.constraints, self.annotate,
                           self.notes, self.exceptional)


class Survivor(Record):
    __slots__ = ("point", "annotation")
    _defaults = {"annotation": None}


class ScanReport(Record):
    """The outcome of a scan; ``excluded`` lists the integer points killed by
    a named screen, with the screen's name."""

    __slots__ = ("family", "params", "candidates", "survivors", "excluded",
                 "verdict", "bounds", "notes")

    def to_payload(self) -> dict:
        return {
            "family": self.family,
            "params": dict(self.params),
            "candidates": self.candidates,
            "survivors": [
                {"point": s.point, "annotation": s.annotation} for s in self.survivors
            ],
            "excluded": [{"point": p, "constraint": c} for p, c in self.excluded],
            "verdict": self.verdict,
            "bounds": {k: [b.lo, b.hi, b.reason] for k, b in self.bounds.items()},
            "notes": list(self.notes),
        }


class ExceptionalCondition(Record):
    """Parametric survivor family of a hyperbola scan: a = 2 plus a linear
    relation among the remaining invariants, verified against the family's
    printed equation."""

    __slots__ = ("family", "relation", "verified")


# -- helpers -------------------------------------------------------------------


def _positivity_bound(poly: Poly, var: str, lo: int, threshold) -> int:
    """Largest integer >= lo at which the eventually-negative univariate
    polynomial still reaches the threshold; lo - 1 when it never does."""
    index = poly.vars.index(var)
    if any(sum(exps) != exps[index] for exps in poly.terms):
        raise InvalidInputError(f"positivity form must be univariate in {var}")
    shifted = poly - threshold
    top = max(shifted.terms, key=lambda exps: exps[index], default=None)
    if top is None or shifted.terms[top] >= 0:
        raise InvalidInputError("positivity bound needs a negative leading term")
    # Cauchy's bound on the real roots of the shifted polynomial
    hi = 2 + int(max((abs(Fraction(c) / shifted.terms[top])
                      for exps, c in shifted.terms.items() if exps != top),
                     default=0))
    return max((x for x in range(lo, max(lo, hi) + 1)
                if shifted.eval_at({var: x}) >= 0), default=lo - 1)


def _require_equal(label: str, *polys: Poly) -> None:
    normalized = [p.normalized() for p in polys]
    if any(p != normalized[0] for p in normalized[1:]):
        raise InternalConsistencyError(
            f"{label}: transcribed and derived degree equations disagree: "
            + " vs ".join(str(p) for p in normalized)
        )


def _on_preset(form: Poly, preset: str, vars: tuple[str, ...],
               rename: Mapping[str, Poly] | None = None, **values) -> Poly:
    """A ``formulas`` degree polynomial on a base preset's table.

    Each base monomial of ``form`` becomes its entry in the preset's table at
    ``values``, over ``vars`` with the free slots renamed by ``rename``; the
    scroll degree ``d`` stays symbolic.
    """
    table = BASE_PRESETS[preset].assignments(**values)
    out = Poly.zero(vars)
    for exps, coeff in form.terms.items():
        mono = dict(zip(form.vars, exps))
        if mono.pop("d"):
            term = Poly.variable(vars, "d")
        else:
            key = canonical_monomial(monomial_text(mono, mono.values()))
            if key not in table:
                raise InternalConsistencyError(f"preset {preset} lacks {key}")
            term = table[key].subs(rename or {}, vars=vars)
        out = out + term * coeff
    return out


# -- generic scan loop -----------------------------------------------------------


def _integer_parts(eq: Poly, sweep: tuple[str, ...],
                   solve: str) -> list[list[list[tuple[int, tuple[int, ...]]]]]:
    """The equation as integer term lists, by powers of ``solve`` and then of
    the last sweep variable.

    Entry ``[p][k]`` lists ``(coefficient, exponents over the other sweep
    variables)`` for the terms of ``solve^p t^k``, ``t`` the last sweep
    variable, every coefficient times the lcm of the denominators, so the
    lists evaluate with ints and give the equation up to that factor.
    """
    *index, last = [eq.vars.index(name) for name in sweep]
    at = eq.vars.index(solve)
    den = lcm(*(c.denominator for c in eq.terms.values()))
    parts: list[list[list[tuple[int, tuple[int, ...]]]]] = [[], []]
    for exps, c in eq.terms.items():
        while len(parts) <= exps[at]:
            parts.append([])
        part = parts[exps[at]]
        while len(part) <= exps[last]:
            part.append([])
        part[exps[last]].append(((c * den).numerator,
                                 tuple(exps[i] for i in index)))
    return parts


def _coefficients(part, outer) -> list[int]:
    """A part's coefficients in the last sweep variable at the point ``outer``
    of the others, highest power first."""
    return [sum([c * prod(map(pow, outer, exps)) for c, exps in terms])
            for terms in reversed(part)]


def _horner(coefficients: list[int], t: int) -> int:
    value = 0
    for c in coefficients:
        value = value * t + c
    return value


def scan(problem: ScanProblem) -> ScanReport:
    """Enumerate every integer point within bounds and screen it, by the
    Horner sweep of the module docstring."""
    sweep_ranges = []
    for name in problem.sweep:
        b = problem.bounds[name]
        sweep_ranges.append(range(b.lo, max(b.hi + 1, b.lo)))
    survivors: list[Survivor] = []
    excluded: list[tuple[dict, str]] = []
    notes = list(problem.notes)
    parts = _integer_parts(problem.equation, problem.sweep, problem.solve)
    *outer_ranges, inner_range = sweep_ranges
    candidates = 0
    for outer in itertools.product(*outer_ranges):
        constant, linear, *higher = [_coefficients(part, outer) for part in parts]
        for t in inner_range:
            candidates += 1
            if any(_horner(h, t) for h in higher):
                raise InvalidInputError(
                    f"equation is not linear in {problem.solve}")
            a = _horner(linear, t)
            b = _horner(constant, t)
            if not a:
                if not b:
                    notes.append(f"equation degenerates at "
                                 f"{dict(zip(problem.sweep, (*outer, t)))}: "
                                 f"every {problem.solve} solves it")
                continue
            solved, remainder = divmod(-b, a)
            if remainder:
                continue
            point = dict(zip(problem.sweep, (*outer, t)))
            point[problem.solve] = solved
            failed = next(
                (c for c in problem.constraints if not c.holds(point)), None)
            if failed is not None:
                excluded.append((point, f"{failed.name}: {failed.reason}"))
                continue
            survivors.append(Survivor(point, problem.annotate(point)))

    if problem.exceptional is not None:
        verdict = "exceptional condition"
    elif not survivors:
        verdict = "empty"
    elif all(s.annotation for s in survivors):
        verdict = "empty after geometric exclusions"
    else:
        verdict = "survivors listed"
    return ScanReport(problem.family, problem.params, candidates, survivors,
                      excluded, verdict, problem.bounds, tuple(notes))


# -- family builders ---------------------------------------------------------------


def _p2_n10_problem() -> ScanProblem:
    vars = ("x", "y")
    x, y = Poly.variables(vars)
    transcribed = 19 * y - (46 * x ** 2 - 297 * x + 534)
    xyd = ("x", "y", "d")
    closed = _on_preset(surface_degree(10), "p2", xyd, {"v": Poly.variable(xyd, "x")})
    closed = closed.subs({"d": x ** 2 - y}, vars=vars)
    engine = symbolic_degree(ScrollSetup(3, 2, 2, 10),
                             BASE_PRESETS["p2"].assignments(), ("v", "y"))
    engine = engine.subs({"v": x, "y": y}, vars=vars)
    _require_equal("P2_N10", -transcribed, closed, engine)

    # the arc: the parabola meets the region y <= x^2 - 8 only while
    # 27 x^2 - 297 x + 686 <= 0
    hi = _positivity_bound(-(27 * x ** 2 - 297 * x + 686), "x", 2, 0)
    constraints = (
        Constraint("ample-on-lines", "c1(V) restricted to a line has degree >= 2",
                   lambda p: p["x"] >= 2),
        Constraint("positive-c2", "a very ample rank-2 bundle has c2 >= 1",
                   lambda p: p["y"] >= 1),
        Constraint("degree-bound", "d = x^2 - y >= 8, one above the codimension",
                   lambda p: p["x"] ** 2 - p["y"] >= 8),
    )
    return ScanProblem(
        "P2_N10", {}, transcribed, ("x",), "y",
        {"x": Bound(2, hi + MARGIN,
                    "beyond this the parabola leaves the region y <= x^2 - 8")},
        constraints, lambda p: None,
        notes=("equation: 19y = 46x^2 - 297x + 534 on the plane, ambient 10",),
    )


def _p2_n9_problem() -> ScanProblem:
    vars = ("v", "d")
    v, d = Poly.variables(vars)
    transcribed = 3 * (d + 14) - 2 * v * (17 - 2 * v)
    closed = p2_specialization_n9().subs({}, vars=vars)
    engine = symbolic_degree(ScrollSetup(3, 2, 2, 9),
                             BASE_PRESETS["p2"].assignments(), ("v", "y"))
    engine = engine.subs({"y": v * v - d, "v": v}, vars=vars)
    _require_equal("P2_N9", transcribed, closed, engine)

    rhs = 2 * v * (17 - 2 * v)  # 3(d + 14) >= 63 once d >= 7
    hi = _positivity_bound(rhs, "v", 2, 63)
    constraints = (
        Constraint("ample-on-lines", "c1(V) restricted to a line has degree >= 2",
                   lambda p: p["v"] >= 2),
        Constraint("degree-bound", "d >= 7, one above the codimension in ambient 9",
                   lambda p: p["d"] >= 7),
        Constraint("positive-c2", "c2 = v^2 - d >= 1",
                   lambda p: p["v"] ** 2 - p["d"] >= 1),
        Constraint("c2-one-classification",
                   "c2 = 1 on the plane forces the split bundle with v = 2",
                   lambda p: not (p["v"] ** 2 - p["d"] == 1 and p["v"] != 2)),
    )

    def annotate(p):
        if (p["v"], p["d"]) == (4, 10):
            return ("Bordiga scroll (c1 = 4, c2 = 6 on the plane): its second "
                    "jet map never attains rank 9, so the standing rank "
                    "hypothesis fails")
        return None

    return ScanProblem(
        "P2_N9", {}, transcribed, ("v",), "d",
        {"v": Bound(2, hi + MARGIN,
                    "2v(17 - 2v) falls below 3(7 + 14) = 63 beyond this")},
        constraints, annotate,
        notes=("equation: 3(d + 14) = 2v(17 - 2v) on the plane, ambient 9",),
    )


def _p3_printed(ell: int, vars) -> Poly:
    x, y, d = Poly.variables(vars)
    if ell == 2:
        return 7 * d + 4 * x ** 3 - 52 * x ** 2 + 32 * y + 62 * x
    if ell == 3:
        return 6 * d + 5 * x ** 3 - 77 * x ** 2 + 36 * y + 181 * x - 143
    if ell == 4:
        return 17 * d + 17 * x ** 3 - 303 * x ** 2 + 124 * y + 969 * x - 1153
    raise InvalidInputError("codimension must be 2, 3 or 4")


def _threefold_base_problem(family: str, ell: int) -> ScanProblem:
    """Fourfold scrolls over projective 3-space or the quadric threefold."""
    require_integer(ell, "codimension must be an integer")
    if ell not in (2, 3, 4):
        raise InvalidInputError("codimension must be 2, 3 or 4 for these scans")
    preset = "p3" if family == "P3" else "q3"
    vars = ("x", "y", "d")
    x, y, d = Poly.variables(vars)
    d_of_xy = (x ** 3 - 2 * x * y) if family == "P3" else (2 * x ** 3 - 2 * x * y)

    derived = _on_preset(fourfold_degree(ell), preset, vars)
    transcribed = _p3_printed(ell, vars) if family == "P3" else derived
    engine = symbolic_degree(ScrollSetup(4, 3, 2, 12 + ell),
                             BASE_PRESETS[preset].assignments(), ("x", "y"))
    engine = engine.subs({"x": x, "y": y}, vars=vars)
    _require_equal(f"{family} codim {ell}",
                   transcribed.subs({"d": d_of_xy}),
                   derived.subs({"d": d_of_xy}),
                   engine)

    # positivity: A d + B y = R(x) with A, B > 0 and d, y >= 1 forces R >= A + B
    coeff_d = transcribed.coefficient((0, 0, 1))  # over (x, y, d)
    coeff_y = transcribed.coefficient((0, 1, 0))
    if coeff_d <= 0 or coeff_y <= 0:
        raise InternalConsistencyError("expected positive d and y coefficients")
    rhs = -(transcribed - coeff_d * d - coeff_y * y)
    hi = _positivity_bound(rhs, "x", 2, coeff_d + coeff_y)

    which = "projective 3-space" if family == "P3" else "the quadric threefold"
    constraints = (
        Constraint("ample-on-lines", "c1(V) restricted to a line has degree >= 2",
                   lambda p: p["x"] >= 2),
        Constraint("positive-c2", "a very ample rank-2 bundle has c2 >= 1",
                   lambda p: p["y"] >= 1),
        Constraint("chern-wu-positivity", "the scroll degree d must be positive",
                   lambda p: d_of_xy.eval_at(p) >= 1),
    )

    def annotate(p):
        if family == "P3" and ell == 2 and (p["x"], p["y"]) == (4, 5):
            return ("twist of the null correlation bundle: the linearly normal "
                    "scroll sits in ambient dimension 15 where the codimension "
                    "is 3, and a general projection always acquires inflection")
        return None

    notes = [f"degree-zero equation for codimension {ell} over {which}"]
    if family == "Q3":
        notes.append("no printed source equation exists for the quadric; the "
                     "equation is derived from the degree formulas and the "
                     "intersection lattice (h^3 = 2, one-cycles generated by "
                     "h^2/2)")
    return ScanProblem(
        family, {"ell": ell}, transcribed.subs({"d": d_of_xy}), ("x",), "y",
        {"x": Bound(2, hi + MARGIN,
                    "the positivity form falls below its floor beyond this")},
        constraints, annotate, tuple(notes),
    )


def _fe_hyperbola(a, b, d, e):
    """Degree-zero equation over the Hirzebruch surface F_e in ambient 9;
    ``e`` is an int for a scan or a polynomial variable for the family."""
    return 12 * e * a ** 2 - 24 * a * b + 34 * (2 - e) * a + 68 * b - (9 * d + 104)


def _bxp1_hyperbola(a, b, d, q):
    """Degree-zero equation over B x P^1, B of genus ``q`` (int or variable)."""
    return 24 * a * b + 68 * (q - 1) * a - 68 * b + 9 * d - 104 * (q - 1)


def _hyperbola_problem(family: str, value: int,
                       constraints: tuple[Constraint, ...],
                       annotate: Callable[[Mapping[str, int]], str | None],
                       note_tail: str = "") -> ScanProblem:
    """Threefold scrolls over a ruled surface in ambient 9 (det V = a s + b f,
    c2(V) = v1^2 - d); ``annotate`` explains the survivors off a = 2."""
    _, param, _, (preset, printed, _) = _FAMILIES[family]
    vars = ("a", "b", "d")
    a, b, d = Poly.variables(vars)
    transcribed = printed(a, b, d, value)
    closed = _on_preset(surface_degree(9), preset, vars, **{param: value})
    table = BASE_PRESETS[preset].assignments(**{param: value})
    engine = symbolic_degree(ScrollSetup(3, 2, 2, 9), table, ("a", "b", "v2"))
    engine = engine.subs({"v2": table["v1^2"].subs({}, vars=vars) - d},
                         vars=vars)
    _require_equal(f"{family} {param}={value}", transcribed, closed, engine)

    condition = exceptional_condition(family)

    def annotate_all(p):
        if p["a"] == 2:
            return f"uniform type (1, 1) on fibers: {condition.relation}"
        return annotate(p)

    return ScanProblem(
        family, {param: value}, transcribed, ("a", "d"), "b",
        {"a": Bound(2, 12, "integer points cluster next to the vertical "
                           "asymptote a = 17/6; the window checks a wide strip"),
         "d": Bound(7, 48, "exploration window; the symbolic condition covers "
                           "every degree")},
        constraints, annotate_all,
        notes=("survivors form the parametric family a = 2, "
               f"{condition.relation}{note_tail}",),
        exceptional=condition,
    )


def _fe_problem(e: int) -> ScanProblem:
    require_integer(e, "the Hirzebruch invariant e must be an integer >= 0", 0)
    constraints = (
        Constraint("ample-on-fibers", "a = deg V on a fiber >= 2",
                   lambda p: p["a"] >= 2),
        Constraint("ample-on-section",
                   "b - a e = deg V on the minimal section >= 2",
                   lambda p: p["b"] - p["a"] * e >= 2),
        Constraint("even-degree", "the hyperbola forces d to be even",
                   lambda p: p["d"] % 2 == 0),
        Constraint("degree-ten",
                   "d >= 10: degree 8 is ruled out by the genus classification",
                   lambda p: p["d"] >= 10),
    )

    def annotate(p):
        if e == 0 and p["b"] == 2:
            return ("ruling swap on the quadric surface: exchanging the two "
                    "rulings carries this point into the a = 2 family")
        return None

    return _hyperbola_problem("Fe", e, constraints, annotate)


def _bxp1_problem(q: int) -> ScanProblem:
    require_integer(q, "the base curve genus q must be an integer >= 1", 1)
    constraints = (
        Constraint("ample-on-fibers", "a = deg V on a rational fiber >= 2",
                   lambda p: p["a"] >= 2),
        Constraint("scroll-degree-five",
                   "b >= 5: no irrational surface scroll has degree < 5",
                   lambda p: p["b"] >= 5),
        Constraint("degree-bound", "d >= 7, one above the codimension in ambient 9",
                   lambda p: p["d"] >= 7),
    )
    return _hyperbola_problem("ProductsBxP1", q, constraints, lambda p: None,
                              ", with b >= 5")


# Each family's builder and the one parameter it takes, with its default (no
# parameter: None).  A hyperbola family also names its base preset, its
# printed equation in (a, b, d, parameter) and its a = 2 relation.
_FAMILIES = {
    "P2_N10": (_p2_n10_problem, None, None, None),
    "P2_N9": (_p2_n9_problem, None, None, None),
    "Fe": (_fe_problem, "e", 0, ("fe", _fe_hyperbola, "9d - 32 = 20(b - e)")),
    "ProductsBxP1": (_bxp1_problem, "q", 1,
                     ("bxp1", _bxp1_hyperbola, "9d + 32(q - 1) = 20b")),
    "P3": (lambda ell: _threefold_base_problem("P3", ell), "ell", 4, None),
    "Q3": (lambda ell: _threefold_base_problem("Q3", ell), "ell", 4, None),
}


def build_problem(family: str, **params) -> ScanProblem:
    if family not in _FAMILIES:
        raise InvalidInputError(f"unknown scan family {family!r} (have {FAMILIES})")
    build, param, default, _ = _FAMILIES[family]
    foreign = sorted(set(params) - {param})
    if foreign:
        takes = f"takes only {param}" if param else "takes no parameter"
        raise InvalidInputError(
            f"scan family {family} {takes}, not {', '.join(foreign)}")
    if param is None:
        return build()
    return build(params.get(param, default))


def run_family(family: str, **params) -> ScanReport:
    return scan(build_problem(family, **params))


def exceptional_condition(family: str) -> ExceptionalCondition:
    """The a = 2 relation of a hyperbola family, verified: at a = 2 the
    family's printed equation is a nonzero multiple of it, for every value
    of the family's parameter."""
    _, param, _, hyperbola = _FAMILIES.get(family, (None,) * 4)
    if hyperbola is None:
        raise InvalidInputError(
            f"family {family!r} has no parametric exceptional condition"
        )
    _, printed, relation = hyperbola
    vars = ("a", "b", "d", param)
    _, b, d, p = Poly.variables(vars)
    # lhs - rhs of the relation; a number before a name or "(" multiplies it
    lhs, rhs = (parse_poly(re.sub(r"(?<=\d)(?=[A-Za-z(])", "*", side.strip()),
                           vars) for side in relation.split("="))
    return ExceptionalCondition(family, relation, (lhs - rhs).normalized()
                                == printed(2, b, d, p).normalized())
