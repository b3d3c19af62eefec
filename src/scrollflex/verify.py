"""Full regression table: engine output against every transcribed form.

Each check is a pure function returning (ok, detail).  Most rows come from
shared runners: a class or a degree class against its closed form, a
preset's numbers against a count, an exception family over a curve, and
the scans.  A runner looks its closed form up in
:mod:`scrollflex.formulas` when it runs, so ``build_checks`` only lists
the rows.  ``run_checks`` executes them one after another in sorted
order, timing each, and is the backing for both the command-line
``verify`` command and the acceptance test suite.
"""

from __future__ import annotations

import time
import warnings
from math import comb
from typing import Callable

from . import formulas, jets, scans
from ._record import Record
from .chern import GradedClass, GradedRing, GradedVariable
from .exactpoly import Poly
from .scroll import (BASE_PRESETS, ScrollSetup, chern_wu_reduce, degree_class,
                     degree_of_inflection, evaluate_symbolic, graded_to_poly,
                     hyperplane_class, inflection_class, max_rank, pushforward,
                     scroll_ring, symbolic_degree)


class CheckResult(Record):
    __slots__ = ("identifier", "ok", "detail", "elapsed_ms")
    _defaults = {"elapsed_ms": 0.0}

    def row(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'}  {self.identifier}  {self.detail}"


Check = tuple[str, Callable[[], tuple[bool, str]]]


def _eq(got, want) -> tuple[bool, str]:
    if got == want:
        return True, f"= {got}"
    return False, f"got {got}, want {want}"


# -- shared runners -------------------------------------------------------------


def _formula(name: str, *args):
    """The closed form ``formulas.<name>(*args, *more)``, looked up when it runs."""
    return lambda *more: getattr(formulas, name)(*args, *more)


def _setup_for_codim(n: int, m: int, k: int, ell: int) -> ScrollSetup:
    return ScrollSetup(n, m, k, max_rank(n, m, k) - 2 + ell)


def _class_row(n, m, ell, want):
    """The order-2 class of codimension ``ell`` against ``want(ring)``."""
    def run():
        ring = scroll_ring(n, m)
        got = inflection_class(_setup_for_codim(n, m, 2, ell), ring)
        return _eq(got, want(ring))
    return run


def _engine_degree(n: int, m: int, ell: int) -> Poly:
    vars = formulas.SURFACE_VARS if m == 2 else formulas.FOURFOLD_VARS
    return graded_to_poly(degree_class(_setup_for_codim(n, m, 2, ell)), vars)


def _degree_row(n, m, ell, want):
    """The order-2 degree class against ``want()`` in raw base monomials."""
    def run():
        got = _engine_degree(n, m, ell)
        subs = (formulas.degree_substitution_m2() if m == 2
                else formulas.degree_substitution_m3_r2())
        return _eq(got, want().subs(subs))
    return run


def _number_row(preset, values, k, ell, want):
    """The degree over a preset surface, on the preset's numbers, against
    ``want()``."""
    def run():
        data = BASE_PRESETS[preset].numerical(**values)
        got = degree_of_inflection(_setup_for_codim(3, 2, k, ell), data).value
        return _eq(got, want())
    return run


def _curve_row(case, names, forms):
    """A divisor-case exception family over a ruled surface on a curve of
    genus q (c1^2 = 8(1 - q), c2 = 4(1 - q)); ``forms(q, *names)`` gives
    c1.v1, v1^2, v2 and the scroll degree d."""
    def run():
        vars = ("q", *names)
        gens = Poly.variables(vars)
        c1v1, v1v1, v2, d = forms(*gens)
        q = gens[0]
        assignments = {"c1^2": (1 - q) * 8, "c2": (1 - q) * 4,
                       "c1*v1": c1v1, "v1^2": v1v1, "v2": v2}
        got = symbolic_degree(ScrollSetup(3, 2, 2, 8), assignments, vars)
        want = formulas.thm_details_exception_degree(case).subs(
            {"d": d, **dict(zip(vars, gens))}, vars=vars)
        return _eq(got, want)
    return run


# -- single rows -----------------------------------------------------------------


def _check_p2_specialization():
    vars = ("d", "v")
    d, v = Poly.variables(vars)
    got = symbolic_degree(_setup_for_codim(3, 2, 2, 2),
                          BASE_PRESETS["p2"].assignments(), ("v", "y"))
    got = got.subs({"y": v * v - d, "v": v}, vars=vars)
    return _eq(got, formulas.p2_specialization_n9())


def _check_k3_form():
    got = symbolic_degree(_setup_for_codim(3, 2, 2, 2),
                          BASE_PRESETS["k3"].assignments(), ("d", "g2"))
    return _eq(got, formulas.k3_form())


def _check_projection_remark():
    # residual class 3L - C1 dotted with L^2 over a product scroll with both
    # summands the base hyperplane bundle: v1 = 2H, v2 = H^2, c1 = -K
    ring = scroll_ring(3, 2)
    residual = 3 * hyperplane_class(ring) - ring.variable("C1")
    cls = pushforward(residual * hyperplane_class(ring) ** 2, 2)
    vars = ("h2", "hk", "d")
    h2, hk, d = Poly.variables(vars)
    assignments = {"v1^2": h2 * 4, "v2": h2, "c1*v1": hk * -2,
                   "c1^2": Poly.zero(vars), "c2": Poly.zero(vars)}
    got = evaluate_symbolic(cls, assignments, vars)
    want = formulas.projection_remark().subs({"d": h2 * 3, "hk": hk}, vars=vars)
    return _eq(got, want)


def _check_abelian_class(m, n, k):
    """The class at every codimension on an abelian base: setting C_i = 0 is
    a ring map, so the closed form is the class's C-free part."""
    def run():
        ring = scroll_ring(n, m)
        base = [i for i, name in enumerate(ring.names) if name.startswith("C")]
        for ell in range(1, n + 1):
            cls = inflection_class(_setup_for_codim(n, m, k, ell), ring)
            got = GradedClass(ring, {e: c for e, c in cls.terms.items()
                                     if not any(e[i] for i in base)})
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # ell < m drops terms by design
                want = formulas.abelian_class(m, k, ell, ring)
            if got != want:
                return False, f"ell={ell}: got {got}, want {want}"
        return True, f"all codimensions 1..{n} match"
    return run


def _check_abelian_degree(n, k):
    def run():
        for ell in range(1, n + 1):
            setup = _setup_for_codim(n, 2, k, ell)
            got = symbolic_degree(setup, BASE_PRESETS["abelian-surface"].assignments(),
                                  ("d", "g2"))
            want = formulas.abelian_surface_degree(k, ell)
            if got != want:
                return False, f"ell={ell}: got {got}, want {want}"
        return True, f"all codimensions 1..{n} match"
    return run


def _check_exception_case1():
    data = BASE_PRESETS["p2"].numerical(v=3, y=2)
    setup = ScrollSetup(3, 2, 2, 8)
    res = degree_of_inflection(setup, data)
    d = data.assignments["v1^2"] - data.assignments["v2"]
    want = formulas.thm_details_exception_degree(1)
    return _eq((d, res.value), want)


def _check_exception_case2():
    for y in (4, 5, 6):
        data = BASE_PRESETS["p2"].numerical(v=4, y=y)
        got = degree_of_inflection(ScrollSetup(3, 2, 2, 8), data).value
        d = 16 - y
        want = formulas.thm_details_exception_degree(2, d=d)
        if got != want:
            return False, f"c2={y}: got {got}, want {want}"
    return True, "degree 3d - 12 on the quartic-determinant plane family"


def _check_example5_class():
    # specialize the divisor-case class to the two-summand plane scroll:
    # C1 -> 3H, V1 -> 3H, and the negative section is L - 2H
    ring = scroll_ring(3, 2)
    cls = inflection_class(ScrollSetup(3, 2, 2, 8), ring)
    target = GradedRing([GradedVariable("L", 1),
                         GradedVariable("H", 1, "base")], 3, {"base": 2})
    H = target.variable("H")
    L = target.variable("L")
    mapping = {"L": L, "C1": 3 * H, "C2": 3 * H ** 2,
               "V1": 3 * H, "V2": 2 * H ** 2}
    got = cls.substitute(target, mapping)
    return _eq(got, 3 * (L - 2 * H))


def _check_divisor_two_expressions(n):
    def run():
        first, second = formulas.divisor_degree_m2(n)
        subs = formulas.degree_substitution_m2()
        if first.subs(subs) != second.subs(subs):
            return False, "the two expressions disagree under the substitutions"
        got = _engine_degree(n, 2, 1)
        if got != first.subs(subs):
            return False, f"engine gives {got}, records give {first.subs(subs)}"
        return True, "both expressions match the engine"
    return run


def _check_tag13_abelian_specialization():
    template = formulas.surface_degree(10)
    zero = {"c1": Poly.zero(formulas.SURFACE_VARS),
            "c2": Poly.zero(formulas.SURFACE_VARS)}
    got = template.subs(zero)
    v1 = Poly.variable(formulas.SURFACE_VARS, "v1")
    d = Poly.variable(formulas.SURFACE_VARS, "d")
    want_abelian = formulas.abelian_surface_degree(2, 3).subs(
        {"d": d, "g2": v1 * v1}, vars=formulas.SURFACE_VARS)
    return _eq(got, want_abelian)


def _check_reduce_order_invariance():
    for (n, m, k, ell) in ((3, 2, 2, 2), (3, 2, 2, 3), (4, 3, 2, 3)):
        setup = _setup_for_codim(n, m, k, ell)
        ring = scroll_ring(n, m)
        cls = inflection_class(setup, ring)
        power = hyperplane_class(ring) ** (n - ell)
        r = setup.fiber_rank
        after = pushforward(cls * power, r)
        before = pushforward(chern_wu_reduce(cls, r) * power, r)
        if after != before:
            return False, f"order matters for {(n, m, k, ell)}"
    return True, "reduction before and after dotting agree"


def _check_example4_identity():
    # the quintic flex-count polynomial against the general abelian degree
    for k in (2, 3, 4, 5):
        p = (k + 1) ** 2 + 2
        quintic = formulas.abelian_example4_degree(k)
        template = formulas.abelian_surface_degree(k, 3)
        direct = template.eval_at({"d": 3 * p, "g2": 4 * p})
        if direct != quintic:
            return False, f"k={k}: {direct} vs {quintic}"
    return True, "quintic matches the abelian degree on the secant family"


# -- scans and jets -------------------------------------------------------------


def _points(report) -> list[tuple]:
    return sorted(tuple(sorted(s.point.items())) for s in report.survivors)


def _scan_row(family, expect_survivors, expect_verdict, **params):
    def run():
        problem = scans.build_problem(family, **params)
        report = scans.scan(problem)
        got = _points(report)
        want = sorted(tuple(sorted(p.items())) for p in expect_survivors)
        if got != want:
            return False, f"survivors {got}, want {want}"
        if report.verdict != expect_verdict:
            return False, f"verdict {report.verdict!r}, want {expect_verdict!r}"
        if _points(scans.scan(problem.scaled(2))) != got:
            return False, "survivor set changes when bounds are doubled"
        return True, f"verdict {report.verdict!r}, stable under doubled bounds"
    return run


def _window_row(family, param, value, on_family):
    """A hyperbola scan: its a = 2 condition verifies, each survivor with
    a = 2 passes ``on_family(point, value)`` and each other one is annotated."""
    def run():
        problem = scans.build_problem(family, **{param: value})
        report = scans.scan(problem)
        if not problem.exceptional.verified:
            return False, "condition fails its substitution identity"
        for s in report.survivors:
            if s.point["a"] != 2:
                if not s.annotation:
                    return False, f"unexplained survivor {s.point}"
            elif not on_family(s.point, value):
                return False, f"survivor {s.point} violates the relation"
        if report.verdict != "exceptional condition":
            return False, f"verdict {report.verdict!r}"
        return True, f"{len(report.survivors)} windowed survivors, all on the family"
    return run


def _check_jet_rank(name):
    def run():
        probe = jets.BUNDLED_PROBES[name]
        scanres = jets.probe_rank(probe.build())
        return _eq(scanres.rank, probe.expected_rank)
    return run


def _check_plane_scroll_minors():
    report = jets.bundled_minor_report("two-summand-plane-scroll", 9)
    v3 = Poly.variable(report.content.vars, "v") ** 3
    return _eq(report.content, v3)


def _check_cubic_scroll_minors():
    report = jets.bundled_minor_report("cubic-surface-scroll", 5)
    v = Poly.variable(report.content.vars, "v")
    if report.content != v:
        return False, f"content {report.content}, want v"
    return True, "locus " + report.reduced_locus


def _check_bordiga_minors():
    report = jets.bundled_minor_report("bordiga", 9)
    y = Poly.variable(("x", "y", "w"), "y")
    bad = [m for m in report.minors if not m.is_zero() and not m.divisible_by(y)]
    if bad:
        return False, f"{len(bad)} minors are not divisible by y"
    if report.content.coefficient(report.content.monomial_content()) == 0:
        return False, "empty content"
    mono = dict(zip(report.content.vars, report.content.monomial_content()))
    if mono.get("y", 0) < 1:
        return False, f"content {report.content} has no factor y"
    return True, f"all {report.nonzero_minors} minors divisible by y; gcd {report.content}"


def _check_product_identity(builder, fiber_dim):
    def run():
        check = jets.product_rank_identity(builder(), fiber_dim)
        if not check.holds:
            return False, f"predicted {check.predicted}, direct {check.direct}"
        return True, f"rank {check.direct} from both sides"
    return run


def _check_rnc_products():
    for degree in (3, 4):
        for order in (2, 3):
            if order > degree:
                continue
            base = jets.rational_normal_curve_chart(degree, order=order)
            check = jets.product_rank_identity(base, 1)
            if not check.holds:
                return False, (f"degree {degree}, order {order}: predicted "
                               f"{check.predicted}, direct {check.direct}")
    return True, "identity holds on rational normal curve bases"


def _check_jet_bound_examples():
    for name, probe in jets.BUNDLED_PROBES.items():
        spec = probe.build()
        n = spec.dimension
        rank = jets.generic_jet_rank(spec)
        if rank > comb(n + spec.order, spec.order):
            return False, f"{name}: rank exceeds the row count"
        if rank > len(spec.coordinates):
            return False, f"{name}: rank exceeds the column count"
        if probe.scroll_dims is not None:
            ns, ms = probe.scroll_dims
            if rank > max_rank(ns, ms, spec.order):
                return False, f"{name}: rank exceeds the structural bound"
    return True, "every bundled probe respects the structural rank bounds"


def build_checks() -> list[Check]:
    checks: list[Check] = []
    checks += [(f"class-threefold-surface-l{part}",
                _class_row(3, 2, part, _formula("threefold_surface_class", part)))
               for part in (1, 2, 3)]
    checks += [(f"class-fourfold-threefold-l{codim}",
                _class_row(4, 3, codim, _formula("fourfold_threefold_class", codim)))
               for codim in (2, 3, 4)]
    checks += [(f"class-divisor-n{n}-m{m}",
                _class_row(n, m, 1, _formula("divisor_class", n, m)))
               for m in range(2, 6) for n in range(m + 1, 7)]
    checks += [(f"degree-threefold-ambient{N}",
                _degree_row(3, 2, N - 7, _formula("surface_degree", N)))
               for N in (8, 9, 10)]
    checks += [(f"degree-fourfold-l{codim}",
                _degree_row(4, 3, codim, _formula("fourfold_degree", codim)))
               for codim in (1, 2, 3, 4)]
    checks.append(("degree-plane-ambient9", _check_p2_specialization))
    checks.append(("degree-k3-ambient9", _check_k3_form))
    checks.append(("degree-projection-residual", _check_projection_remark))

    for k in (1, 2, 3):
        checks.append((f"class-abelian-surface-k{k}",
                       _check_abelian_class(2, 4, k)))
        checks.append((f"class-abelian-threefold-k{k}",
                       _check_abelian_class(3, 5, k)))
        checks.append((f"degree-abelian-surface-k{k}", _check_abelian_degree(4, k)))

    for k in (2, 3):
        p = (k + 1) ** 2 + 2  # polarization type of the secant family
        checks.append((f"numeric-secant-family-k{k}", _number_row(
            "abelian-surface", {"d": 3 * p, "g2": 4 * p}, k, 3,
            _formula("abelian_example4_degree", k))))
    checks.append(("numeric-veronese-projection",
                   _number_row("p2", {"v": 4, "y": 4}, 2, 3, lambda: 6)))
    checks.append(("numeric-k3-floor",
                   _number_row("k3", {"d": 7, "g2": 8}, 2, 2, lambda: 15)))
    checks.append(("numeric-exception-case1", _check_exception_case1))
    checks.append(("numeric-exception-case2", _check_exception_case2))
    checks.append(("numeric-exception-case3", _curve_row(
        3, ("f", "g"), lambda q, f, g: (
            f * 2 + g * 2 - q * 4 + 4, f * 4 + g * 4, f + g, f * 3 + g * 3))))
    checks.append(("numeric-exception-case4", _curve_row(
        4, ("f", "A", "M"), lambda q, f, A, M: (
            f * 3 + A * 2 + M * 2 - q * 6 + 6, f * 9 + A * 6 + M * 6,
            f * 2 + A + M * 2, f * 7 + A * 5 + M * 4))))
    checks.append(("numeric-negative-section-class", _check_example5_class))

    for n in (3, 4, 5, 6):
        checks.append((f"consistency-divisor-degree-n{n}",
                       _check_divisor_two_expressions(n)))
    checks.append(("consistency-abelian-specialization",
                   _check_tag13_abelian_specialization))
    checks.append(("consistency-reduction-order", _check_reduce_order_invariance))
    checks.append(("consistency-secant-quintic", _check_example4_identity))

    checks.append(("scan-plane-ambient10", _scan_row("P2_N10", [], "empty")))
    checks.append(("scan-plane-ambient9",
                   _scan_row("P2_N9", [{"v": 4, "d": 10}],
                             "empty after geometric exclusions")))
    checks.append(("scan-p3-l2",
                   _scan_row("P3", [{"x": 4, "y": 5}],
                             "empty after geometric exclusions", ell=2)))
    checks += [(f"scan-p3-l{ell}", _scan_row("P3", [], "empty", ell=ell))
               for ell in (3, 4)]
    checks += [(f"scan-quadric-l{ell}", _scan_row("Q3", [], "empty", ell=ell))
               for ell in (2, 3, 4)]
    checks += [(f"scan-hirzebruch-e{e}", _window_row(
        "Fe", "e", e, lambda p, e: 9 * p["d"] - 32 == 20 * (p["b"] - e)))
               for e in (0, 1, 2)]
    checks += [(f"scan-product-q{q}", _window_row(
        "ProductsBxP1", "q", q,
        lambda p, q: 9 * p["d"] + 32 * (q - 1) == 20 * p["b"] and p["b"] >= 5))
               for q in (1, 2)]

    for name in jets.BUNDLED_PROBES:
        checks.append((f"jet-rank-{name}", _check_jet_rank(name)))
    checks.append(("jet-minors-plane-scroll", _check_plane_scroll_minors))
    checks.append(("jet-minors-cubic-scroll", _check_cubic_scroll_minors))
    checks.append(("jet-minors-bordiga", _check_bordiga_minors))
    checks.append(("jet-product-veronese",
                   _check_product_identity(jets.veronese_chart, 1)))
    checks.append(("jet-product-cubic-scroll",
                   _check_product_identity(jets.f1_cubic_chart, 1)))
    checks.append(("jet-product-rational-curves", _check_rnc_products))
    checks.append(("jet-row-bound", _check_jet_bound_examples))
    return checks


def run_checks(filter: str | None = None,
               checks: list[Check] | None = None) -> list[CheckResult]:
    selected = checks if checks is not None else build_checks()
    if filter:
        selected = [c for c in selected if filter in c[0]]
    results = []
    for identifier, fn in sorted(selected, key=lambda c: c[0]):
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a failing check must not kill the table
            ok, detail = False, f"error: {exc}"
        elapsed_ms = (time.perf_counter() - start) * 1e3
        results.append(CheckResult(identifier, ok, detail, elapsed_ms))
    return results
