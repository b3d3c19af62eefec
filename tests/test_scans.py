import itertools
import json
import random
from fractions import Fraction
from math import lcm, prod

import pytest

from scrollflex import scans
from scrollflex.errors import InternalConsistencyError, InvalidInputError
from scrollflex.exactpoly import Poly
from scrollflex.formulas import degree_substitution_m2, surface_degree
from scrollflex.scans import build_problem, exceptional_condition, run_family, scan


def survivors(report):
    return sorted(tuple(sorted(s.point.items())) for s in report.survivors)


def test_plane_ambient10_empty():
    report = run_family("P2_N10")
    assert report.verdict == "empty"
    assert not report.survivors
    assert report.candidates > 0


def test_plane_ambient9_bordiga_only():
    report = run_family("P2_N9")
    assert survivors(report) == [(("d", 10), ("v", 4))]
    only = report.survivors[0]
    assert only.annotation and "Bordiga" in only.annotation
    assert report.verdict == "empty after geometric exclusions"
    # the split-bundle classification kills (v, d) = (3, 8)
    assert any(p == {"v": 3, "d": 8} for p, _ in report.excluded)


def test_p3_codim2_null_correlation_survivor():
    report = run_family("P3", ell=2)
    assert survivors(report) == [(("x", 4), ("y", 5))]
    assert report.survivors[0].annotation
    # x = 8 solves the equation but fails the Chern-Wu screen
    assert any(p["x"] == 8 for p, why in report.excluded if "chern-wu" in why)


@pytest.mark.parametrize("ell", (3, 4))
def test_p3_higher_codim_empty(ell):
    report = run_family("P3", ell=ell)
    assert report.verdict == "empty"
    assert not report.survivors


@pytest.mark.parametrize("ell", (2, 3, 4))
def test_quadric_scans_empty_and_stable(ell):
    report = run_family("Q3", ell=ell)
    assert report.verdict == "empty"
    assert not report.survivors
    doubled = scan(build_problem("Q3", ell=ell).scaled(2))
    assert doubled.verdict == report.verdict
    assert survivors(doubled) == survivors(report)


def test_quadric_notes_mention_derivation():
    report = run_family("Q3", ell=4)
    assert any("derived" in note for note in report.notes)


@pytest.mark.parametrize("family,params", [
    ("P2_N10", {}), ("P2_N9", {}),
    ("P3", {"ell": 2}), ("P3", {"ell": 3}), ("P3", {"ell": 4}),
])
def test_doubling_stability(family, params):
    base = run_family(family, **params)
    doubled = scan(build_problem(family, **params).scaled(2))
    assert base.verdict == doubled.verdict
    assert survivors(base) == survivors(doubled)


@pytest.mark.parametrize("e", (0, 1, 2))
def test_hirzebruch_window(e):
    report = run_family("Fe", e=e)
    assert report.verdict == "exceptional condition"
    for s in report.survivors:
        if s.point["a"] == 2:
            assert 9 * s.point["d"] - 32 == 20 * (s.point["b"] - e)
        else:
            assert e == 0 and s.annotation and "ruling swap" in s.annotation


def test_hirzebruch_condition():
    cond = exceptional_condition("Fe")
    assert cond.relation == "9d - 32 = 20(b - e)"
    assert cond.verified


@pytest.mark.parametrize("q", (1, 2))
def test_product_window(q):
    report = run_family("ProductsBxP1", q=q)
    assert report.verdict == "exceptional condition"
    assert report.survivors
    for s in report.survivors:
        assert s.point["a"] == 2
        assert 9 * s.point["d"] + 32 * (q - 1) == 20 * s.point["b"]
        assert s.point["b"] >= 5


def test_product_condition():
    cond = exceptional_condition("ProductsBxP1")
    assert cond.verified


def test_unknown_family_rejected():
    with pytest.raises(InvalidInputError):
        build_problem("nope")
    with pytest.raises(InvalidInputError):
        exceptional_condition("P3")


@pytest.mark.parametrize("family,foreign", [
    ("Fe", {"q": 3}), ("P3", {"e": 2}), ("Q3", {"q": 1}),
    ("ProductsBxP1", {"e": 1}), ("P2_N9", {"ell": 3}), ("P2_N10", {"e": 0}),
    ("Fe", {"e": 1, "q": 1}),
])
def test_a_parameter_the_family_does_not_take_is_refused(family, foreign):
    with pytest.raises(InvalidInputError, match=f"scan family {family} takes"):
        build_problem(family, **foreign)
    with pytest.raises(InvalidInputError):
        run_family(family, **foreign)


@pytest.mark.parametrize("make", [
    lambda x, y: scans._positivity_bound(x * y - x ** 2, "x", 2, 0),
    lambda x, y: scans._positivity_bound(x ** 2 - 5, "x", 2, 0),
    lambda x, y: scans._positivity_bound(x * 0, "x", 2, 0),
    lambda x, y: scans._p3_printed(5, ("x", "y", "d")),
], ids=["positivity-form-not-univariate", "positivity-lead-positive",
        "positivity-form-zero", "p3-printed-codimension-5"])
def test_scan_helper_refusals(make):
    with pytest.raises(InvalidInputError):
        make(*Poly.variables(("x", "y")))


def test_exceptional_condition_takes_only_the_family():
    with pytest.raises(TypeError):
        exceptional_condition("Fe", e=0)


def test_exceptional_condition_verifies_the_printed_relation(monkeypatch):
    build, param, default, (preset, printed, _) = scans._FAMILIES["Fe"]
    monkeypatch.setitem(scans._FAMILIES, "Fe", (
        build, param, default, (preset, printed, "9d - 32 = 20(b + e)")))
    assert not exceptional_condition("Fe").verified


@pytest.mark.parametrize("family,params", [
    ("Fe", {"e": 0}), ("Fe", {"e": 3}), ("ProductsBxP1", {"q": 1}),
    ("ProductsBxP1", {"q": 4}),
])
def test_hyperbola_note_and_annotation_print_the_relation(family, params):
    problem = build_problem(family, **params)
    relation = problem.exceptional.relation
    assert relation in problem.notes[0]
    assert relation in problem.annotate({"a": 2, "b": 7, "d": 12})
    report = scan(problem)
    assert all(relation in s.annotation for s in report.survivors
               if s.point["a"] == 2)


def _plus_d(original):
    def patched(*args):
        form = original(*args)
        return form + Poly.variable(form.vars, "d")
    return patched


# each family's closed side, and the module name it is looked up under
@pytest.mark.parametrize("family,params,source", [
    ("P2_N10", {}, "surface_degree"),
    ("P2_N9", {}, "p2_specialization_n9"),
    ("P3", {"ell": 2}, "fourfold_degree"),
    ("P3", {"ell": 4}, "fourfold_degree"),
    ("Q3", {"ell": 3}, "fourfold_degree"),
    ("Fe", {"e": 1}, "surface_degree"),
    ("ProductsBxP1", {"q": 2}, "surface_degree"),
])
def test_a_closed_form_slip_trips_the_three_way_guard(monkeypatch, family,
                                                      params, source):
    build_problem(family, **params)
    monkeypatch.setattr(scans, source, _plus_d(getattr(scans, source)))
    with pytest.raises(InternalConsistencyError):
        build_problem(family, **params)


@pytest.mark.parametrize("family,params", [
    ("P2_N10", {}), ("P2_N9", {}), ("P3", {"ell": 3}), ("Q3", {"ell": 2}),
    ("Fe", {"e": 2}), ("ProductsBxP1", {"q": 3}),
])
def test_an_engine_slip_trips_the_three_way_guard(monkeypatch, family, params):
    original = scans.symbolic_degree
    monkeypatch.setattr(scans, "symbolic_degree",
                        lambda *args: original(*args) + 1)
    with pytest.raises(InternalConsistencyError):
        build_problem(family, **params)


def test_closed_sides_match_the_forms_they_replace():
    # the closed sides typed out by hand before they were derived on presets
    vars = ("a", "b", "d")
    a, b, d = Poly.variables(vars)
    for e in range(6):
        typed = (9 * d + 12 * (2 * b - a * e) * a
                 + 34 * (a * e - 2 * a - 2 * b) + 104)
        assert scans._on_preset(surface_degree(9), "fe", vars, e=e) == typed
    for q in range(1, 5):
        typed = (9 * d + 24 * a * b + 68 * (q - 1) * a - 68 * b
                 + 104 * (1 - q))
        assert scans._on_preset(surface_degree(9), "bxp1", vars, q=q) == typed
    xy = ("x", "y")
    x, y = Poly.variables(xy)
    xyd = ("x", "y", "d")
    plane = scans._on_preset(surface_degree(10), "p2", xyd,
                             {"v": Poly.variable(xyd, "x")})
    assert plane.subs({"d": x ** 2 - y}, vars=xy) == (
        surface_degree(10).subs(degree_substitution_m2()).subs(
            {"c1": Poly.const(xy, 3), "c2": Poly.const(xy, 3), "v1": x,
             "v2": y}, vars=xy))


def test_corrupted_equation_trips_consistency_guard():
    problem = build_problem("P2_N9")
    # simulate a transcription slip and rerun the same three-way comparison
    vars = problem.equation.vars
    with pytest.raises(InternalConsistencyError):
        scans._require_equal("fault-injection",
                             problem.equation,
                             problem.equation + Poly.variable(vars, "v"))


def test_report_payload_round_trip():
    import json

    report = run_family("P2_N9")
    payload = report.to_payload()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["verdict"] == report.verdict


def test_q3_positivity_screen_records_boundary_points():
    report = run_family("Q3", ell=2)
    assert any(p == {"x": 2, "y": 0} for p, why in report.excluded
               if "positive-c2" in why)


# -- the integer scan loop against the substitution route it replaced --------


def _solve_linear(eq, solve, values):
    # the per-candidate solve the scan loop used before: substitute, then
    # read off the coefficients of solve^0 and solve^1
    spec = eq.subs({k: Fraction(v) for k, v in values.items()})
    a = Fraction(0)
    b = Fraction(0)
    i = spec.vars.index(solve)
    for exps, c in spec.terms.items():
        if exps[i] == 0:
            b += c
        elif exps[i] == 1:
            a += c
        else:
            raise InvalidInputError(f"equation is not linear in {solve}")
    if a == 0:
        return ("any", None) if b == 0 else ("none", None)
    return ("one", -b / a)


def _oracle_payload(problem):
    ranges = [range(problem.bounds[n].lo,
                    max(problem.bounds[n].hi + 1, problem.bounds[n].lo))
              for n in problem.sweep]
    survivors, excluded, notes = [], [], list(problem.notes)
    candidates = 0
    for combo in itertools.product(*ranges):
        values = dict(zip(problem.sweep, combo))
        candidates += 1
        kind, solved = _solve_linear(problem.equation, problem.solve, values)
        if kind == "none":
            continue
        if kind == "any":
            notes.append(f"equation degenerates at {values}: every "
                         f"{problem.solve} solves it")
            continue
        if solved.denominator != 1:
            continue
        point = dict(values)
        point[problem.solve] = int(solved)
        failed = next((c for c in problem.constraints if not c.holds(point)),
                      None)
        if failed is not None:
            excluded.append({"point": point,
                             "constraint": f"{failed.name}: {failed.reason}"})
        else:
            survivors.append({"point": point,
                              "annotation": problem.annotate(point)})
    return candidates, survivors, excluded, notes


def _same_as_oracle(problem):
    payload = json.loads(json.dumps(scan(problem).to_payload()))
    candidates, survivors, excluded, notes = _oracle_payload(problem)
    assert payload["candidates"] == candidates
    assert payload["survivors"] == survivors
    assert payload["excluded"] == excluded
    assert payload["notes"] == notes
    for s in scan(problem).survivors:
        assert all(type(v) is int for v in s.point.values())


@pytest.mark.parametrize("family,params", [
    ("P2_N10", {}), ("P2_N9", {}),
    *(("P3", {"ell": ell}) for ell in (2, 3, 4)),
    *(("Q3", {"ell": ell}) for ell in (2, 3, 4)),
    *(("Fe", {"e": e}) for e in range(4)),
    *(("ProductsBxP1", {"q": q}) for q in (1, 2, 3)),
])
@pytest.mark.parametrize("scale", (1, 2))
def test_scan_loop_matches_substitution_oracle(family, params, scale):
    problem = build_problem(family, **params)
    _same_as_oracle(problem.scaled(scale) if scale != 1 else problem)


def _random_problem(rng, higher, a_window):
    vars = ("a", "b", "d")
    a, b, d = Poly.variables(vars)

    def coefficient():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 6)))

    def form():
        return (coefficient() * a * a + coefficient() * a * d
                + coefficient() * d + coefficient() * a + coefficient())

    # the b coefficient vanishes on the line a = 3 or everywhere, and the
    # b^2 one (when present) on a = 3 only
    lead = rng.choice((form() * (a - 3), form() * 0, form(),
                       Poly.const(vars, rng.choice((1, -2, Fraction(3, 4))))))
    equation = lead * b + form() * (a - 3 if rng.random() < 0.3 else 1)
    if higher:
        equation = equation + (a - 3) * b * b * coefficient()
    return scans.ScanProblem(
        "random", {}, equation, ("a", "d"), "b",
        {"a": scans.Bound(*a_window, "window"), "d": scans.Bound(-3, 5, "window")},
        (scans.Constraint("odd-b", "b must be odd", lambda p: p["b"] % 2),),
        lambda p: "small" if abs(p["b"]) < 3 else None)


@pytest.mark.parametrize("seed", range(24))
def test_scan_loop_matches_oracle_on_random_linear_equations(seed):
    rng = random.Random(31 + seed)
    # with a b^2 term, the window a = 3 only is where it vanishes throughout
    higher = seed % 4 == 3
    problem = _random_problem(rng, higher, (3, 3) if seed % 8 == 7 else (-4, 6))
    try:
        expected = _oracle_payload(problem)
    except InvalidInputError:
        with pytest.raises(InvalidInputError, match="not linear in b"):
            scan(problem)
        return
    got = scan(problem).to_payload()
    assert (got["candidates"], got["survivors"], got["excluded"],
            got["notes"]) == expected


# -- the Horner sweep against the pointwise loop it replaced -----------------


def _evaluate(terms, point) -> int:
    return sum(c * prod(map(pow, point, exps)) for c, exps in terms)


def _pointwise_scan(problem):
    """The scan loop as it was before the Horner sweep: every part of the
    equation, a power of the solved variable as integer terms over the
    sweep variables, evaluated afresh at every candidate."""
    eq = problem.equation
    index = [eq.vars.index(name) for name in problem.sweep]
    at = eq.vars.index(problem.solve)
    den = lcm(*(c.denominator for c in eq.terms.values()))
    parts = [[], []]
    for exps, c in eq.terms.items():
        while len(parts) <= exps[at]:
            parts.append([])
        parts[exps[at]].append(((c * den).numerator, tuple(exps[i] for i in index)))
    constant, linear, *higher = parts
    ranges = [range(problem.bounds[n].lo, max(problem.bounds[n].hi + 1, problem.bounds[n].lo))
              for n in problem.sweep]
    survivors, excluded, notes = [], [], list(problem.notes)
    candidates = 0
    for combo in itertools.product(*ranges):
        candidates += 1
        if any(_evaluate(terms, combo) for terms in higher):
            raise InvalidInputError(f"equation is not linear in {problem.solve}")
        a = _evaluate(linear, combo)
        b = _evaluate(constant, combo)
        if not a:
            if not b:
                notes.append(f"equation degenerates at {dict(zip(problem.sweep, combo))}: "
                             f"every {problem.solve} solves it")
            continue
        solved, remainder = divmod(-b, a)
        if remainder:
            continue
        point = dict(zip(problem.sweep, combo))
        point[problem.solve] = solved
        failed = next((c for c in problem.constraints if not c.holds(point)), None)
        if failed is not None:
            excluded.append((point, f"{failed.name}: {failed.reason}"))
        else:
            survivors.append(scans.Survivor(point, problem.annotate(point)))
    if problem.exceptional is not None:
        verdict = "exceptional condition"
    elif not survivors:
        verdict = "empty"
    elif all(s.annotation for s in survivors):
        verdict = "empty after geometric exclusions"
    else:
        verdict = "survivors listed"
    return scans.ScanReport(problem.family, problem.params, candidates, survivors,
                            excluded, verdict, problem.bounds, tuple(notes))


def _same_report(got, want):
    got, want = got.to_payload(), want.to_payload()
    for field in ("candidates", "survivors", "excluded", "notes", "verdict"):
        assert got[field] == want[field], field
    assert got == want


@pytest.mark.parametrize("family,params", [
    ("P2_N10", {}), ("P2_N9", {}),
    *(("P3", {"ell": ell}) for ell in (2, 3, 4)),
    *(("Q3", {"ell": ell}) for ell in (2, 3, 4)),
    *(("Fe", {"e": e}) for e in range(4)),
    *(("ProductsBxP1", {"q": q}) for q in (1, 2, 3)),
])
@pytest.mark.parametrize("scale", (1, 2))
def test_horner_sweep_matches_the_pointwise_loop(family, params, scale):
    problem = build_problem(family, **params)
    if scale != 1:
        problem = problem.scaled(scale)
    _same_report(scan(problem), _pointwise_scan(problem))


def _two_variable_problem(equation, a_window=(-4, 6)):
    return scans.ScanProblem(
        "two-variable", {}, equation, ("a", "d"), "b",
        {"a": scans.Bound(*a_window, "window"), "d": scans.Bound(-3, 5, "window")},
        (scans.Constraint("odd-b", "b must be odd", lambda p: p["b"] % 2),), lambda p: None)


def test_a_degenerate_point_is_noted_in_sweep_order():
    a, b, d = Poly.variables(("a", "b", "d"))
    # the b coefficient vanishes on the lines a = 3 and a = -2, and the
    # constant at (3, 1) and (-2, 4) only
    constant = ((a - 3) ** 2 + (d - 1) ** 2) * ((a + 2) ** 2 + (d - 4) ** 2)
    problem = _two_variable_problem((a - 3) * (a + 2) * b + constant)
    report = scan(problem)
    _same_report(report, _pointwise_scan(problem))
    assert [n for n in report.notes if "degenerates" in n] == [
        "equation degenerates at {'a': -2, 'd': 4}: every b solves it",
        "equation degenerates at {'a': 3, 'd': 1}: every b solves it"]
    assert report.candidates == 11 * 9


@pytest.mark.parametrize("window", [(-4, 6), (4, 6)])
def test_a_nonzero_quadratic_part_is_refused(window):
    a, b, d = Poly.variables(("a", "b", "d"))
    # the b^2 part vanishes only at a = 3, which the second window misses
    equation = (a - 3) * b * b + (d + 2) * b - a
    with pytest.raises(InvalidInputError, match="not linear in b"):
        scan(_two_variable_problem(equation, window))
    with pytest.raises(InvalidInputError, match="not linear in b"):
        _pointwise_scan(_two_variable_problem(equation, window))
    # on the line a = 3 alone it vanishes at every candidate and is no refusal
    problem = _two_variable_problem(equation, (3, 3))
    _same_report(scan(problem), _pointwise_scan(problem))
