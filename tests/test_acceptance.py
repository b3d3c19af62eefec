"""Acceptance gate: every criterion below runs exactly, tolerance zero.

Each test prints one PASS/FAIL line per criterion (visible with ``-s`` or
``-rA``) and fails loudly on the first discrepancy.  Numeric values were
fixed independently of the engine: closed forms are hand-transcribed in
:mod:`scrollflex.formulas`, scan survivors and jet ranks were derived by
hand from the defining equations before being frozen here.
"""

import json
from pathlib import Path

from scrollflex import jets, scans, verify
from scrollflex.exactpoly import Poly
from scrollflex.scroll import BASE_PRESETS, ScrollSetup, symbolic_degree


def _run_group(prefixes):
    checks = [c for c in verify.build_checks()
              if any(c[0].startswith(p) for p in prefixes)]
    assert checks, f"no checks matched {prefixes}"
    return verify.run_checks(checks=checks)


def _report(criterion: str, results) -> None:
    bad = [r for r in results if not r.ok]
    status = "PASS" if not bad else "FAIL"
    print(f"{status}  {criterion}  ({len(results) - len(bad)}/{len(results)} checks)")
    for r in bad:
        print(f"      {r.row()}")
    assert not bad, f"{criterion}: {len(bad)} failing checks"


def test_verify_ids_are_unique_and_match_the_pinned_table():
    pinned = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    want = json.loads(pinned.read_text(encoding="utf-8"))["verify_ids"]
    ids = [ident for ident, _ in verify.build_checks()]
    assert len(ids) == len(set(ids)) == 84
    assert sorted(ids) == sorted(want)


def test_criterion_1_engine_versus_transcriptions():
    results = _run_group((
        "class-threefold-surface",      # all three graded parts
        "degree-threefold-ambient",     # ambient 8, 9, 10 degree polynomials
        "degree-plane-ambient9",        # plane specialization
        "class-divisor",                # divisor-case class, 2 <= m < n <= 6
        "class-fourfold-threefold",     # three fourfold classes
        "degree-fourfold",              # four fourfold degree polynomials
        "class-abelian",                # abelian class coefficients, k <= 3
        "degree-abelian-surface",       # abelian degree in (d, 2g-2)
    ))
    assert len(results) >= 30
    _report("criterion-1 exact coefficient equality", results)


def test_criterion_2_numeric_reproductions():
    results = _run_group((
        "numeric-secant-family",        # 1815 and the k = 3 value
        "numeric-veronese-projection",  # 6 osculating spaces through a point
        "numeric-exception-case1",      # (d, degree) = (7, 3)
        "numeric-exception-case2",      # the 3d - 12 pattern
        "numeric-negative-section-class",  # class = 3 x (negative section)
    ))
    # the headline abelian count: 19d + 27(2g - 2) at codimension n = 3
    poly = symbolic_degree(ScrollSetup(3, 2, 2, 10),
                           BASE_PRESETS["abelian-surface"].assignments(),
                           ("d", "g2"))
    d, g2 = Poly.variables(("d", "g2"))
    extra_ok = poly == 19 * d + 27 * g2
    results = list(results) + [verify.CheckResult(
        "numeric-abelian-headline", extra_ok, str(poly))]
    _report("criterion-2 numeric reproductions", results)


def test_criterion_3_internal_consistency():
    results = _run_group((
        "consistency-abelian-specialization",  # ambient-10 form at c = 0
        "consistency-divisor-degree",          # the two divisor-case forms
        "consistency-reduction-order",         # reduce before vs after dotting
        "consistency-secant-quintic",          # quintic against the degree form
    ))
    _report("criterion-3 internal consistency", results)


def test_criterion_4_diophantine_scans():
    results = _run_group(("scan-",))
    # survivor sets verified again, point by point
    bordiga = scans.run_family("P2_N9")
    assert [s.point for s in bordiga.survivors] == [{"v": 4, "d": 10}]
    v, d = bordiga.survivors[0].point["v"], bordiga.survivors[0].point["d"]
    assert v * v - d == 6  # c2 of the surviving bundle
    p3 = scans.run_family("P3", ell=2)
    assert [s.point for s in p3.survivors] == [{"x": 4, "y": 5}]
    for ell in (3, 4):
        assert not scans.run_family("P3", ell=ell).survivors
    assert not scans.run_family("P2_N10").survivors
    for ell in (2, 3, 4):
        report = scans.run_family("Q3", ell=ell)
        doubled = scans.scan(scans.build_problem("Q3", ell=ell).scaled(2))
        assert report.verdict == doubled.verdict == "empty"
    assert scans.exceptional_condition("Fe").verified
    assert scans.exceptional_condition("ProductsBxP1").verified
    _report("criterion-4 diophantine scans", results)


def test_criterion_5_jet_probes():
    results = _run_group(("jet-",))
    # spot-check the closed-form expectations behind the frozen ranks
    from math import comb

    assert jets.BUNDLED_PROBES["segre-1-1"].expected_rank == 4       # N + 1
    assert jets.BUNDLED_PROBES["segre-2-1"].expected_rank == 6
    assert jets.BUNDLED_PROBES["segre-2-2"].expected_rank == 9
    assert jets.BUNDLED_PROBES["segre-3-1"].expected_rank == 8
    for n, name in ((3, "p1-cube"), (4, "p1-fourth"), (5, "p1-fifth")):
        assert jets.BUNDLED_PROBES[name].expected_rank == comb(n + 2, 2) - n
    assert jets.BUNDLED_PROBES["flag-threefold"].expected_rank == 8
    assert jets.BUNDLED_PROBES["bordiga"].expected_rank == 9
    _report("criterion-5 jet probes", results)


def test_criterion_6_property_suites():
    from . import test_properties as props

    suites = (
        props.test_series_inverse_identity_500,
        props.test_root_consistency_and_whitney_500,
        props.test_chern_wu_idempotence_500,
        props.test_pushforward_projection_formula_500,
        props.test_jet_rank_bound_and_monotonicity_500,
    )
    failures = []
    for suite in suites:
        try:
            suite()
        except AssertionError as exc:
            failures.append((suite.__name__, exc))
    status = "PASS" if not failures else "FAIL"
    print(f"{status}  criterion-6 property suites "
          f"({len(suites) - len(failures)}/{len(suites)} suites of 500 cases)")
    assert not failures, failures
