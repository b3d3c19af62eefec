import pytest

from scrollflex import scans
from scrollflex.errors import InternalConsistencyError, InvalidInputError
from scrollflex.exactpoly import Poly
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
    doubled = run_family("Q3", ell=ell, scale=2)
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
    doubled = run_family(family, scale=2, **params)
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
    cond = exceptional_condition("Fe", e=0)
    assert cond.fixed == {"a": 2}
    assert cond.verified
    ok, reason = cond.check(d=8, e=0)
    assert not ok and "degree 8" in reason
    ok, reason = cond.check(d=28, e=0)
    assert ok and "b = 11" in reason
    ok, reason = cond.check(d=13, e=0)
    assert not ok and "even" in reason


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
    cond = exceptional_condition("ProductsBxP1", q=2)
    assert cond.verified
    ok, reason = cond.check(d=12, q=2)
    assert ok and "b = 7" in reason
    ok, reason = cond.check(d=4, q=1)
    assert not ok


def test_unknown_family_rejected():
    with pytest.raises(InvalidInputError):
        build_problem("nope")
    with pytest.raises(InvalidInputError):
        exceptional_condition("P3")


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
