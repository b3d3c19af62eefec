"""Fault injection into the verify table: each runner's FAIL branch fires,
with its detail, when an engine name it looks up returns a wrong value, and
a check that raises becomes an ``error:`` row without stopping the table."""

import re
from types import SimpleNamespace

import pytest

from scrollflex import formulas, jets, scans, verify
from scrollflex.exactpoly import Poly


def _copy(record, **fields):
    """``record`` with ``fields`` replaced."""
    values = dict(zip(record.__slots__, record._values(record)))
    return type(record)(**{**values, **fields})


def _wrap(owner, name, change):
    """A patch under which ``owner.name`` returns ``change`` of its result."""
    def patch(monkeypatch):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args, **kwargs: change(original(*args, **kwargs)))
    return patch


def _fake(owner, name, value):
    """A patch under which ``owner.name`` returns ``value``."""
    return lambda monkeypatch: monkeypatch.setattr(owner, name, lambda *args: value)


def _rescan_loses_survivors(monkeypatch):
    # the scan of the doubled bounds, the runner's second, finds nothing
    original, calls = scans.scan, []

    def scan(problem):
        calls.append(problem)
        report = original(problem)
        return _copy(report, survivors=()) if len(calls) > 1 else report
    monkeypatch.setattr(scans, "scan", scan)


def _survivors(change):
    return _wrap(scans, "scan", lambda report: _copy(
        report, survivors=tuple(map(change, report.survivors))))


def _off_family(s):
    return _copy(s, point={**s.point, "d": s.point["d"] + 1}) if s.point["a"] == 2 else s


def _bordiga(minors, content):
    x, y, w = Poly.variables(("x", "y", "w"))
    return _fake(jets, "bundled_minor_report", SimpleNamespace(
        minors=minors(x, y, w), content=content(x, y, w)))


def _spec(dimension, order, columns):
    return SimpleNamespace(dimension=dimension, order=order, coordinates=(1,) * columns)


_PRODUCT = jets.ProductRankCheck(1, 2, 3, 4)

FAULTS = [
    ("class-abelian-surface-k1", _wrap(verify, "inflection_class", lambda c: c + 1),
     r"ell=1: got .*, want "),
    ("degree-abelian-surface-k1", _wrap(verify, "symbolic_degree", lambda p: p + 1),
     r"ell=1: got .*, want "),
    ("numeric-exception-case2",
     _wrap(verify, "degree_of_inflection", lambda r: _copy(r, value=r.value + 1)),
     r"c2=4: got \d+, want \d+"),
    ("consistency-divisor-degree-n3",
     _wrap(formulas, "divisor_degree_m2", lambda pair: (pair[0], pair[1] + 1)),
     r"the two expressions disagree under the substitutions"),
    ("consistency-divisor-degree-n3", _wrap(verify, "degree_class", lambda c: c + 1),
     r"engine gives .*, records give "),
    ("consistency-reduction-order", _wrap(verify, "chern_wu_reduce", lambda c: c * 2),
     r"order matters for \(3, 2, 2, 2\)"),
    ("consistency-secant-quintic",
     _wrap(formulas, "abelian_example4_degree", lambda q: q + 1),
     r"k=2: \d+ vs \d+"),
    ("scan-plane-ambient9", _wrap(scans, "scan", lambda r: _copy(r, survivors=())),
     r"survivors \[\], want \[\(\('d', 10\), \('v', 4\)\)\]"),
    ("scan-plane-ambient10", _wrap(scans, "scan", lambda r: _copy(r, verdict="wrong")),
     r"verdict 'wrong', want 'empty'"),
    ("scan-plane-ambient9", _rescan_loses_survivors,
     r"survivor set changes when bounds are doubled"),
    ("scan-hirzebruch-e1",
     _wrap(scans, "build_problem", lambda p: _copy(
         p, exceptional=_copy(p.exceptional, verified=False))),
     r"condition fails its substitution identity"),
    ("scan-hirzebruch-e0", _survivors(lambda s: _copy(s, annotation=None)),
     r"unexplained survivor \{'a': 11, "),
    ("scan-hirzebruch-e0", _survivors(_off_family),
     r"survivor \{'a': 2, .*\} violates the relation"),
    ("scan-product-q1", _wrap(scans, "scan", lambda r: _copy(r, verdict="wrong")),
     r"verdict 'wrong'"),
    ("jet-minors-cubic-scroll",
     _wrap(jets, "bundled_minor_report", lambda r: _copy(r, content=r.content ** 2)),
     r"content v\^2, want v"),
    ("jet-minors-bordiga", _bordiga(lambda x, y, w: [x], lambda x, y, w: y),
     r"1 minors are not divisible by y"),
    ("jet-minors-bordiga", _bordiga(lambda x, y, w: [], lambda x, y, w: x * y + y * y),
     r"empty content"),
    ("jet-minors-bordiga", _bordiga(lambda x, y, w: [], lambda x, y, w: x),
     r"content x has no factor y"),
    ("jet-product-veronese", _fake(jets, "product_rank_identity", _PRODUCT),
     r"predicted 3, direct 4"),
    ("jet-product-rational-curves", _fake(jets, "product_rank_identity", _PRODUCT),
     r"degree 3, order 2: predicted 3, direct 4"),
    ("jet-row-bound",
     _fake(jets, "bundled_rank_scan", SimpleNamespace(spec=_spec(2, 2, 3), rank=7)),
     r"segre-1-1: rank exceeds the row count"),
    ("jet-row-bound",
     _fake(jets, "bundled_rank_scan", SimpleNamespace(spec=_spec(2, 2, 3), rank=4)),
     r"segre-1-1: rank exceeds the column count"),
    ("jet-row-bound", _fake(verify, "max_rank", 0),
     r"segre-1-1: rank exceeds the structural bound"),
]


@pytest.mark.parametrize("identifier, patch, detail", [
    pytest.param(*fault, id=f"{fault[0]}-{i}") for i, fault in enumerate(FAULTS)])
def test_a_wrong_engine_value_fails_its_row_with_the_detail(monkeypatch, identifier,
                                                             patch, detail):
    checks = [c for c in verify.build_checks() if c[0] == identifier]
    assert len(checks) == 1
    patch(monkeypatch)
    [result] = verify.run_checks(checks=checks)
    assert not result.ok
    assert re.match(detail, result.detail), result.detail
    assert result.row() == f"FAIL  {identifier}  {result.detail}"


def test_a_check_that_raises_reads_error_and_the_table_goes_on():
    def raises():
        raise ValueError("no such number")
    results = verify.run_checks(checks=[("b-passes", lambda: (True, "fine")),
                                        ("a-raises", raises)])
    assert [r.row() for r in results] == ["FAIL  a-raises  error: no such number",
                                          "PASS  b-passes  fine"]
