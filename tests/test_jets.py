import itertools
import json
import re
import warnings
from fractions import Fraction
from math import comb

import pytest

from scrollflex import jets, verify
from scrollflex.errors import InvalidInputError, ResourceLimitError
from scrollflex.exactpoly import Poly
from scrollflex.jets import (BUNDLED_PROBES, JetProbeSpec, RankScan,
                             bundled_minor_report, bundled_rank_scan,
                             generic_jet_rank, inflection_equations,
                             jet_matrix, multi_indices, probe_rank,
                             product_rank_identity, segre_product_spec,
                             symbolic_jet_matrix, symbolic_jet_rank)


def test_multi_index_count_and_order():
    idx = multi_indices(2, 2)
    assert idx == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert len(multi_indices(3, 2)) == comb(5, 2)


def test_multi_indices_match_the_filtered_product_and_stop_at_the_row_limit():
    for dimension in range(5):
        for order in range(6):
            block_order = sorted(
                (e for e in itertools.product(range(order + 1), repeat=dimension)
                 if sum(e) <= order),
                key=lambda e: (sum(e), tuple(-x for x in e)))
            assert multi_indices(dimension, order) == block_order
    assert len(multi_indices(1, jets.MAX_JET_ROWS - 1)) == jets.MAX_JET_ROWS
    with pytest.raises(ResourceLimitError):
        multi_indices(1, jets.MAX_JET_ROWS)
    with pytest.raises(ResourceLimitError):
        multi_indices(6, 30)


def test_row_count_matches_binomial():
    for name in ("segre-2-1", "p1-cube", "bordiga"):
        spec = BUNDLED_PROBES[name].build()
        rows = symbolic_jet_matrix(spec)
        assert len(rows) == comb(spec.dimension + spec.order, spec.order)


def test_constants_only_jet_rank_is_one():
    spec = JetProbeSpec(("u1",), (Poly.const(("u1",), 1),
                                  Poly.const(("u1",), 3)), 1)
    assert generic_jet_rank(spec) == 1


def test_jet_matrix_exact_point():
    spec = BUNDLED_PROBES["segre-1-1"].build()
    matrix = jet_matrix(spec, (Fraction(1, 2), Fraction(1, 3)))
    # order 0 row is the coordinate vector itself
    assert matrix[0] == [1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
    assert jet_matrix(spec, (2, Fraction(1, 3))) == jet_matrix(
        spec, (Fraction(2), Fraction(1, 3)))


@pytest.mark.parametrize("point", [(0.1, 2), ("a", 1), (None, 1),
                                   (Fraction(1, 2), 0.5)])
def test_jet_matrix_refuses_inexact_points(point):
    # a float would be sampled at its binary value, 0.1 at 3602879701896397/2^55
    spec = BUNDLED_PROBES["segre-1-1"].build()
    with pytest.raises(InvalidInputError, match="exact rational"):
        jet_matrix(spec, point)


@pytest.mark.parametrize("name", sorted(BUNDLED_PROBES))
def test_bundled_probe_ranks(name):
    probe = BUNDLED_PROBES[name]
    assert generic_jet_rank(probe.build()) == probe.expected_rank


@pytest.mark.parametrize("name", sorted(BUNDLED_PROBES))
def test_bundled_rank_scan_equals_a_fresh_probe(name):
    shared = bundled_rank_scan(name)
    fresh = probe_rank(BUNDLED_PROBES[name].build())
    for field in RankScan.__slots__:
        assert getattr(shared, field) == getattr(fresh, field), field
    assert bundled_rank_scan(name) is shared


def test_rank_rows_give_their_table_result_from_a_cold_scan_cache():
    # each row alone, with no other row having sampled the probes first
    table = {r.identifier: (r.ok, r.detail) for r in verify.run_checks()}
    checks = dict(verify.build_checks())
    ids = ["jet-row-bound"] + [f"jet-rank-{name}" for name in BUNDLED_PROBES]
    for ident in ids:
        bundled_rank_scan.cache_clear()
        (alone,) = verify.run_checks(checks=[(ident, checks[ident])])
        assert (alone.ok, alone.detail) == table[ident], ident
        assert alone.ok
    assert bundled_rank_scan.cache_info().currsize == 1


def test_symbolic_rank_certifies_sampled_rank():
    assert len(BUNDLED_PROBES) == 13
    wrong = [name for name, probe in BUNDLED_PROBES.items()
             if symbolic_jet_rank(probe.build()) != probe.expected_rank]
    assert not wrong


def test_pure_fiber_rows_vanish_on_scroll_charts():
    # charts linear in the fiber variables have zero rows for pure
    # fiber derivatives of order >= 2
    spec = BUNDLED_PROBES["segre-2-1"].build()
    rows = symbolic_jet_matrix(spec)
    idx = multi_indices(spec.dimension, spec.order)
    fiber = spec.variables.index("t1")
    for alpha, row in zip(idx, rows):
        if alpha[fiber] >= 2 and sum(alpha) == alpha[fiber]:
            assert all(entry.is_zero() for entry in row)


def test_minor_content_plane_scroll():
    report = bundled_minor_report("two-summand-plane-scroll", 9)
    v = Poly.variable(report.content.vars, "v")
    assert report.content == v ** 3
    assert report.reduced_locus == "v = 0"


def test_minor_content_cubic_scroll():
    report = bundled_minor_report("cubic-surface-scroll", 5)
    v = Poly.variable(report.content.vars, "v")
    assert report.content == v


def test_minor_content_bordiga_divisible_by_y():
    report = bundled_minor_report("bordiga", 9)
    y = Poly.variable(("x", "y", "w"), "y")
    assert report.nonzero_minors == 100
    assert all(m.is_zero() or m.divisible_by(y) for m in report.minors)
    exps = dict(zip(report.content.vars, report.content.monomial_content()))
    assert exps["y"] >= 1


# Coordinates whose 3x3 jet minors share the factor x*y + 1; its leading
# coefficients vanish at x = 0 and y = 0, where a sampled gcd-degree bound
# drops (spec seeds 170 and 265 led the sampled route there).
CONTENT_PROBE = {"variables": ["x", "y"], "order": 1,
                 "coordinates": ["1", "x", "(x+2)*(x*y^2 + 2*y)",
                                 "2*x*y^3 + 9*x*y^2 + 3*y^2 + 18*y"]}


@pytest.mark.parametrize("seed", [0, 170, 265])
def test_minor_content_is_exact_at_every_seed(seed):
    spec = JetProbeSpec.from_payload(dict(CONTENT_PROBE, seed=seed))
    report = inflection_equations(spec, 3)
    assert str(report.content) == "x*y + 1"
    assert all(m.divisible_by(report.content) for m in report.minors)


def test_minor_size_guard():
    spec = BUNDLED_PROBES["segre-2-1"].build()
    with pytest.raises(InvalidInputError):
        inflection_equations(spec, 12)


def test_minor_count_guard():
    spec = BUNDLED_PROBES["p1-fifth"].build()
    with pytest.raises(ResourceLimitError):
        inflection_equations(spec, 12)


def test_product_identity_veronese():
    check = product_rank_identity(jets.veronese_chart(), 1)
    assert check.holds and check.direct == 9


def test_product_identity_cubic_scroll_base():
    check = product_rank_identity(jets.f1_cubic_chart(), 1)
    assert check.holds and check.direct == 8


@pytest.mark.parametrize("degree,order", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_product_identity_rational_curves(degree, order):
    base = jets.rational_normal_curve_chart(degree, order=order)
    check = product_rank_identity(base, 1)
    assert check.holds
    assert check.direct == 2 * order + 1


def test_segre_product_spec_shape():
    base = jets.veronese_chart()
    product = segre_product_spec(base, 2)
    assert len(product.coordinates) == 3 * len(base.coordinates)
    assert product.dimension == base.dimension + 2


def test_spec_payload_round_trip(tmp_path):
    spec = BUNDLED_PROBES["segre-2-1"].build()
    payload = spec.to_payload()
    again = JetProbeSpec.from_payload(json.loads(json.dumps(payload)))
    assert again == spec
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert JetProbeSpec.load(path) == spec


def test_spec_validation():
    with pytest.raises(InvalidInputError):
        JetProbeSpec(("u1",), (), 2)
    with pytest.raises(InvalidInputError):
        JetProbeSpec(("u1",), (Poly.const(("u1",), 1),), 0)
    with pytest.raises(InvalidInputError):
        JetProbeSpec(("u1",), (Poly.zero(("u1",)),), 2)
    with pytest.warns(UserWarning,
                      match=r"no constant coordinate; the chart in \(u1\) ") as seen:
        JetProbeSpec(("u1",), (Poly.variable(("u1",), "u1"),), 2)
    assert seen[0].filename == __file__
    payload = {"variables": ["u1"], "coordinates": ["u1"], "order": 2}
    with pytest.warns(UserWarning, match=r"\(u1\)") as seen:
        JetProbeSpec.from_payload(payload)
    assert seen[0].filename == __file__


@pytest.mark.parametrize("make", [
    lambda: JetProbeSpec(["x"], ["1", Poly.variable(("y",), "y")], 1),
    lambda: jet_matrix(JetProbeSpec(["x"], ["1", "x"], 1), (1, 2)),
    lambda: product_rank_identity(jets.veronese_chart(order=1), 1),
], ids=["coordinate-over-other-variables", "point-of-wrong-dimension",
        "product-identity-at-order-1"])
def test_jets_refusals(make):
    with pytest.raises(InvalidInputError):
        make()


def test_a_chart_flat_at_every_sample_point_gets_the_resample_notice():
    # x^2 (x - 1)^2 (x + 1)^2 and its derivative vanish at -1, 0 and 1, the
    # only points of height 1; such a chart has no constant coordinate
    with pytest.warns(UserWarning, match="no constant coordinate"):
        spec = JetProbeSpec(["x"], ["x^2*(x - 1)^2*(x + 1)^2"], 1, height=1)
    scan = probe_rank(spec)
    assert scan.rank == 0 and set(scan.per_trial) == {0}
    assert scan.note == "resample notice: every sample point gave the zero matrix"


def test_all_minors_zero_give_a_zero_content():
    report = inflection_equations(JetProbeSpec(["x"], ["1", "2"], 1), 2)
    assert [str(m) for m in report.minors] == ["0"]
    assert report.content.is_zero() and report.nonzero_minors == 0


@pytest.mark.parametrize("name", ["a b", "1x", ""])
def test_spec_refuses_a_variable_name_the_parser_cannot_read(name):
    # a spec over "a b" or "1x" wrote a payload that from_payload refused,
    # and a probe file over "" ran
    payload = {"variables": [name], "coordinates": ["1", name], "order": 2}
    with pytest.raises(InvalidInputError, match=re.escape(f"variable name {name!r}")):
        JetProbeSpec.from_payload(payload)


@pytest.mark.parametrize("name", sorted(BUNDLED_PROBES))
def test_bundled_probes_round_trip_through_their_payload(name):
    spec = BUNDLED_PROBES[name].build()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the bordiga chart has no constant coordinate
        assert JetProbeSpec.from_payload(json.loads(json.dumps(spec.to_payload()))) == spec


def whole_index_jet_matrix(spec):
    """The oracle: every entry differentiated from its coordinate along the
    whole multi-index."""
    rows = []
    for alpha in multi_indices(spec.dimension, spec.order):
        row = []
        for coord in spec.coordinates:
            g = coord
            for name, times in zip(spec.variables, alpha):
                for _ in range(times):
                    g = g.diff(name)
                    if g.is_zero():
                        break
            row.append(g)
        rows.append(tuple(row))
    return tuple(rows)


def _typed_entries(matrix):
    return [[list((e, type(c), c) for e, c in g.terms.items()) for g in row]
            for row in matrix]


@pytest.mark.filterwarnings("ignore:no constant coordinate")
@pytest.mark.parametrize("name", sorted(BUNDLED_PROBES))
def test_parent_row_build_matches_the_whole_index_build(name):
    spec = BUNDLED_PROBES[name].build()
    for order in sorted({spec.order, 3, 4}):
        chart = spec.with_order(order) if order != spec.order else spec
        want = whole_index_jet_matrix(chart)
        got = symbolic_jet_matrix(chart)
        assert got == want and _typed_entries(got) == _typed_entries(want), order


def test_parent_row_build_matches_on_fraction_charts():
    names = ("u", "v", "w")
    u, v, w = Poly.variables(names)
    coords = (Poly.const(names, 1), u * Fraction(1, 3) + v ** 3 * Fraction(3, 2),
              (u + v * 2 - w) ** 4 * Fraction(5, 6), u * v * w ** 2)
    spec = JetProbeSpec(names, coords, 5)
    want = whole_index_jet_matrix(spec)
    assert _typed_entries(symbolic_jet_matrix(spec)) == _typed_entries(want)


def test_term_heavy_charts_are_refused_before_the_build(monkeypatch):
    # rows times coordinate terms, at least DEFAULT_TRIALS times over, is
    # checked as the spec is made, so no jet is built
    monkeypatch.setattr(jets, "symbolic_jet_matrix",
                        lambda spec: pytest.fail("built a refused chart"))
    names = ("u", "v")
    power = (Poly.variable(names, "u") + Poly.variable(names, "v") * 2 + 1) ** 20
    coords = (Poly.const(names, 1),) + (power,) * 12
    terms = 1 + 12 * comb(22, 2)
    with pytest.raises(ResourceLimitError, match=f"4950 jet rows over coordinates of "
                                                 f"{terms} terms"):
        JetProbeSpec(names, coords, 98)
    # the largest order whose rows times terms stays within the limit
    order = max(d for d in range(1, 99)
                if comb(d + 2, 2) * terms <= jets.MAX_JET_TERMS)
    assert JetProbeSpec(names, coords, order).order == order
    with pytest.raises(ResourceLimitError, match="evaluated terms"):
        JetProbeSpec(names, coords, order + 1)
    assert JetProbeSpec(names, coords, order, trials=1).trials == 1
    # more trials than the default scale the evaluated terms: two rows of
    # 1 + 401 terms, within the sampled-row limit up to 20000 trials
    line = (Poly.const(("u",), 1), (Poly.variable(("u",), "u") + 1) ** 400)
    most = jets.MAX_JET_TERMS * jets.DEFAULT_TRIALS // (2 * 402)
    assert JetProbeSpec(("u",), line, 1, trials=most).trials == most == 9950
    with pytest.raises(ResourceLimitError, match="9951 trials of 2 jet rows"):
        JetProbeSpec(("u",), line, 1, trials=most + 1)


@pytest.mark.filterwarnings("ignore:no constant coordinate")
def test_bundled_probes_are_within_the_term_limit():
    fifth = BUNDLED_PROBES["p1-fifth"].build()
    rows = comb(fifth.dimension + fifth.order, fifth.order)
    assert rows * sum(len(c.terms) for c in fifth.coordinates) == 672
    budget = jets.MAX_JET_ROWS * jets.DEFAULT_TRIALS
    assert JetProbeSpec(fifth.variables, fifth.coordinates, fifth.order,
                        trials=budget // rows).trials == 1904
    for name, probe in BUNDLED_PROBES.items():
        spec = probe.build()
        for order in (spec.order, 3, 4):
            assert spec.with_order(order).order == order, name


def test_sampled_rows_are_bounded():
    # 21 rows (two variables at order 5) take DEFAULT_TRIALS * 5000 / 21
    # trials at most
    one = (Poly.const(("u", "v"), 1),)
    budget = jets.MAX_JET_ROWS * jets.DEFAULT_TRIALS
    assert JetProbeSpec(("u", "v"), one, 5, trials=budget // 21).trials == 1904
    with pytest.raises(ResourceLimitError, match="1905 trials of 21 rows"):
        JetProbeSpec(("u", "v"), one, 5, trials=budget // 21 + 1)


def test_probe_rank_report_fields():
    scan = probe_rank(BUNDLED_PROBES["segre-1-1"].build())
    assert scan.rank == 4
    assert len(scan.per_trial) == scan.spec.trials
    assert scan.rows == comb(2 + 2, 2)
    assert max(scan.per_trial) == scan.rank
    payload = scan.to_payload()
    assert payload["rank"] == 4


def test_seed_reproducibility():
    spec = BUNDLED_PROBES["flag-threefold"].build()
    assert probe_rank(spec).per_trial == probe_rank(spec).per_trial


def test_point_rank_never_exceeds_generic_rank():
    import random

    rng = random.Random(5)
    for name in ("segre-2-1", "flag-threefold", "two-summand-plane-scroll"):
        spec = BUNDLED_PROBES[name].build()
        generic = generic_jet_rank(spec)
        for _ in range(5):
            point = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 7))
                          for _ in spec.variables)
            from scrollflex.linalg import rank_rational

            assert rank_rational(jet_matrix(spec, point)) <= generic


def test_rank_and_minors_share_one_jet_matrix(monkeypatch):
    builds = []
    build = jets.symbolic_jet_matrix
    monkeypatch.setattr(jets, "symbolic_jet_matrix",
                        lambda spec: builds.append(spec) or build(spec))
    jets._chart_jet_matrix.cache_clear()
    jets._chart_layout.cache_clear()
    spec = BUNDLED_PROBES["flag-threefold"].build()
    resampled = JetProbeSpec(spec.variables, spec.coordinates, spec.order,
                             trials=3, seed=9)
    probe_rank(spec)
    report = inflection_equations(spec, 8)
    probe_rank(resampled)
    jet_matrix(resampled, (Fraction(1, 2), Fraction(-1, 3), Fraction(2)))
    symbolic_jet_rank(spec)
    assert len(builds) == 1 and report.nonzero_minors == 9
    probe_rank(spec.with_order(3))
    assert len(builds) == 2
    shared = jets._shared_jet_matrix(spec)
    assert type(shared) is tuple and all(type(row) is tuple for row in shared)


def test_probe_rank_lays_out_a_chart_once(monkeypatch):
    import random

    from scrollflex.linalg import rank_rational

    layouts = []
    lay_out = jets._scaled_layout
    monkeypatch.setattr(jets, "_scaled_layout",
                        lambda matrix: layouts.append(matrix) or lay_out(matrix))
    jets._chart_layout.cache_clear()
    base = BUNDLED_PROBES["flag-threefold"].build()
    for seed in (3, 17):
        spec = JetProbeSpec(base.variables, base.coordinates, base.order,
                            trials=8, seed=seed)
        # the ranks of rows from a layout built for this call alone
        layout, monomials = lay_out(jets._shared_jet_matrix(spec))
        rng = random.Random(seed)
        expected = tuple(
            rank_rational(jets._scaled_rows(layout, monomials,
                                            jets._random_point(spec, rng)))
            for _ in range(spec.trials))
        assert probe_rank(spec).per_trial == expected
    assert len(layouts) == 1
