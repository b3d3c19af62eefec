"""Tests of the benchmark itself: inputs, digests, self times, wrappers.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from run import percentile, summarize  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return json.loads((BENCH / "reference.json").read_text("utf-8"))


def _generate(seed, reference, work: Path):
    work.mkdir()
    cold = wl.cold_pool(seed, reference, work)
    jet = wl.jet_pool(seed, work)
    warm = wl.warm_queries(seed, reference)
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}

    def text(pool):
        return json.dumps(pool, sort_keys=True).replace(str(work), "")

    return files, text(cold), text(jet), json.dumps(warm, sort_keys=True)


def test_same_seed_gives_identical_inputs(reference, tmp_path):
    a = _generate(7, reference, tmp_path / "a")
    b = _generate(7, reference, tmp_path / "b")
    assert a == b
    c = _generate(8, reference, tmp_path / "c")
    assert a[0] != c[0] and a[3] != c[3]


def test_generated_setups_are_pinned(reference, tmp_path):
    for seed in range(5):
        work = tmp_path / str(seed)
        work.mkdir()
        for item in wl.cold_pool(seed, reference, work):
            table = "base" if item["kind"] == "degree-base" else (
                "class" if item["kind"] == "class" else "degree_class")
            assert item["key"] in reference[table]
        for query in wl.warm_queries(seed, reference):
            table = "base" if query["kind"] == "symbolic" else "degree_class"
            assert query["key"] in reference[table]


def test_data_files_give_integral_degrees(reference, tmp_path):
    for item in wl.cold_pool(3, reference, tmp_path):
        if item["kind"] == "degree-data":
            pinned = reference["degree_class"][item["key"]]
            value = wl.pair(pinned["terms"], pinned["names"],
                            item["data"]["assignments"])
            assert value.denominator == 1


def test_digest_ignores_term_order():
    payload = {"ring": {"variables": [["L", 1, None], ["C1", 1, "base"]]},
               "terms": [[[1, 0], 3, 1], [[0, 1], -1, 2], [[2, 0], 5, 7]]}
    shuffled = dict(payload, terms=list(reversed(payload["terms"])))
    assert (check.digest(check.class_content(payload))
            == check.digest(check.class_content(shuffled)))
    changed = dict(payload, terms=[[[1, 0], 4, 1]] + payload["terms"][1:])
    assert (check.digest(check.class_content(payload))
            != check.digest(check.class_content(changed)))
    names = ("x", "y")
    assert (check.poly_text_content("x^2 - 3*y + 1/2", names)
            == check.poly_text_content("1/2 - 3*y + x^2", names))


def test_output_digest_ignores_timing_fields_but_not_content():
    cls = {"ring": {"variables": [["L", 1, None]]}, "terms": [[[1], 2, 1]]}
    result = {"codim": 1, "in_range": True, "class": cls, "reduced": cls}
    item = {"kind": "class"}

    def out(result, **config):
        return json.dumps({"config": config, "result": result}).encode()

    timed = dict(result, elapsed_ms=12.5, range=[1, 2])
    assert (check.output_digest(item, out(result))
            == check.output_digest(item, out(timed, n=3)))
    wrong = dict(result, **{"class": dict(cls, terms=[[[1], 3, 1]])})
    assert check.output_digest(item, out(result)) != check.output_digest(item, out(wrong))

    rows = [{"id": "a", "ok": True}, {"id": "b", "ok": True}]
    table = {"passed": True, "results": rows}
    timed_rows = [dict(r, elapsed_ms=1.0 + i) for i, r in enumerate(reversed(rows))]
    verify = {"kind": "verify"}
    assert (check.output_digest(verify, out(table))
            == check.output_digest(verify, out(dict(table, results=timed_rows))))
    failed = dict(table, results=[rows[0], {"id": "b", "ok": False}])
    assert check.output_digest(verify, out(table)) != check.output_digest(verify, out(failed))
    assert check.output_digest(verify, b"Traceback") is None


def test_self_times_on_synthetic_tree():
    # id, name, start, end, parent, request, thread, hidden seconds
    tree = [
        (0, "scroll.inflection_class", 0.0, 10.0, None, "r", 1, 1.0),
        (1, "chern.table_first", 1.0, 3.0, 0, "r", 1, 0.5),
        (2, "chern.table_first", 2.0, 5.0, 0, "r", 1, 0.0),  # overlaps 1
        (3, "chern.series_inverse", 6.0, 7.0, 0, "r", 1, 0.0),
        (4, "chern.tensor_line", 6.5, 6.75, 3, "r", 1, 0.0),
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({0: 10 - 4 - 1 - 1, 1: 1.5, 2: 3.0,
                                   3: 0.75, 4: 0.25})
    totals = spans.merge([{"spans": [list(s) for s in tree],
                           "kernels": {"chern.mul": [3, 1.5, 1.5]},
                           "counters": {}}])
    assert totals["spans"]["chern.table_first"] == pytest.approx([2, 5.0, 4.5])
    assert totals["busy"]["chern"] == pytest.approx(6.0)
    assert totals["roots"] == {"r": 10.0}
    layer = spans.per_layer(totals, 0.0, 0.0)
    assert layer["chern.self_s"] == pytest.approx(4.5 + 0.75 + 0.25 + 1.5)
    assert layer["scroll.self_s"] == pytest.approx(4.0)


def test_wrappers_bind_where_names_are_looked_up():
    from scrollflex import chern, cli, scroll, verify
    from scrollflex.exactpoly import Poly

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert scroll.tensor is not chern.tensor.__wrapped__
        assert scroll.tensor is chern.tensor
        assert hasattr(scroll.sym_power, "__wrapped__")
        assert hasattr(scroll.tensor_line, "__wrapped__")
        assert hasattr(cli.inflection_class, "__wrapped__")
        assert hasattr(verify.degree_class, "__wrapped__")
        assert chern.GradedClass.__rmul__ is chern.GradedClass.__mul__
        assert hasattr(chern.GradedClass.__rmul__, "__wrapped__")
        assert hasattr(Poly.__rmul__, "__wrapped__")
        tracer.request = "t"
        setup = scroll.ScrollSetup(3, 2, 2, 8)
        scroll.inflection_class(setup)
        x = Poly.variable(("x",), "x")
        _ = 2 * x, x * x
    finally:
        tracer.uninstall()
    assert not hasattr(scroll.tensor, "__wrapped__")
    assert not hasattr(chern.GradedClass.__mul__, "__wrapped__")
    doc = tracer.document()
    names = {s[1] for s in doc["spans"]}
    assert {"scroll.inflection_class", "chern.series_inverse"} <= names
    assert doc["kernels"]["exactpoly.mul"][0] == 2
    assert doc["counters"]["exactpoly.mul_term_products"] == 1


def test_percentile_interpolates():
    assert percentile([3.0], 95) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert percentile([0.0, 10.0], 95) == pytest.approx(9.5)


def test_latency_percentiles_are_taken_pass_by_pass():
    two = {"latencies": [[0.1, 0.2, 0.9]] * 2, "passes": [1.2, 1.2], "rss_kb": 0}
    three = dict(two, latencies=[[0.1, 0.2, 0.9]] * 3, passes=[1.2] * 3)
    a, b = summarize(two, [0.1], 1), summarize(three, [0.1], 1)
    assert {k: pytest.approx(v[1]) for k, v in a.items()} == {
        k: v[1] for k, v in b.items()}


def test_benchmark_json_lists_every_printed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [m["name"] for m in spec["workloads"]] == list(wl.WORKLOADS)
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == spans.PER_LAYER)
    sample = {"latencies": [[0.1, 0.2]], "passes": [0.3], "rss_kb": 1024}
    printed = summarize(sample, [0.1], 1)
    assert [m["name"] for m in spec["end_to_end"]] == list(printed)
    assert all(m["unit"] == printed[m["name"]][0] for m in spec["end_to_end"])


def test_clock_scales_by_the_samples_around_the_work(monkeypatch):
    import calibrate

    samples = iter([0.02, 0.04, 0.01, 0.03])
    monkeypatch.setattr(calibrate, "sample", lambda: next(samples))
    clock = calibrate.Clock()
    assert clock.factor(0.5) == pytest.approx(2 * 0.02 / (0.02 + 0.04))
    # 1.5 s of work: medians of the last two samples before it (0.03) and
    # of the two taken after it (0.02).
    assert clock.factor(1.5) == pytest.approx(2 * 0.02 / (0.03 + 0.02))
