import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from scrollflex import cli, formulas
from scrollflex.chern import GradedClass
from scrollflex.cli import main
from scrollflex.scroll import BASE_PRESETS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rank_command(capsys):
    code, out, _ = run(capsys, "rank", "--n", "3", "--m", "2", "--k", "2")
    assert code == 0
    assert "maximal generic jet rank: 9" in out
    assert "order 2: 5 rows" in out


def test_rank_structured(capsys):
    code, out, _ = run(capsys, "rank", "--n", "4", "--m", "3", "--k", "2",
                       "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["rank"] == 14
    assert payload["config"] == {"command": "rank", "n": 4, "m": 3, "k": 2,
                                 "format": "structured"}


def test_class_command(capsys):
    code, out, _ = run(capsys, "class", "--n", "3", "--m", "2", "--k", "2",
                       "--N", "8")
    assert code == 0
    assert "3*L - 5*C1 + 3*V1" in out
    assert "in range" in out


def test_class_out_of_range_warns_but_reports(capsys):
    code, out, _ = run(capsys, "class", "--n", "3", "--m", "2", "--k", "2",
                       "--N", "11")
    assert code == 0
    assert "not asserted" in out


def test_class_structured_round_trips(capsys):
    code, out, _ = run(capsys, "class", "--n", "4", "--m", "3", "--k", "2",
                       "--N", "15", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    cls = GradedClass.from_payload(payload["result"]["class"])
    assert cls.to_payload() == payload["result"]["class"]
    assert str(cls).startswith("56*L^3")


@pytest.mark.parametrize("fmt, unused", [("pretty", "to_payload"),
                                         ("structured", "__str__")])
def test_class_command_builds_only_the_format_it_prints(capsys, monkeypatch,
                                                        fmt, unused):
    def refused(self):
        raise AssertionError(f"{unused} was built for {fmt} output")

    monkeypatch.setattr(GradedClass, unused, refused)
    code, out, _ = run(capsys, "class", "--n", "4", "--m", "3", "--k", "2",
                       "--N", "15", "--format", fmt)
    monkeypatch.undo()
    assert code == 0
    assert "56*L^3" in (out if fmt == "pretty" else
                        str(GradedClass.from_payload(json.loads(out)["result"]["class"])))


def test_degree_with_preset(capsys):
    code, out, _ = run(capsys, "degree", "--n", "3", "--m", "2", "--k", "2",
                       "--N", "10", "--base", "abelian-surface")
    assert code == 0
    assert "19*d + 27*g2" in out


def test_degree_with_data_file(tmp_path, capsys):
    data = BASE_PRESETS["p2"].numerical(v=4, y=4)
    path = tmp_path / "veronese.json"
    path.write_text(json.dumps(data.to_payload()), encoding="utf-8")
    code, out, _ = run(capsys, "degree", "--n", "3", "--m", "2", "--k", "2",
                       "--N", "10", "--data", str(path))
    assert code == 0
    assert "degree: 6" in out


def test_degree_prints_a_library_warning_without_its_source(tmp_path, capsys):
    data = BASE_PRESETS["p2"].numerical(v=4, y=4).to_payload()
    data["assignments"].update({"v1^2": 0, "v2": 0})  # scroll degree v1^2 - v2
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "degree", "--n", "3", "--m", "2", "--k", "2",
                         "--N", "10", "--data", str(path))
    assert code == 0 and out.startswith("degree: ")
    assert err == "warning: base data gives non-positive scroll degree d=0\n"


FORMAL = "warning: setup out of range; value is formal"


@pytest.mark.parametrize("N, in_range", [(11, False), (9, True), (3, False)])
@pytest.mark.parametrize("command", ["class", "data", "base", "bare"])
def test_every_class_and_degree_path_warns_out_of_range(tmp_path, capsys,
                                                        command, N, in_range):
    path = tmp_path / "veronese.json"
    path.write_text(json.dumps(BASE_PRESETS["p2"].numerical(v=4, y=4).to_payload()),
                    encoding="utf-8")
    extra = {"class": [], "data": ["--data", str(path)], "base": ["--base", "p2"],
             "bare": []}[command]
    argv = ["class" if command == "class" else "degree", "--n", "3", "--m", "2",
            "--k", "2", "--N", str(N), *extra]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    first, *rest = out.splitlines()
    if command == "class":
        warned = first == (f"warning: N={N} is outside [8, 10]; the class formula "
                           "is not asserted for this setup (formal result follows)")
    else:
        warned = first == FORMAL
    assert warned is not in_range
    assert not any(line.startswith("warning:") for line in rest)
    # the structured payload carries no warning line, and says whether N is
    # in range on every path
    code, out, err = run(capsys, *argv, "--format", "structured")
    assert code == 0 and err == "" and "warning" not in out
    assert json.loads(out)["result"]["in_range"] is in_range


def test_degree_base_and_data_conflict(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text("{}", encoding="utf-8")
    code, _, err = run(capsys, "degree", "--n", "3", "--m", "2", "--k", "2",
                       "--N", "10", "--base", "p2", "--data", str(path))
    assert code == 1
    assert "conflict" in err


def test_degree_refuses_an_empty_data_path(capsys):
    # an empty --data is a path like any other, not a missing option
    code, out, err = run(capsys, "degree", "--n", "3", "--m", "2", "--k", "2",
                         "--N", "10", "--data", "")
    assert code == 1 and out == "" and err.startswith("error:")
    code, out, err = run(capsys, "degree", "--n", "3", "--m", "2", "--k", "2",
                         "--N", "10", "--base", "p2", "--data", "")
    assert code == 1 and out == "" and "conflict" in err


@pytest.mark.parametrize("m, preset", [(2, "p3"), (3, "p2"), (2, "abelian-threefold")])
def test_degree_refuses_a_preset_of_another_dimension(capsys, m, preset):
    code, out, err = run(capsys, "degree", "--n", "4", "--m", str(m), "--k", "2",
                         "--N", "40", "--base", preset)
    dimension = BASE_PRESETS[preset].dimension
    assert code == 1 and out == ""
    assert err == (f"error: preset {preset} of dimension {dimension} "
                   f"does not match m={m}\n")


def test_data_dir_environment_variable(tmp_path, capsys, monkeypatch):
    data = BASE_PRESETS["p2"].numerical(v=4, y=4)
    (tmp_path / "nested.json").write_text(json.dumps(data.to_payload()),
                                          encoding="utf-8")
    monkeypatch.setenv(cli.DATA_DIR_ENV, str(tmp_path))
    code, out, _ = run(capsys, "degree", "--n", "3", "--m", "2", "--k", "2",
                       "--N", "10", "--data", "nested.json")
    assert code == 0
    assert "degree: 6" in out


def test_scan_command_structured(capsys):
    code, out, _ = run(capsys, "scan", "P2_N9", "--format", "structured")
    assert code == 0
    payload = json.loads(out)["result"]
    assert payload["verdict"] == "empty after geometric exclusions"
    assert payload["survivors"][0]["point"] == {"v": 4, "d": 10}


@pytest.mark.parametrize("argv", [("Fe", "--q", "3"), ("P3", "--e", "2"),
                                  ("P2_N9", "--l", "3")])
def test_scan_refuses_a_parameter_its_family_does_not_take(capsys, argv):
    code, out, err = run(capsys, "scan", *argv)
    assert code == 1 and not out
    assert err.startswith("error: scan family ") and "Traceback" not in err


def test_scan_missing_data_message(capsys):
    code, out, _ = run(capsys, "scan", "Q3", "--l", "3")
    assert code == 0
    assert "empty" in out


def test_jet_command(tmp_path, capsys):
    spec_payload = {
        "variables": ["u1", "t"],
        "coordinates": ["1", "u1", "t", "t*u1", "t*u1^2"],
        "order": 2,
        "trials": 4,
        "seed": 11,
    }
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(spec_payload), encoding="utf-8")
    code, out, _ = run(capsys, "jet", str(path), "--minors", "5")
    assert code == 0
    assert "generic jet rank (order 2): 5" in out
    assert "common content" in out and "t" in out


def test_jet_prints_a_library_warning_without_its_source(tmp_path, capsys):
    from scrollflex.jets import BUNDLED_PROBES

    path = tmp_path / "bordiga.json"
    path.write_text(json.dumps(BUNDLED_PROBES["bordiga"].build().to_payload()),
                    encoding="utf-8")
    warning = ("warning: no constant coordinate; the chart in (x, y, w) "
               "is not normalized\n")
    code, out, err = run(capsys, "jet", str(path), "--trials", "2")
    assert code == 0 and "generic jet rank (order 2): 9" in out
    assert err == warning
    # the warning comes before an error line
    code, out, err = run(capsys, "jet", str(path), "--trials", "0")
    assert (code, out, err) == (1, "", warning + "error: need at least one trial\n")


def test_library_warnings_print_under_an_error_filter(tmp_path, capsys):
    from scrollflex.jets import BUNDLED_PROBES

    path = tmp_path / "bordiga.json"
    path.write_text(json.dumps(BUNDLED_PROBES["bordiga"].build().to_payload()),
                    encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "jet", str(path), "--trials", "2")
    assert code == 0 and "generic jet rank (order 2): 9" in out
    assert err == ("warning: no constant coordinate; the chart in (x, y, w) "
                   "is not normalized\n")


def test_jet_coordinates_may_end_in_blanks(tmp_path, capsys):
    results = []
    for coordinates in (["1", "u1", "t", "t*u1", "t*u1^2"],
                        ["1 ", "u1 ", "t", "t*u1", "t*u1^2 "]):
        path = tmp_path / "probe.json"
        path.write_text(json.dumps({"variables": ["u1", "t"], "order": 2, "seed": 3,
                                    "coordinates": coordinates}), encoding="utf-8")
        results.append(run(capsys, "jet", str(path), "--trials", "2"))
    assert results[0][0] == 0 and results[1] == results[0]


def test_pretty_jet_minors_skip_the_minors_payload(tmp_path, capsys, monkeypatch):
    from scrollflex import jets

    path = tmp_path / "probe.json"
    path.write_text(json.dumps({"variables": ["u1", "t"], "order": 2,
                                "coordinates": ["1", "u1", "t", "t*u1", "t*u1^2"]}),
                    encoding="utf-8")
    built = jets.MinorReport.to_payload

    def refuse(report):
        raise AssertionError("pretty output built the minors payload")

    monkeypatch.setattr(jets.MinorReport, "to_payload", refuse)
    code, out, _ = run(capsys, "jet", str(path), "--minors", "5")
    assert code == 0 and "common content of 5x5 minors" in out
    monkeypatch.setattr(jets.MinorReport, "to_payload", built)
    code, out, _ = run(capsys, "jet", str(path), "--minors", "5",
                       "--format", "structured")
    minors = json.loads(out)["result"]["minors"]
    assert code == 0 and minors["size"] == 5 and minors["minors"]


def test_jet_seed_override(tmp_path, capsys):
    spec_payload = {
        "variables": ["u1", "t"],
        "coordinates": ["1", "u1", "t", "t*u1"],
        "order": 2,
    }
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(spec_payload), encoding="utf-8")
    code, out, _ = run(capsys, "jet", str(path), "--seed", "5", "--trials", "3",
                       "--format", "structured")
    assert code == 0
    payload = json.loads(out)["result"]
    assert payload["spec"]["seed"] == 5
    assert len(payload["per_trial"]) == 3


def test_jet_missing_file_errors(capsys):
    code, _, err = run(capsys, "jet", "no-such-file.json")
    assert code == 1
    assert "error" in err


def _degree_with_data(capsys, path):
    return run(capsys, "degree", "--n", "3", "--m", "2", "--k", "2",
               "--N", "10", "--data", str(path))


def test_degree_data_without_assignments_errors(tmp_path, capsys):
    path = tmp_path / "numbers.json"
    path.write_text(json.dumps({"dimension": 2}), encoding="utf-8")
    code, _, err = _degree_with_data(capsys, path)
    assert code == 1
    assert err.startswith("error:") and "'assignments'" in err


@pytest.mark.parametrize("assignments", [
    [1, 2], {"zz": 1}, {"c1^x": 1}, {"c1*": 1}, {"c": 1},
    # JSON true parses to a bool, which Python counts as the integer 1
    {"c1^2": 9, "c2": 3, "c1*v1": 12, "v1^2": 16, "v2": True}])
def test_degree_data_with_malformed_assignments_errors(tmp_path, capsys,
                                                       assignments):
    path = tmp_path / "numbers.json"
    path.write_text(json.dumps({"dimension": 2, "assignments": assignments}),
                    encoding="utf-8")
    code, _, err = _degree_with_data(capsys, path)
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("content", [b"c1^2 = 9", b"\xff\xfe{}"])
def test_degree_data_not_json_errors(tmp_path, capsys, content):
    path = tmp_path / "numbers.json"
    path.write_bytes(content)
    code, _, err = _degree_with_data(capsys, path)
    assert code == 1
    assert err.startswith("error:") and "not valid JSON" in err


def test_jet_probe_without_coordinates_errors(tmp_path, capsys):
    path = tmp_path / "probe.json"
    path.write_text(json.dumps({"variables": ["u"], "order": 2}), encoding="utf-8")
    code, _, err = run(capsys, "jet", str(path))
    assert code == 1
    assert err.startswith("error:") and "'coordinates'" in err


@pytest.mark.parametrize("field, value", [
    ("coordinates", [1, "x"]),   # not a polynomial string
    ("order", "2"),
    ("order", True),             # a bool would run as order 1
    ("height", 0),               # no sample points to draw from
    ("variables", "xy"),         # a string would split into names x, y
])
def test_jet_probe_with_malformed_field_errors(tmp_path, capsys, field, value):
    payload = {"variables": ["x", "y"], "coordinates": ["1", "x", "y"],
               "order": 2}
    payload[field] = value
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, _, err = run(capsys, "jet", str(path))
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


def test_jet_probe_past_the_row_limit_is_refused_at_once(tmp_path, capsys):
    # six variables at order 30 would need comb(36, 30) = 1947792 jet rows
    names = [f"x{i}" for i in range(6)]
    payload = {"variables": names, "coordinates": ["1", *names], "order": 30,
               "trials": 1}
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    start = time.perf_counter()
    code, _, err = run(capsys, "jet", str(path))
    assert time.perf_counter() - start < 1
    assert code == 1
    assert err.startswith("error:") and "1947792 rows" in err


def test_jet_sampling_past_the_row_budget_is_refused_at_once(tmp_path, capsys):
    payload = {"variables": ["u1", "t"],
               "coordinates": ["1", "u1", "t", "t*u1"], "order": 2}
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "jet", str(path), "--trials", "100000000")
    assert time.perf_counter() - start < 1
    assert code == 1 and not out
    assert err.startswith("error:") and "100000000 trials of 6 rows" in err


@pytest.mark.parametrize("seed", ["0", "170"])
def test_jet_minor_content_does_not_depend_on_the_seed(tmp_path, capsys, seed):
    payload = {"variables": ["x", "y"], "order": 1,
               "coordinates": ["1", "x", "(x+2)*(x*y^2 + 2*y)",
                               "2*x*y^3 + 9*x*y^2 + 3*y^2 + 18*y"]}
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, _ = run(capsys, "jet", str(path), "--minors", "3", "--seed", seed)
    assert code == 0
    assert "common content of 3x3 minors: x*y + 1\n" in out
    assert "reduced locus: x*y + 1 = 0" in out


@pytest.mark.parametrize("command", ["class", "degree"])
@pytest.mark.parametrize("dims", [("40", "39", "2", "898"),
                                  ("4", "2", "100000000", "15000000250000000"),
                                  ("2001", "2000", "2", "2007001"),
                                  ("4", "2", "625000", "585939062500")])
def test_oversized_class_is_refused_at_once(capsys, command, dims):
    # refused before any pass: k = 10^8 needs Adams recursions of order k;
    # n = 40 and n = 2001 have base rings too wide for a single pass at
    # codimension n, checked before any bundle is built; and k = 625000 is
    # the first order refused at codimension 1, by S^k T_Y, metered first
    n, m, k, N = dims
    start = time.perf_counter()
    code, _, err = run(capsys, command, "--n", n, "--m", m, "--k", k, "--N", N)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert err.startswith("error:") and "over the limit" in err


@pytest.mark.parametrize("command,dims,seconds", [
    # the largest n accepted at the top of the range, about 1.5 s here
    ("degree", ("22", "21", "2", "295"), 10),
    # a large order at codimension 1: the Adams sums are linear in k
    ("class", ("4", "2", "4500", "30386250"), 2),
])
def test_class_at_the_work_limit_is_answered(capsys, command, dims, seconds):
    n, m, k, N = dims
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--n", n, "--m", m, "--k", k, "--N", N)
    assert time.perf_counter() - start < seconds
    assert code == 0 and out and not err


def test_oversized_segre_series_is_refused_before_it_is_built(capsys):
    # 1 / c(V^dual) over a 7999-fold has about 1.6 * 10^7 terms
    start = time.perf_counter()
    code, out, err = run(capsys, "degree", "--n", "8000", "--m", "7999",
                         "--k", "2", "--N", "32012000")
    assert time.perf_counter() - start < 5
    assert code == 1 and not out
    assert err.startswith("error:") and "Segre series" in err and "over the limit" in err


@pytest.mark.parametrize("dims,reason", [
    # k + 1 orders to list; ranks of about 8900 and 1900 digits, and one of
    # 1002 digits that only the exact value shows
    (("3", "2", "100000000"), "100000001 orders"),
    (("1000000", "999999", "3000"), "3001 orders"),
    (("1000000", "999999", "500"), "over 1000 digits"),
    (("1" + "0" * 1001, "1", "1"), "over 1000 digits"),
])
def test_oversized_rank_is_refused_at_once(capsys, dims, reason):
    n, m, k = dims
    start = time.perf_counter()
    code, out, err = run(capsys, "rank", "--n", n, "--m", m, "--k", k)
    assert time.perf_counter() - start < 1
    assert code == 1 and not out
    assert err.startswith("error:") and reason in err


def test_rank_at_the_limits_is_answered(capsys):
    # 1000 orders, and a rank of 600 digits
    code, out, _ = run(capsys, "rank", "--n", "1000", "--m", "999",
                       "--k", "999")
    assert code == 0
    assert len(out.splitlines()) == 1001
    assert len(out.splitlines()[0].split(": ")[1]) == 600


def test_jet_negative_minor_size_errors(tmp_path, capsys):
    payload = {"variables": ["u1", "t"],
               "coordinates": ["1", "u1", "t", "t*u1"], "order": 2}
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, _, err = run(capsys, "jet", str(path), "--minors", "-3")
    assert code == 1
    assert err.startswith("error:") and "at least 1" in err
    code, out, err = run(capsys, "jet", str(path), "--minors", "0")
    assert code == 1 and out == ""
    assert err == "error: minor size must be at least 1, got 0\n"


def test_jet_probe_nested_too_deep_errors(tmp_path, capsys):
    payload = {"variables": ["x"], "coordinates": ["1", "(" * 3000 + "x" + ")" * 3000],
               "order": 2}
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, _, err = run(capsys, "jet", str(path))
    assert code == 1
    assert err.startswith("error:") and "nested deeper than" in err


def test_jet_probe_not_json_errors(tmp_path, capsys):
    path = tmp_path / "probe.json"
    path.write_text("{\"variables\": [\"u\"],", encoding="utf-8")
    code, _, err = run(capsys, "jet", str(path))
    assert code == 1
    assert err.startswith("error:") and "not valid JSON" in err


def test_verify_filter_passes(capsys):
    code, out, _ = run(capsys, "verify", "--filter", "numeric-secant")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("fmt", ["pretty", "structured"])
def test_verify_refuses_a_filter_that_matches_no_check(capsys, fmt):
    # a mistyped filter used to run no check and report 0/0 as a pass
    code, out, err = run(capsys, "verify", "--filter", "nosuchcheck", "--format", fmt)
    assert code == 1 and out == ""
    assert err == "error: no check id contains 'nosuchcheck'\n"


def test_verify_structured_rows_carry_their_wall_time(capsys):
    code, out, _ = run(capsys, "verify", "--filter", "class-threefold")
    pretty = [line.split()[:2] for line in out.splitlines()[:-1]]
    assert "elapsed" not in out
    code_s, out_s, _ = run(capsys, "verify", "--filter", "class-threefold",
                           "--format", "structured")
    rows = json.loads(out_s)["result"]["results"]
    assert code == code_s == 0
    assert [["PASS" if r["ok"] else "FAIL", r["id"]] for r in rows] == pretty
    assert len(rows) == 3
    for row in rows:
        assert isinstance(row["elapsed_ms"], float) and row["elapsed_ms"] >= 0


def test_verify_fault_injection(capsys, monkeypatch):
    # corrupt one transcribed coefficient: the matching rows must fail by name
    good = formulas.threefold_surface_class

    def corrupted(part, ring=None):
        cls = good(part, ring)
        return cls + cls.ring.variable("L") ** part

    monkeypatch.setattr(formulas, "threefold_surface_class", corrupted)
    code, out, _ = run(capsys, "verify", "--filter", "class-threefold-surface")
    assert code == 1
    assert "FAIL  class-threefold-surface-l1" in out


def test_run_config_rejects_unknown_round_trip(capsys):
    # the structured config holds the given options under their dest names
    code, out, _ = run(capsys, "scan", "P3", "--l", "2", "--format", "structured")
    assert code == 0
    assert json.loads(out)["config"] == {"command": "scan", "family": "P3",
                                         "ell": 2, "format": "structured"}


def test_rank_over_a_curve_base(capsys):
    code, out, _ = run(capsys, "rank", "--n", "3", "--m", "1", "--k", "2")
    assert code == 0
    assert "maximal generic jet rank: 7" in out


def _modules_left_in(probe, names):
    """Which of ``names`` a fresh ``python -S`` child has loaded after
    ``probe``; -S keeps the site hook, which may import more, out of it."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = f"{probe}\nimport sys\nprint(sorted({set(names)!r} & set(sys.modules)))\n"
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_cli_import_leaves_out_pathlib():
    assert _modules_left_in("import scrollflex.cli", ["pathlib"]) == "[]"


def test_command_imports_leave_out_dataclasses_and_inspect():
    probe = ("import scrollflex.cli\n"
             "from scrollflex import jets, scans, formulas, verify")
    assert _modules_left_in(probe, ["dataclasses", "inspect"]) == "[]"


def test_a_command_leaves_out_the_argument_parsing_modules():
    probe = ("from scrollflex.cli import main\n"
             "main(['rank', '--n', '3', '--m', '2', '--k', '2'])")
    assert _modules_left_in(probe, ["argparse", "gettext", "locale"]) == "[]"
