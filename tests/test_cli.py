import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bergerhelix
from bergerhelix import (BergerParams, VerifyConfig, export_csv, make_surface, profile_from_config,
                         run_all, sample_grid)
from bergerhelix.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

EXAMPLE_CONFIG = {
    "xi": math.pi / 2,
    "xi1": {"constant": math.pi / 4},
    "xi2": {"linear": {"slope": 1.0, "offset": 0.0}},
    "xi3": {"linear": {"slope": 1.0, "offset": 0.0}},
    "v_min": 0.0,
    "v_max": 2 * math.pi,
}


def test_constants_subcommand(capsys):
    code = main(["constants", "--epsilon", "1", "--theta", "0.7853981633974483"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["B"] == pytest.approx(1.0)
    assert out["g11"] == pytest.approx(0.14644661, abs=1e-8)
    assert out["alpha1"] == pytest.approx(1.70710678, abs=1e-8)


@pytest.mark.parametrize("command", [["constants"], ["verify", "--nu", "11", "--nv", "11"]])
@pytest.mark.parametrize("eps", ["1e-300", "1e-160", "1e8", "1e160", "1e300"])
def test_epsilon_outside_the_double_range_exits_two(capsys, command, eps):
    assert main([*command, "--epsilon", eps]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "double range" in err and "Traceback" not in err


def test_verify_reference_profile_passes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--nu", "31", "--nv", "31", "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["overall_pass"] is True


def test_verify_with_config_file(tmp_path):
    cfg = tmp_path / "example.json"
    cfg.write_text(json.dumps(EXAMPLE_CONFIG))
    code = main(["verify", "--config", str(cfg), "--nu", "31", "--nv", "31"])
    assert code == 0


def test_verify_exit_one_on_failure(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--nu", "31", "--nv", "31",
                 "--tolerance", "angle_constancy=1e-30", "--output", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["overall_pass"] is False


def test_generate_rejects_hopf_tube_angle(capsys):
    code = main(["generate", "--theta", "1.5707963"])
    assert code == 2
    assert "Hopf-tube" in capsys.readouterr().err


def test_generate_csv(tmp_path):
    out = tmp_path / "grid.csv"
    code = main(["generate", "--nu", "5", "--nv", "6", "--output", str(out)])
    assert code == 0
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "u,v,x1,y1,x2,y2,N1,N2,N3,angle"
    assert len(rows) == 1 + 30


def test_generate_stdout_equals_output_file(tmp_path, capsysbinary):
    for fmt in ("csv", "obj"):
        path = tmp_path / f"grid.{fmt}"
        argv = ["generate", "--nu", "7", "--nv", "9", "--format", fmt]
        assert main(argv + ["--output", str(path)]) == 0
        assert main(argv) == 0
        assert capsysbinary.readouterr().out == path.read_bytes()


def test_generate_obj_deterministic(tmp_path):
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    for path in (a, b):
        code = main(["generate", "--nu", "21", "--nv", "21", "--format", "obj",
                     "--output", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_project_writes_obj(tmp_path):
    out = tmp_path / "fig.obj"
    code = main(["project", "--nu", "15", "--nv", "15", "--pole", "2",
                 "--output", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("v ")
    verts = np.array([[float(t) for t in ln.split()[1:]]
                      for ln in text.strip().split("\n") if ln.startswith("v ")])
    assert np.all(np.isfinite(verts))


def test_bad_tolerance_name_exits_two(capsys):
    code = main(["verify", "--tolerance", "nonsense=1"])
    assert code == 2
    assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "-1", "-inf"])
def test_tolerance_that_is_not_a_non_negative_number_exits_two(capsys, value):
    code = main(["verify", "--nu", "5", "--nv", "5", "--tolerance", f"angle_constancy={value}"])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error:") and "angle_constancy" in err
    assert out == ""


def test_bad_epsilon_exits_two(capsys):
    code = main(["generate", "--epsilon", "-3"])
    assert code == 2


def test_unknown_subcommand_exits_two(capsys):
    assert main(["polish"]) == 2


def test_malformed_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text(json.dumps({"xi": 0.0}))
    assert main(["generate", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("text", [
    json.dumps(dict(EXAMPLE_CONFIG, xi2={"linear": {"slope": "x"}})),
    json.dumps(dict(EXAMPLE_CONFIG, xi2={"linear": {"slope": None}})),
    json.dumps(EXAMPLE_CONFIG)[:40],
    json.dumps(dict(EXAMPLE_CONFIG, xi2={"linear": {"slope": math.nan}}, xi3="auto")),
    # true and false are not numbers, though a Python bool is an int
    json.dumps(dict(EXAMPLE_CONFIG, xi2={"linear": {"slope": True}})),
    json.dumps(dict(EXAMPLE_CONFIG, xi=False)),
    json.dumps(dict(EXAMPLE_CONFIG, xi3="auto", xi1={"table": {
        "v": [0.0, True, 3.0, 2 * math.pi], "value": [math.pi / 4] * 4}})),
], ids=["string-slope", "null-slope", "truncated-json", "nan-slope", "true-slope", "false-xi",
        "true-table-entry"])
def test_malformed_config_values_exit_two(tmp_path, capsys, text):
    cfg = tmp_path / "broken.json"
    cfg.write_text(text)
    assert main(["verify", "--config", str(cfg), "--nu", "5", "--nv", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_missing_config_file_exits_two(tmp_path):
    assert main(["generate", "--config", str(tmp_path / "nope.json")]) == 2


def test_degenerate_grid_size_exits_two(capsys):
    assert main(["generate", "--nu", "1"]) == 2
    assert "nu" in capsys.readouterr().err


def test_verify_refuses_a_degenerate_grid_before_any_check(capsys):
    assert main(["verify", "--nu", "1"]) == 2
    assert capsys.readouterr().err == "error: grid needs integers nu, nv >= 2, got (1, 101)\n"


def test_generate_fd_method(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["generate", "--nu", "5", "--nv", "7", "--fv-method", "fd",
                 "--output", str(out)]) == 0
    assert out.read_text().count("\n") == 1 + 35


@pytest.mark.parametrize("fmt,tail", [("csv", ""), ("obj", " projection=0")])
def test_generate_counts_defects_on_stderr(capsys, fmt, tail):
    # the reference surface is singular along u = 0 (its Gram determinant
    # vanishes like u^2): its 7 samples are degenerate
    assert main(["generate", "--nu", "5", "--nv", "7", "--fv-method", "fd",
                 "--format", fmt]) == 0
    out, err = capsys.readouterr()
    want = "defects: non_finite=0 degenerate_tangent_plane=7"
    assert err == want + tail + "\n"
    if fmt == "csv":   # stdout carries the export alone
        surface = make_surface(BergerParams(1.0, math.pi / 4),
                               profile_from_config(EXAMPLE_CONFIG), fv_method="fd")
        assert out.encode("ascii") == export_csv(sample_grid(surface, 5, 7))


def test_verify_rejects_export_flags(capsys):
    # --pole and --format belong to the export subcommands only
    assert main(["verify", "--pole", "2"]) == 2
    assert main(["verify", "--format", "json"]) == 2
    assert main(["project", "--format", "obj"]) == 2


# Runs `python -m bergerhelix.cli ARGV...` the way `-m` does (runpy, as
# __main__) in a fresh interpreter, after an optional prelude, and prints its
# exit code, the bergerhelix submodules loaded by the end, and which of
# scipy, numpy.polynomial and numpy.ma got imported on the way beyond what
# numpy's own import loads (numpy 1.x loads its subpackages eagerly).  None
# of those three is needed.
_FRESH_CLI = """
import json, runpy, sys
import numpy
optional = [m for m in ("scipy", "numpy.polynomial", "numpy.ma") if m not in sys.modules]
sys.argv = ["bergerhelix", *json.loads(sys.argv[1])]
try:
    runpy.run_module("bergerhelix.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "optional": [m for m in optional if m in sys.modules],
                  "modules": sorted(m.split(".")[1] for m in sys.modules
                                    if m.startswith("bergerhelix."))}))
"""


def _fresh(script, *args):
    """Runs script in a fresh interpreter; the JSON of its last stdout line."""
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _fresh_cli(*argvs, prelude=""):
    """One fresh interpreter per argv; the report of each, in order."""
    return [_fresh(prelude + _FRESH_CLI, json.dumps(argv)) for argv in argvs]


def test_cold_start_without_scipy(tmp_path):
    # closed-form profiles never need scipy, and each subcommand loads only
    # the modules it runs: a malformed config stops in family (exit 2)
    cfg, bad = tmp_path / "linear.json", tmp_path / "bad.json"
    cfg.write_text(json.dumps(EXAMPLE_CONFIG))
    bad.write_text(json.dumps(dict(EXAMPLE_CONFIG, xi1={"cubic": 1.0})))
    out = str(tmp_path / "out")
    size = ["--nu", "11", "--nv", "11", "--output", out]
    results = _fresh_cli(
        ["constants", "--output", out],
        ["verify", *size],
        ["generate", "--format", "csv", *size],
        ["generate", "--format", "obj", *size],
        ["project", "--config", str(cfg), *size],
        ["generate", "--config", str(bad), *size])
    base = ["ambient", "errors"]   # cli itself runs as __main__
    pipeline = sorted([*base, "constants", "family", "surface"])
    assert [(r["code"], r["optional"], r["modules"]) for r in results] == [
        (0, [], sorted([*base, "constants"])),
        (0, [], sorted([*pipeline, "verify"])),
        (0, [], sorted([*pipeline, "export"])),
        (0, [], sorted([*pipeline, "export"])),
        (0, [], sorted([*pipeline, "export"])),
        (2, [], sorted([*base, "family"])),
    ]


_LAZY_TOP = """
import json, sys
import bergerhelix
loaded = sorted(m for m in sys.modules if m.startswith("bergerhelix."))
listed = dir(bergerhelix)
star = {}
exec("from bergerhelix import *", star)
same = [name for name, obj in star.items() if name != "__builtins__"
        and getattr(sys.modules[obj.__module__], name) is obj]
print(json.dumps({"loaded": loaded, "dir": listed, "all": bergerhelix.__all__,
                  "star": sorted(set(star) - {"__builtins__"}), "same": sorted(same)}))
"""


def test_top_level_names_resolve_on_first_use():
    result = _fresh(_LAZY_TOP)
    assert result["loaded"] == []
    assert set(result["all"]) <= set(result["dir"])
    assert result["star"] == result["same"] == sorted(result["all"])
    with pytest.raises(AttributeError, match="'no_such_name'"):
        bergerhelix.no_such_name


def test_table_profile_never_loads_scipy_and_keeps_bytes(tmp_path):
    vs = np.linspace(0.0, 2.0, 9)
    config = dict(EXAMPLE_CONFIG, xi1={"table": {"v": vs.tolist(),
                                                 "value": (0.7 + 0.1 * np.sin(vs)).tolist()}},
                  xi3="auto", v_max=2.0)
    cfg, out = tmp_path / "table.json", tmp_path / "grid.csv"
    cfg.write_text(json.dumps(config))
    results = _fresh_cli(["generate", "--config", str(cfg), "--nu", "9", "--nv", "9",
                          "--output", str(out)])
    assert [(r["code"], r["optional"]) for r in results] == [(0, [])]
    surface = make_surface(BergerParams(1.0, math.pi / 4), profile_from_config(config))
    assert out.read_bytes() == export_csv(sample_grid(surface, 9, 9))


def test_table_profile_runs_where_scipy_cannot_be_imported(tmp_path):
    # a varying xi1 from the table, with xi3 derived, passes verify (exit 0)
    vs = np.linspace(0.0, 2.0, 9)
    config = dict(EXAMPLE_CONFIG, xi1={"table": {"v": vs.tolist(),
                                                 "value": (0.7 + 0.1 * np.sin(vs)).tolist()}},
                  xi3="auto", v_max=2.0)
    cfg, report, grid = tmp_path / "table.json", tmp_path / "report.json", tmp_path / "grid.csv"
    cfg.write_text(json.dumps(config))
    size = ["--nu", "11", "--nv", "11"]
    results = _fresh_cli(
        ["verify", "--config", str(cfg), *size, "--output", str(report)],
        ["generate", "--config", str(cfg), *size, "--output", str(grid)],
        prelude='import sys; sys.modules["scipy"] = None\n')
    assert [r["code"] for r in results] == [0, 0]
    surface = make_surface(BergerParams(1.0, math.pi / 4), profile_from_config(config))
    expected = run_all(surface, VerifyConfig(nu=11, nv=11)).to_json() + "\n"
    assert report.read_bytes() == expected.encode("ascii")
    assert grid.read_bytes() == export_csv(sample_grid(surface, 11, 11))


@pytest.mark.parametrize("table", [
    {"v": [0.0, 1e-320, 1.0, 2 * math.pi], "value": [0.7, 0.8, 0.9, 0.7]},
    {"v": [0.0, 1.0, 2.0, 2 * math.pi], "value": [0.7, 1e308, -1e308, 0.7]},
])
@pytest.mark.parametrize("command", ["verify", "generate"])
def test_table_whose_spline_overflows_exits_two(tmp_path, capsys, table, command):
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps(dict(EXAMPLE_CONFIG, xi1={"table": table})))
    assert main([command, "--config", str(cfg), "--nu", "5", "--nv", "5"]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:") and "double range" in err and "Traceback" not in out + err


def test_derived_xi3_overflow_exits_two_without_warnings(tmp_path):
    # cot^2(0.3) * 1e308 overflows the quadrature of xi3: a config error
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps(dict(EXAMPLE_CONFIG, xi1={"constant": 0.3},
                                   xi2={"linear": {"slope": 1e308}}, xi3="auto")))
    proc = subprocess.run([sys.executable, "-m", "bergerhelix.cli", "verify", "--config", str(cfg),
                           "--nu", "5", "--nv", "5"],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "xi3" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
