import json
import math

import numpy as np
import pytest

from bergerhelix.cli import main

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


def test_bad_epsilon_exits_two(capsys):
    code = main(["generate", "--epsilon", "-3"])
    assert code == 2


def test_unknown_subcommand_exits_two(capsys):
    assert main(["polish"]) == 2


def test_malformed_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text(json.dumps({"xi": 0.0}))
    assert main(["generate", "--config", str(cfg)]) == 2


def test_missing_config_file_exits_two(tmp_path):
    assert main(["generate", "--config", str(tmp_path / "nope.json")]) == 2


def test_degenerate_grid_size_exits_two(capsys):
    assert main(["generate", "--nu", "1"]) == 2
    assert "nu" in capsys.readouterr().err


def test_generate_fd_method(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["generate", "--nu", "5", "--nv", "7", "--fv-method", "fd",
                 "--output", str(out)]) == 0
    assert out.read_text().count("\n") == 1 + 35


def test_verify_rejects_export_flags(capsys):
    # --pole and --format belong to the export subcommands only
    assert main(["verify", "--pole", "2"]) == 2
    assert main(["verify", "--format", "json"]) == 2
    assert main(["project", "--format", "obj"]) == 2
