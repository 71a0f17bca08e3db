"""bench/layers.py writes the best and the raw samples of every layer."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_layers_smoke_writes_every_layer(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "layers.py"), "--smoke",
                           "--output", str(out)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text(encoding="ascii"))
    names = [f"{layer}/{n}" for n in (11, 16, 21)
             for layer in ("sample_grid", "export_csv", "project_grid", "export_obj")]
    assert list(result["layers"]) == names + ["run_all/21"]
    for timing in result["layers"].values():
        assert len(timing["samples_s"]) == 2
        assert timing["best_s"] == min(timing["samples_s"]) > 0
    assert result["nproc"] >= 1 and result["smoke"] is True
    assert set(result["versions"]) == {"python", "numpy", "bergerhelix"}
    assert "commit" in result and result["host"]["machine"]
    assert len(proc.stdout.splitlines()) == len(names) + 1
