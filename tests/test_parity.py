"""bench/parity.py prints one digest per output of every workload case."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_parity_smoke_prints_one_digest_per_output():
    pytest.importorskip("scipy")    # perfbench/workloads.py imports it
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "parity.py"),
                           "--smoke", "--seeds", "0-0"],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = dict(line.split(" ") for line in proc.stdout.splitlines())
    assert len(lines) == len(proc.stdout.splitlines())      # every name once
    assert all(re.fullmatch("[0-9a-f]{64}|absent", d) for d in lines.values())
    # 24 smoke certify_sweep cases, 5 certify_fine cases, a CSV and four OBJs
    # of 2 mesh_export surfaces, and 4 outputs of each of 9 CLI calls
    prefixes = [name.split("/")[1] for name in lines]
    assert [prefixes.count(w) for w in ("certify_sweep", "certify_fine", "mesh_export",
                                        "cli_roundtrip")] == [24, 5, 10, 36]
    codes = {name.split("/")[2]: d for name, d in lines.items() if name.endswith("/code")}
    want = {"verify-fault": b"1", "invalid-config": b"2"}
    assert codes == {cid: hashlib.sha256(want.get(cid, b"0")).hexdigest() for cid in codes}
    assert lines["0/cli_roundtrip/invalid-config/output"] == "absent"


def test_parity_refuses_a_malformed_or_empty_seed_range():
    pytest.importorskip("scipy")    # perfbench/workloads.py imports it
    # one process calls main once per range; argparse exits 2 before any workload runs
    script = ("import sys\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import parity\n"
              "for seeds in sys.argv[2:]:\n"
              "    try:\n"
              "        parity.main(['--seeds', seeds])\n"
              "    except SystemExit as exc:\n"
              "        print(exc.code)\n")
    bad = ["1-0", "0-1-2", "0-", "a"]
    proc = subprocess.run([sys.executable, "-c", script, str(ROOT / "bench"), *bad],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2"] * len(bad)
    assert all(f"got {seeds!r}" in proc.stderr for seeds in bad)
