"""Self-test of the benchmark: python3 perfbench/selftest.py

1. A tiny-size smoke run of every workload, traced and untraced, must emit
   exactly the metrics BENCHMARK.json declares, with their units.
2. The oracle must count an injected fault as a failure that no known
   defect explains, and must reject a corrupted export.
3. In a directory holding only BENCHMARK.json and the benchmark, the
   benchmark must exit non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle                                                    # noqa: E402
from bergerhelix import example_profile, export_csv, run_all, sample_grid  # noqa: E402
from workloads import WHY, Case, build_surface                   # noqa: E402


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, stdin=subprocess.DEVNULL, capture_output=True,
                          timeout=180)


def check_smoke(spec) -> list:
    errors = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(ROOT, wl, trace)
            if proc.returncode != 0:
                errors.append(f"{wl} trace={trace}: exit {proc.returncode}\n"
                              f"{proc.stderr.decode()[-2000:]}")
                continue
            last = json.loads(proc.stdout.decode().strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            if set(last) != {"correct", "attempted", "failed", "metrics"} or got != want:
                errors.append(f"{wl} trace={trace}: metrics {sorted(got.items())} "
                              f"differ from BENCHMARK.json")
            if not all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in last["metrics"].values()) or last["attempted"] < 1:
                errors.append(f"{wl} trace={trace}: non-finite value or no operation")
            print(f"smoke {wl} trace={trace}: correct={last['correct']} "
                  f"attempted={last['attempted']} failed={last['failed']}")
    return errors


def check_oracle() -> list:
    errors = []
    case = Case("injected", "reference", 0.8, 0.7, "pass", fault="alpha1")
    case.surface = build_surface(case, example_profile())
    problems = oracle.check_report(case, run_all(case.surface))
    if not problems or oracle.is_known(case, problems):
        errors.append(f"an alpha1 fault labelled valid was not counted as a failure: {problems}")
    labelled = dataclasses.replace(case, known="D2")
    if not oracle.is_known(labelled, problems):
        errors.append("a labelled verdict failure was not reported as a known defect")

    clean = Case("clean", "reference", 0.8, 0.7, "pass", fv_method="analytic")
    clean.surface = build_surface(clean, example_profile())
    grid = sample_grid(clean.surface, 9, 9)
    data = export_csv(grid)
    if oracle.check_csv(data, clean.surface, 9, 9, len(grid.defects))[0]:
        errors.append("the oracle rejected a correct CSV export")
    header, _, body = data.partition(b"\n")
    rows = body.split(b"\n")
    cols = rows[3].split(b",")
    cols[2] = repr(float(cols[2]) + 1e-9).encode()
    rows[3] = b",".join(cols)
    if not oracle.check_csv(header + b"\n" + b"\n".join(rows), clean.surface, 9, 9,
                            len(grid.defects))[0]:
        errors.append("the oracle accepted a CSV row moved off S^3")
    return errors


def check_bare() -> list:
    bare = os.path.join(HERE, "_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(bare, "certify_sweep", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["without the sources the benchmark still printed a result or exited 0"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    errors = [] if {w["name"]: w["why"] for w in spec["workloads"]} == WHY else [
        "the workloads' why in BENCHMARK.json differ from workloads.WHY"]
    errors += check_oracle() + check_bare() + check_smoke(spec)
    for e in errors:
        print("FAIL:", e)
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
