"""Best-of-N wall time of each layer of the pipeline, on fixed inputs.

Usage: python3 bench/layers.py --output FILE.json [--smoke]

Times ``sample_grid``, ``export_csv``, ``project_grid`` and ``export_obj`` at
101², 251² and 501², and ``run_all`` at its default 81², on the reference
surface (epsilon 0.8, theta pi/4, the example profile), with the package in
``src/`` of this checkout.  Each layer gets one untimed call, then REPEAT
timed ones; the rounds go over every layer in turn, so a slow stretch of the
host spreads over all of them.  Writes the best and every raw sample of each
layer, in seconds, with the host, its CPU count, the versions and the commit,
and prints one line per layer.  ``--smoke`` takes grids of 11² to 21² and
SMOKE_REPEAT samples.  For one-CPU figures, run it under ``taskset -c 0``.
The host drifts, so compare two checkouts by running each one's copy of this
script in turn, a few times each.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import bergerhelix  # noqa: E402
from bergerhelix import (BergerParams, VerifyConfig, example_profile, export_csv,  # noqa: E402
                         export_obj, make_surface, project_grid, run_all, sample_grid)

SIZES, RUN_ALL_SIZE, REPEAT = (101, 251, 501), 81, 7
SMOKE_SIZES, SMOKE_RUN_ALL_SIZE, SMOKE_REPEAT = (11, 16, 21), 21, 2


def layers(sizes, run_all_size):
    """{name: a call of no arguments}, its input built once."""
    surface = make_surface(BergerParams(0.8, math.pi / 4), example_profile())
    calls = {}
    for n in sizes:
        grid = sample_grid(surface, n, n)
        mesh = project_grid(grid)
        calls.update({
            f"sample_grid/{n}": lambda n=n: sample_grid(surface, n, n),
            f"export_csv/{n}": lambda grid=grid: export_csv(grid),
            f"project_grid/{n}": lambda grid=grid: project_grid(grid),
            f"export_obj/{n}": lambda mesh=mesh: export_obj(mesh),
        })
    config = VerifyConfig(nu=run_all_size, nv=run_all_size)
    calls[f"run_all/{run_all_size}"] = lambda: run_all(surface, config)
    return calls


def commit() -> dict:
    """The checkout's commit and whether src/ differs from it, or None
    outside a git checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                              check=True).stdout.strip()
    try:
        return {"commit": git("rev-parse", "HEAD"),
                "src_modified": bool(git("status", "--porcelain", "--", "src"))}
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "src_modified": None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--output", required=True, help="the JSON file to write")
    ap.add_argument("--smoke", action="store_true", help="small grids and two samples")
    args = ap.parse_args(argv)
    sizes, run_all_size, repeat = ((SMOKE_SIZES, SMOKE_RUN_ALL_SIZE, SMOKE_REPEAT) if args.smoke
                                   else (SIZES, RUN_ALL_SIZE, REPEAT))
    calls = layers(sizes, run_all_size)
    for call in calls.values():
        call()
    samples = {name: [] for name in calls}
    for _ in range(repeat):
        for name, call in calls.items():
            start = time.perf_counter()
            call()
            samples[name].append(time.perf_counter() - start)
    result = {
        "host": {"node": platform.node(), "machine": platform.machine(),
                 "platform": platform.platform()},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "bergerhelix": bergerhelix.__version__},
        **commit(),
        "smoke": args.smoke,
        "repeat": repeat,
        "inputs": "reference surface: BergerParams(0.8, pi/4), example_profile()",
        "layers": {name: {"best_s": min(s), "samples_s": s} for name, s in samples.items()},
    }
    with open(args.output, "w", encoding="ascii") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for name, s in samples.items():
        print(f"{name:18s} best {min(s) * 1e3:9.2f} ms of {len(s)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
