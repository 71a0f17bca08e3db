"""SHA-256 digests of every output of the benchmark's workloads.

Usage: python3 bench/parity.py --seeds A-B [--smoke]

For each seed from A to B, prints one ``name sha256`` line per output: the
JSON report of ``run_all`` on every certify_sweep and certify_fine case, the
CSV and the OBJ at poles 1-4 of every mesh_export surface, and the exit
code, stdout, stderr and output file of every cli_roundtrip call (``absent``
where a call writes no file).  The cases are those that
perfbench/workloads.py builds for the seed; ``--smoke`` takes its small
grids.  Two checkouts give the same bytes out when their printouts are
equal, so compare them with diff.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from bergerhelix import export_csv, export_obj, project_grid, sample_grid  # noqa: E402
from worker import CLI_TIMEOUT_S, cli_env  # noqa: E402

WORKLOADS = ("certify_sweep", "certify_fine", "mesh_export", "cli_roundtrip")


def outputs(name: str, seed: int, smoke: bool):
    """(name, bytes or None) of every output of one workload, in case order.

    Config and output files go to the working directory, under names that
    do not depend on it, so the CLI's messages do not either."""
    wl = workloads.build(name, seed, smoke, os.curdir)
    for case in wl.cases:
        key = f"{seed}/{name}/{case.id}"
        if name == "mesh_export":
            grid = sample_grid(case.surface, wl.grid, wl.grid)
            yield f"{key}/csv", export_csv(grid)
            for pole in (1, 2, 3, 4):
                yield f"{key}/obj{pole}", export_obj(project_grid(grid, pole=pole))
        elif name == "cli_roundtrip":
            proc = subprocess.run([sys.executable, "-m", "bergerhelix.cli", *case.argv],
                                  env=cli_env(), stdin=subprocess.DEVNULL, capture_output=True,
                                  timeout=CLI_TIMEOUT_S)
            yield f"{key}/code", str(proc.returncode).encode("ascii")
            yield f"{key}/stdout", proc.stdout
            yield f"{key}/stderr", proc.stderr
            data = None
            if os.path.exists(case.output):
                with open(case.output, "rb") as fh:
                    data = fh.read()
                os.remove(case.output)
            yield f"{key}/output", data
        else:
            yield f"{key}/report", wl.run(case).to_json().encode("ascii")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="inclusive range A-B, or one seed")
    ap.add_argument("--smoke", action="store_true", help="the workloads' small grids")
    args = ap.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for seed in seeds:
                for name in WORKLOADS:
                    for key, data in outputs(name, seed, args.smoke):
                        digest = "absent" if data is None else hashlib.sha256(data).hexdigest()
                        print(key, digest, flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
