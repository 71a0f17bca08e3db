"""Benchmark entry point: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/bergerhelix``.  Each
workload runs in its own fresh worker process (worker.py), so set-up time
and peak memory belong to that workload.  With ``--trace 0`` the last line
carries the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced run.  The line before it is a report: provenance,
``fail_ratio``, every failed case, the percentile and sample count behind
the tail, and the end-to-end metrics under the names the workloads are
discussed by (``certify_p50_ms``, ``cli_p50_s``, ...).

The timed end-to-end metrics are medians of latencies at the reference host
speed of calibrate.py: on a shared host the same operation runs up to 2x
slower for minutes at a time, and a probe timed next to it moves with the
host and not with the program.  The report gives the raw figures beside
them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from calibrate import scaled, spawn_factor
from spans import PER_LAYER
from worker import cli_env

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("certify_sweep", "certify_fine", "mesh_export", "cli_roundtrip")
SETUP_RUNS = 3               # set-up-only processes: set-up time is their median
TAIL_BEYOND = 10
DEADLINE_S = 170

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def spawn(args, deadline, setup_only=False):
    """Run worker.py in a fresh process; its set-up time runs from the
    moment before the interpreter starts to the worker's first operation."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--setup-only"] * setup_only + ["--smoke"] * args.smoke
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the deadline: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.decode(errors='replace')}")
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    result["setup_s"] = result["ready_at"] - start
    return result


def setup_samples(args, deadline):
    """Set-up times of SETUP_RUNS fresh set-up-only processes: raw, and at
    the reference host speed from the spawn probes before and after each."""
    factors, raw = [spawn_factor()], []
    for _ in range(SETUP_RUNS):
        raw.append(spawn(args, deadline, True)["setup_s"])
        factors.append(spawn_factor())
    return raw, [scaled(t, factors[i], factors[i + 1]) for i, t in enumerate(raw)], factors


def wall(cmd, env=None):
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}")
    return time.monotonic() - start, proc.stderr.decode()


def startup_probes() -> dict:
    """Interpreter start (median of three) and the -X importtime split of
    ``import bergerhelix.cli`` in a fresh process, by top-level package."""
    bare = statistics.median(wall([sys.executable, "-c", "pass"])[0] for _ in range(3))
    _, log = wall([sys.executable, "-X", "importtime", "-c", "import bergerhelix.cli"],
                  cli_env())
    by_package = {}
    for line in log.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            self_us = int(parts[0].split(":")[1])
        except ValueError:
            continue                                   # the header line
        top = parts[2].strip().split(".")[0]
        by_package[top] = by_package.get(top, 0) + self_us
    return {"cli.interpreter_s": bare, "cli.import_s": sum(by_package.values()) / 1e6,
            **{f"cli.import.{pkg}_s": by_package.get(pkg, 0) / 1e6
               for pkg in ("numpy", "scipy", "bergerhelix")}}


def tail(values):
    """The highest percentile with TAIL_BEYOND samples beyond it, never
    below the median: (value, percentile, samples beyond)."""
    s = sorted(values)
    n = len(s)
    rank = max(n - TAIL_BEYOND - 1, n // 2)
    beyond = n - 1 - rank
    return s[rank], 100.0 * (n - beyond) / n, beyond


def provenance(args, worker) -> dict:
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, timeout=10).stdout.decode().strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"seed": args.seed, "git_commit": commit or "unknown", **worker["versions"],
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grids and case lists, for the benchmark's self-test")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "bergerhelix", "__init__.py")):
        print(f"no bergerhelix sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        setups = None if args.trace else setup_samples(args, deadline)
        worker = spawn(args, deadline)
        probes = startup_probes() if args.trace else {}
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1

    lat = worker["latencies"]
    failures = worker["failures"]
    failed = len(failures)
    attempted = worker["attempted"]
    report = {"workload": args.workload, "why": worker["why"],
              "provenance": provenance(args, worker),
              "cases": worker["cases"], "operations": len(lat),
              "fail_ratio": failed / attempted,
              "failures_known": sum(f["known"] for f in failures), "failures": failures}
    if args.trace:
        metrics = {**worker["layers"], **probes}
        out = {name: {"value": metrics[name], "unit": unit}
               for name, (unit, _) in PER_LAYER.items()}
        report.update(trace_ops=worker["trace_ops"], spans=worker["spans"],
                      missing=worker["missing"], trace_file=worker["trace_file"],
                      bases={"surface.valid_sample_ratio": "sample_grid samples",
                             "trace.overhead_ratio": "trace.untraced_s"})
    else:
        typical = per_case(worker["ids"], worker["scaled"], statistics.median)
        typical_raw = per_case(worker["ids"], lat, statistics.median)
        case_s = list(typical.values())
        case_raw_s = list(typical_raw.values())
        setup_raw, setup_ref, setup_factors = setups
        host = worker["host_factors"]
        value, pct, beyond = tail(worker["scaled"])
        vals = {"setup_s": statistics.median(setup_ref),
                "ops_per_s": len(case_s) / sum(case_s),
                "op_p50_ms": 1e3 * statistics.median(case_s),
                "op_tail_ms": 1e3 * value,
                "peak_rss_mb": worker["peak_rss_mb"]}
        out = {name: {"value": vals[name], "unit": unit} for name, unit in END_TO_END.items()}
        report.update(setup_samples_s=setup_ref,
                      raw={"setup_samples_s": setup_raw, "worker_setup_s": worker["setup_s"],
                           "ops_per_s": len(case_raw_s) / sum(case_raw_s),
                           "op_p50_ms": 1e3 * statistics.median(case_raw_s),
                           "op_tail_ms": 1e3 * tail(lat)[0],
                           "case_ms": {cid: 1e3 * t for cid, t in typical_raw.items()},
                           "case_best_ms": {cid: 1e3 * t for cid, t in
                                            per_case(worker["ids"], lat, min).items()}},
                      host_factor={"probe": worker["probe"], "samples": len(host),
                                   "median": statistics.median(host), "min": min(host),
                                   "max": max(host), "setup_spawn": setup_factors},
                      passes_s=worker["passes"],
                      case_ms={cid: 1e3 * t for cid, t in typical.items()},
                      case_best_ms={cid: 1e3 * t for cid, t in
                                    per_case(worker["ids"], worker["scaled"], min).items()},
                      tail={"percentile": pct, "samples": len(lat),
                            "beyond": beyond},
                      named=named_metrics(args.workload, vals, worker["grid"],
                                          failed / attempted))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not any(not f["known"] for f in failures),
                      "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


def per_case(ids, values, pick) -> dict:
    """pick() over the values of each case, in the order cases first ran."""
    by_case = {}
    for cid, value in zip(ids, values):
        by_case.setdefault(cid, []).append(value)
    return {cid: pick(vs) for cid, vs in by_case.items()}


def named_metrics(workload, vals, grid, fail_ratio) -> dict:
    """The end-to-end metrics under the names used when discussing each workload."""
    named = {"setup_s": [vals["setup_s"], "s"], "peak_rss_mb": [vals["peak_rss_mb"], "MB"],
             "fail_ratio": [fail_ratio, "ratio"]}
    if workload.startswith("certify"):
        named.update(certify_per_s=[vals["ops_per_s"], "1/s"],
                     certify_p50_ms=[vals["op_p50_ms"], "ms"],
                     certify_tail_ms=[vals["op_tail_ms"], "ms"])
    elif workload == "mesh_export":
        named["export_samples_per_s"] = [vals["ops_per_s"] * grid * grid, "1/s"]
    else:
        named.update(cli_p50_s=[vals["op_p50_ms"] / 1e3, "s"],
                     cli_tail_s=[vals["op_tail_ms"] / 1e3, "s"])
    return named


if __name__ == "__main__":
    sys.exit(main())
