"""One workload in one fresh process.

Sets up the workload's inputs, runs them as a closed loop with one client
and one operation in flight, checks every output outside the timed region,
and prints one JSON line.  ``--setup-only`` stops once the inputs are built,
so that run.py can time set-up in several fresh processes.

The timed loop runs whole passes over the case list until ``--seconds`` of
operation time have passed, and at least two.  The host's speed is
probed before every operation and after the last, with the workload's
probe from calibrate.py, and every latency is reported raw and at the
reference host speed.  Failures are counted per case: ``attempted`` is the
number of distinct cases, so it and ``failed`` depend on the seed alone,
not on how many passes fitted.  A traced run (``--trace 1``) runs one pass
twice, first without and then with the tracing wrappers, and writes its spans to
``perfbench/_work/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

from calibrate import scaled

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
LAUNCHER = os.path.join(HERE, "launch_cli.py")
CLI_TIMEOUT_S = 120
MIN_PASSES = 2


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_cli(case, trace_out=None, op=""):
    """One fresh CLI process: (exit code, stderr, seconds)."""
    if trace_out is None:
        cmd = [sys.executable, "-m", "bergerhelix.cli", *case.argv]
    else:
        cmd = [sys.executable, LAUNCHER, trace_out, op, *case.argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=cli_env(), stdin=subprocess.DEVNULL,
                          capture_output=True, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stderr, time.perf_counter() - t0


class Loop:
    """Runs operations, times each, and keeps the oracle's findings."""

    def __init__(self, wl, oracle, grid_size):
        self.wl, self.oracle, self.n = wl, oracle, grid_size
        self.latencies = []
        self.ids = []                # the case of each latency
        self.host = []               # the host factor before each latency
        self.probe = wl.probe
        self.failures = {}           # case id -> the first failure, with a count
        self._grids = {}
        self._checked = {}

    def _grid(self, surface):
        if id(surface) not in self._grids:
            from bergerhelix import sample_grid
            self._grids[id(surface)] = sample_grid(surface, self.n, self.n)
        return self._grids[id(surface)]

    def one(self, i, case, tracer=None, trace_out=None):
        self.host.append(self.probe())
        op = f"{i}:{case.id}"
        if self.wl.name == "cli_roundtrip":
            code, stderr, dt = run_cli(case, trace_out, op)
            problems = self.oracle.check_cli(case, code, stderr, self.n, self._grid)
            if os.path.exists(case.output):
                os.remove(case.output)
        else:
            if tracer is not None:
                tracer.op = op
            t0 = time.perf_counter()
            try:
                out, err = self.wl.run(case), None
            except Exception as exc:  # the loop must go on and report it
                out, err = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if err is not None:
                problems = [("raised", err)]
            elif self.wl.name == "mesh_export":
                problems = self.oracle.check_mesh_export(case, out, self.n, self._checked)
            else:
                problems = self.oracle.check_report(case, out)
            del out
        self.latencies.append(dt)
        self.ids.append(case.id)
        if problems:
            if case.id not in self.failures:
                self.failures[case.id] = {**case.describe(), "op": op, "failed_ops": 0,
                                          "known": self.oracle.is_known(case, problems),
                                          "problems": [f"{k}: {m}" for k, m in problems]}
            self.failures[case.id]["failed_ops"] += 1
        return dt

    def scaled(self):
        """Every latency at the reference host speed."""
        host = self.host + [self.probe()]
        return [scaled(dt, host[i], host[i + 1]) for i, dt in enumerate(self.latencies)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import bergerhelix
    if not os.path.abspath(bergerhelix.__file__).startswith(SRC + os.sep):
        print(f"bergerhelix imported from {bergerhelix.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import oracle
    import workloads
    from spans import Tracer, layer_metrics, merge

    os.makedirs(WORK, exist_ok=True)
    tracer = Tracer() if args.trace else None
    if tracer is not None and args.workload != "cli_roundtrip":
        # set-up spans (profile parsing, derive_xi3) carry the op id "setup";
        # on cli_roundtrip the program runs in the CLI processes instead
        tracer.install(also=(workloads,))
    wl = workloads.build(args.workload, args.seed, args.smoke, WORK)
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    loop = Loop(wl, oracle, wl.grid)
    result = {"ready_at": ready_at, "why": workloads.WHY[wl.name],
              "versions": workloads.package_versions(),
              "cases": len(wl.cases), "grid": wl.grid}
    if not args.trace:
        # whole passes over the case list, so every run has the same mix, and
        # at least MIN_PASSES of them, so every case's median has more than one latency
        passes, i = [], 0
        while len(passes) < MIN_PASSES or sum(passes) < args.seconds:
            passes.append(0.0)
            for case in wl.cases:
                passes[-1] += loop.one(i, case)
                i += 1
        result["passes"] = passes
    else:
        ops = list(enumerate(wl.cases))
        tracer.uninstall()
        untraced = sum(loop.one(i, case) for i, case in ops)
        summaries, spans = [], tracer.spans
        if wl.name == "cli_roundtrip":
            spans, traced = [], 0.0
            for i, case in ops:
                path = os.path.join(WORK, f"trace-cli-{i}.json")
                traced += loop.one(i, case, trace_out=path)
                if not os.path.exists(path):
                    tracer.missing.append(f"launcher output of op {i}")
                    continue
                with open(path, encoding="utf-8") as fh:
                    part = json.load(fh)
                os.remove(path)
                offset = len(spans)
                spans += [[*sp[:3], sp[3] + offset if sp[3] >= 0 else -1, sp[4]]
                          for sp in part["spans"]]
                summaries.append(part["summary"])
        else:
            tracer.install(also=(workloads,))
            traced = sum(loop.one(i, case, tracer) for i, case in ops)
            tracer.uninstall()
        summary = merge([tracer.summary(), *summaries])
        layers = layer_metrics(summary)
        layers.update({"trace.untraced_s": untraced, "trace.traced_s": traced,
                       "trace.overhead_s": traced - untraced,
                       "trace.overhead_ratio": (traced - untraced) / untraced})
        result.update(layers=layers, missing=summary["missing"], spans=summary["spans"],
                      trace_ops=len(ops))
        dump = os.path.join(WORK, f"trace-{wl.name}.json")
        with open(dump, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": spans}, fh)
        result["trace_file"] = os.path.relpath(dump, ROOT)

    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result.update(latencies=loop.latencies, scaled=loop.scaled(), ids=loop.ids,
                  host_factors=loop.host, probe=loop.probe.__name__, attempted=len(set(loop.ids)),
                  failures=list(loop.failures.values()),
                  peak_rss_mb=usage / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
