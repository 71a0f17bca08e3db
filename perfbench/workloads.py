"""The four workloads: seeded inputs, the timed operation, and why each exists.

Every input is drawn from ``numpy.random.default_rng(seed)``; the program
only ever sees the resulting ``BergerParams``, profiles and config files.
Case lists keep fixed proportions of profile kinds, ``fv_method`` and
injected faults, so the cost mix of a run does not depend on the seed; only
the continuous parameters do.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np
import scipy

import bergerhelix
from calibrate import arrays_factor, compute_factor, spawn_factor, text_factor
from bergerhelix import (BergerParams, Constant, Linear, Sinusoid, VerifyConfig,
                         XiProfile, compute_constants, derive_xi3, example_profile,
                         export_csv, export_obj, make_surface, profile_from_config,
                         project_grid, run_all, sample_grid)

EPS_RANGE = (0.05, 10.0)
THETA_RANGE = (0.01, 1.55)
TWO_PI = 2.0 * math.pi

# Known defects (ROADMAP): D1, verify fails valid profiles whose xi1 varies;
# D2, its fixed finite-difference steps fail once the torus frequencies,
# which scale like B/eps, get large.  Cases carry these labels from their
# inputs alone.  A failing verdict on a labelled case still counts in
# `failed`; the label only says the failure is a listed defect, not a new one.
D2_FREQUENCY = 3.5

WHY = {  # equal to the "why" of each workload in BENCHMARK.json
    "certify_sweep": "run_all at its default 81x81 over 44 seeded surfaces, faults and D1/D2 "
                     "cases included: verify's per-point Python loops dominate",
    "certify_fine": "run_all at 1001x1001 on five surfaces: the same verify layer through its "
                    "grid path (sample_grid, frame_components, einsum)",
    "mesh_export": "sample_grid, export_csv, project_grid and export_obj at 251x251 on two "
                   "surfaces: text formatting and memory; verify never runs",
    "cli_roundtrip": "nine fresh CLI processes per pass at 101x101, exit codes 0, 1 and 2: "
                     "interpreter start, import and cli, which the others amortise",
}


@dataclass
class Case:
    """One seeded input and the verdict the oracle expects from it."""

    id: str
    kind: str
    epsilon: float
    theta: float
    expect: str                      # "pass", "fail" or "degenerate" (Hopf tube)
    fv_method: Optional[str] = None
    fault: Optional[str] = None
    known: Optional[str] = None      # "D1" or "D2" when a listed defect applies
    surface: object = None
    argv: List[str] = field(default_factory=list)
    output: Optional[str] = None
    expect_code: int = 0
    fmt: Optional[str] = None        # what a CLI call writes: constants, report, csv or obj

    def describe(self) -> dict:
        return {"id": self.id, "kind": self.kind, "epsilon": self.epsilon,
                "theta": self.theta, "fv_method": self.fv_method, "fault": self.fault,
                "expect": self.expect, "known_defect": self.known}


def draw_params(rng):
    lo, hi = np.log(EPS_RANGE[0]), np.log(EPS_RANGE[1])
    return float(np.exp(rng.uniform(lo, hi))), float(rng.uniform(*THETA_RANGE))


def known_defect(kind: str, epsilon: float, theta: float) -> Optional[str]:
    if kind in ("sinusoid", "table"):
        return "D1"
    B = 1.0 + (epsilon ** 2 - 1.0) * math.cos(theta) ** 2
    return "D2" if B / epsilon >= D2_FREQUENCY else None


def generic_config(rng) -> dict:
    c = float(rng.uniform(0.35, 1.2))
    s = float(rng.uniform(0.5, 1.5))
    return {"xi": float(rng.uniform(0.0, math.pi)), "xi1": {"constant": c},
            "xi2": {"linear": {"slope": s, "offset": 0.0}},
            "xi3": {"linear": {"slope": s / math.tan(c) ** 2, "offset": 0.0}},
            "v_min": 0.0, "v_max": TWO_PI}


def table_config(rng) -> dict:
    vs = np.linspace(0.0, TWO_PI, 9)
    values = rng.uniform(0.6, 0.9) + rng.uniform(0.02, 0.15) * np.sin(vs + rng.uniform(0, TWO_PI))
    return {"xi": float(rng.uniform(0.0, math.pi)),
            "xi1": {"table": {"v": vs.tolist(), "value": values.tolist()}},
            "xi2": {"linear": {"slope": float(rng.uniform(0.5, 1.5)), "offset": 0.0}},
            "xi3": "auto", "v_min": 0.0, "v_max": TWO_PI}


def sinusoid_profile(rng) -> XiProfile:
    xi1 = Sinusoid(float(rng.uniform(0.01, 0.2)), float(rng.integers(1, 3)),
                   float(rng.uniform(0, TWO_PI)), float(rng.uniform(0.5, 1.0)))
    base = XiProfile(xi=float(rng.uniform(0.0, math.pi)), xi1=xi1,
                     xi2=Linear(float(rng.uniform(0.5, 1.5))), xi3=None,
                     v_min=0.0, v_max=TWO_PI)
    return derive_xi3(base)


def hopf_profile(rng) -> XiProfile:
    return XiProfile(xi=float(rng.uniform(0.0, math.pi)), xi1=Constant(0.0),
                     xi2=Linear(float(rng.uniform(0.5, 1.5))), xi3=Constant(0.0),
                     v_min=0.0, v_max=TWO_PI)


def build_surface(case: Case, profile: XiProfile):
    params = BergerParams(case.epsilon, case.theta)
    if case.fault == "xi3":
        # a 0.1% slope change breaks the admissibility constraint
        profile = dataclasses.replace(profile, xi3=Linear(profile.xi3.slope * 1.001,
                                                          profile.xi3.offset))
    consts = None
    if case.fault == "alpha1":
        good = compute_constants(params)
        consts = dataclasses.replace(good, alpha1=good.alpha1 * 1.01)
    return make_surface(params, profile, consts=consts, fv_method=case.fv_method)


def make_profile(kind: str, rng) -> XiProfile:
    if kind == "reference":
        return example_profile()
    if kind == "generic":
        return profile_from_config(generic_config(rng))
    if kind == "sinusoid":
        return sinusoid_profile(rng)
    if kind == "table":
        return profile_from_config(table_config(rng))
    return hopf_profile(rng)


def certify_sweep_cases(rng, smoke: bool) -> List[Case]:
    """44 surfaces: four fixed parameter corners, then four blocks of ten.

    A block holds every profile kind once with analytic F_v, the reference
    and generic profiles once more with an injected fault, and three
    surfaces with finite-difference F_v.  The slowest kind (fd on a varying
    xi1) makes up more than ten samples of a run, so the tail percentile
    falls inside it rather than on its edge.
    """
    cases = []
    corners = [(EPS_RANGE[0], THETA_RANGE[0]), (EPS_RANGE[0], THETA_RANGE[1]),
               (EPS_RANGE[1], THETA_RANGE[0]), (EPS_RANGE[1], THETA_RANGE[1])]
    for k, (eps, th) in enumerate(corners):
        cases.append(Case(f"corner{k}", "reference", eps, th, "pass",
                          known=known_defect("reference", eps, th)))
    for b in range(2 if smoke else 4):
        faults = ("alpha1", "xi3") if b % 2 == 0 else ("xi3", "alpha1")
        block = [("reference", None, None), ("generic", None, None), ("sinusoid", None, None),
                 ("table", None, None), ("hopf", None, None),
                 ("reference", None, faults[0]), ("generic", None, faults[1]),
                 ("reference" if b % 2 == 0 else "generic", "fd", None),
                 ("sinusoid", "fd", None), ("table", "fd", None)]
        for k, (kind, fv, fault) in enumerate(block):
            eps, th = draw_params(rng)
            expect = "degenerate" if kind == "hopf" else ("fail" if fault else "pass")
            cases.append(Case(f"{kind}-{b}.{k}", kind, eps, th, expect, fv_method=fv,
                              fault=fault, known=known_defect(kind, eps, th)))
    for case in cases:
        case.surface = build_surface(case, make_profile(case.kind, rng))
    return cases


def certify_fine_cases(rng) -> List[Case]:
    """The reference and a sinusoid-xi1 profile with analytic and fd F_v,
    plus a generic constant-xi1 profile, so that analytic cases are the
    majority and the median does not sit between the two F_v paths."""
    cases = []
    for kind, fv in (("reference", "analytic"), ("reference", "fd"), ("sinusoid", "analytic"),
                     ("sinusoid", "fd"), ("generic", "analytic")):
        eps, th = draw_params(rng)
        case = Case(f"{kind}-{fv}", kind, eps, th, "pass", fv_method=fv,
                    known=known_defect(kind, eps, th))
        case.surface = build_surface(case, make_profile(kind, rng))
        cases.append(case)
    return cases


def mesh_export_cases(rng) -> List[Case]:
    cases = []
    for kind in ("reference", "sinusoid"):
        eps, th = draw_params(rng)
        case = Case(kind, kind, eps, th, "pass", fv_method="analytic")
        case.surface = build_surface(case, make_profile(kind, rng))
        cases.append(case)
    return cases


def cli_cases(rng, smoke: bool, workdir: str) -> List[Case]:
    """Nine CLI calls: every subcommand, config files (one a table xi1 with
    xi3 "auto"), a tolerance fault that must exit 1 and a malformed config
    that must exit 2."""
    n = "11" if smoke else "101"
    grid = ["--nu", n, "--nv", n]
    configs = {"generic": generic_config(rng), "table": table_config(rng),
               "bad": {"xi": 0.5, "xi1": {"cubic": 1.0}, "xi2": {"constant": 0.0},
                       "xi3": "auto", "v_min": 0.0, "v_max": 1.0}}
    paths = {}
    for name, cfg in configs.items():
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
    profiles = {"reference": example_profile(),
                "generic": profile_from_config(configs["generic"]),
                "table": profile_from_config(configs["table"])}

    def call(cid, kind, argv, expect="pass", code=0, fmt=None):
        eps, th = draw_params(rng)
        case = Case(cid, kind, eps, th, expect, known=known_defect(kind, eps, th)
                    if kind != "bad" else None, expect_code=code)
        case.output = os.path.join(workdir, f"{cid}.out")
        case.argv = [argv[0], "--epsilon", repr(eps), "--theta", repr(th),
                     *argv[1:], "--output", case.output]
        if kind in profiles:
            case.surface = make_surface(BergerParams(eps, th), profiles[kind])
        case.fmt = fmt
        return case

    return [
        call("constants", "reference", ["constants"], fmt="constants"),
        call("verify-reference", "reference", ["verify", *grid], fmt="report"),
        call("verify-generic", "generic", ["verify", "--config", paths["generic"], *grid],
             fmt="report"),
        call("verify-table", "table", ["verify", "--config", paths["table"], *grid],
             fmt="report"),
        call("verify-fault", "reference",
             ["verify", *grid, "--tolerance", "angle_constancy=1e-30"], "fail", 1, "report"),
        call("generate-csv", "table",
             ["generate", "--config", paths["table"], *grid, "--format", "csv"], fmt="csv"),
        call("generate-obj", "reference", ["generate", *grid, "--format", "obj"], fmt="obj"),
        call("project", "generic", ["project", "--config", paths["generic"], *grid], fmt="obj"),
        call("invalid-config", "bad", ["generate", "--config", paths["bad"], *grid],
             "invalid", 2),
    ]


@dataclass
class Workload:
    name: str
    cases: List[Case]
    run: Callable           # run(case) -> output, the timed operation
    grid: int               # side of the grid one operation samples or writes
    probe: Callable = compute_factor    # the host probe that does this kind of work


def build(name: str, seed: int, smoke: bool, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    if name == "certify_sweep":
        cases = certify_sweep_cases(rng, smoke)
        cfg = VerifyConfig()
        return Workload(name, cases, lambda c: run_all(c.surface, cfg), cfg.nu)
    if name == "certify_fine":
        n = 101 if smoke else 1001
        cfg = VerifyConfig(nu=n, nv=n)
        return Workload(name, certify_fine_cases(rng),
                        lambda c: run_all(c.surface, cfg), n, arrays_factor)
    if name == "mesh_export":
        n = 41 if smoke else 251

        def pipeline(case):
            grid = sample_grid(case.surface, n, n)
            return grid, export_csv(grid), export_obj(project_grid(grid))

        return Workload(name, mesh_export_cases(rng), pipeline, n, text_factor)
    if name == "cli_roundtrip":
        cases = cli_cases(rng, smoke, workdir)
        n = 11 if smoke else 101
        return Workload(name, cases, None, n, spawn_factor)
    raise ValueError(f"unknown workload {name!r}")


def package_versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "bergerhelix": bergerhelix.__version__}
