"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them
all); the assertion fires after the line is printed.
"""

import dataclasses
import json
import math
import time

import numpy as np

from bergerhelix.ambient import BergerParams
from bergerhelix.cli import main
from bergerhelix.constants import ab_coefficients, compute_constants, lambda_field, phi_field
from bergerhelix.family import Constant, Linear, Sinusoid, XiProfile, assemble, \
    derive_xi3, example_profile
from bergerhelix.surface import _coefficient_samples, make_surface, normal_components, \
    recover_coefficient_fields, sample_grid, tangent_data
from bergerhelix.verify import CHECKS, VerifyConfig, _complex_jet, _Run, \
    gauss_curvature_numeric, run_all, shape_operator_matrix
from test_verify import strict_json

EPSILONS = (0.5, 0.8, 1.0, 1.5)
THETAS = (math.pi / 6, math.pi / 4, math.pi / 3)
PAIRS = [(e, t) for e in EPSILONS for t in THETAS]


def _report(num: int, ok: bool, desc: str, detail: str):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {desc}  ({detail})")
    assert ok, f"criterion {num}: {desc} — {detail}"


def _surface(eps, th, **kw):
    return make_surface(BergerParams(eps, th), example_profile(), **kw)


def _fourth_order_residual(surface):
    """The registry's fourth-order recursion residual over its 1000 samples."""
    check = next(c for c in CHECKS if c.name == "fourth_order_ode")
    return float(np.max(check.fn(_Run(surface, VerifyConfig()))["fourth_order_ode"][0]))


def test_criterion_01_constant_angle_reproduction():
    worst_an = worst_fd = 0.0
    slowest = 0.0
    for eps, th in PAIRS:
        t0 = time.perf_counter()
        for method, tol_bucket in (("analytic", "an"), ("fd", "fd")):
            grid = sample_grid(_surface(eps, th, fv_method=method), 101, 101)
            ok = ~np.isnan(grid.angles)
            dev = float(np.max(np.abs(grid.angles[ok] - th)))
            if tol_bucket == "an":
                worst_an = max(worst_an, dev)
            else:
                worst_fd = max(worst_fd, dev)
        slowest = max(slowest, time.perf_counter() - t0)
    ok = worst_an <= 1e-8 and worst_fd <= 1e-5 and slowest <= 5.0
    _report(1, ok, "constant angle on 101x101 grids, 12 parameter pairs",
            f"analytic max dev {worst_an:.2e} <= 1e-8, fd max dev "
            f"{worst_fd:.2e} <= 1e-5, slowest pair {slowest:.2f}s <= 5s")


def test_criterion_02_gauss_curvature_constant():
    worst = 0.0
    wit = {}
    for eps, th in PAIRS:
        s = _surface(eps, th)
        K = s.consts.gauss_k
        for (u, v) in _Run(s, VerifyConfig()).interior:
            err = abs(gauss_curvature_numeric(s, _complex_jet(s, u, v)) - K)
            worst = max(worst, err)
        wit[(eps, th)] = K
    ok = worst <= 1e-3
    _report(2, ok, "intrinsic curvature equals 4(1-eps^2)cos^2(theta) at 9 interior points",
            f"max |K_num - K| {worst:.2e} <= 1e-3; targets include "
            f"K=0 at eps=1 and K={wit[(1.5, math.pi / 6)]:.2f} at eps=1.5, theta=pi/6")


def test_criterion_03_fourth_order_ode_and_fault_detection():
    worst = max(_fourth_order_residual(_surface(e, t)) for e, t in PAIRS)
    s = _surface(1.0, math.pi / 4)
    bad = dataclasses.replace(s.consts, alpha1=s.consts.alpha1 * 1.01)
    faulted = _fourth_order_residual(make_surface(s.params, s.profile, consts=bad))
    ok = worst <= 1e-10 and faulted > 1e-3
    _report(3, ok, "fourth-order recursion of the position vector",
            f"max residual {worst:.2e} <= 1e-10 over 1000 samples x 12 pairs; "
            f"+1% alpha1 fault raises it to {faulted:.2e} > 1e-3")


def test_criterion_04_closed_form_constant_identities():
    rng = np.random.default_rng(2026)
    worst_sum = worst_rel = 0.0
    for _ in range(200):
        eps = float(rng.uniform(0.1, 3.0))
        th = float(rng.uniform(0.05, math.pi / 2 - 0.05))
        c = compute_constants(BergerParams(eps, th))
        st2, ct2 = math.sin(th) ** 2, math.cos(th) ** 2
        sB = math.sqrt(c.B)
        worst_sum = max(worst_sum, abs(c.g11 + c.g33 - 1.0))
        rels = [
            abs(c.g11 * c.g33 - st2 / (4 * c.B)) / (st2 / (4 * c.B)),
            abs(c.alpha1 * c.alpha2 - c.B * st2 / eps ** 2) / (c.B * st2 / eps ** 2),
            abs((c.alpha1 ** 2 - c.alpha2 ** 2) ** 2 - 16 * c.B ** 3 * ct2 / eps ** 2)
            / (16 * c.B ** 3 * ct2 / eps ** 2),
            abs(c.alpha2 / c.alpha1 - (sB - eps * math.cos(th)) / (sB + eps * math.cos(th)))
            / (c.alpha2 / c.alpha1),
        ]
        worst_rel = max(worst_rel, *rels)
    ok = worst_sum <= 1e-12 and worst_rel <= 1e-11
    _report(4, ok, "closed-form constant identities over 200 random (eps, theta)",
            f"max |g11+g33-1| {worst_sum:.2e} <= 1e-12, "
            f"max relative residual {worst_rel:.2e} <= 1e-11")


def test_criterion_05_gram_relations():
    worst_off = worst_diag = 0.0
    for eps, th in PAIRS:
        s = _surface(eps, th)
        c = s.consts
        want_11 = eps / (2 * c.B) * c.alpha2
        want_33 = eps / (2 * c.B) * c.alpha1
        for v in (0.0, 1.3, 4.9):
            g = recover_coefficient_fields(s, tangent_data(s, _coefficient_samples(c), v))
            G = g @ g.T
            worst_off = max(worst_off, float(np.max(np.abs(G - np.diag(np.diag(G))))))
            worst_diag = max(worst_diag,
                             abs(G[0, 0] - want_11), abs(G[1, 1] - want_11),
                             abs(G[2, 2] - want_33), abs(G[3, 3] - want_33))
    ok = worst_off <= 1e-9 and worst_diag <= 1e-9
    _report(5, ok, "recovered coefficient vectors are orthogonal with the stated norms",
            f"max off-diagonal {worst_off:.2e} <= 1e-9, "
            f"max diagonal deviation {worst_diag:.2e} <= 1e-9")


def _random_admissible_profiles(n=20, seed=11):
    rng = np.random.default_rng(seed)
    profiles = []
    for _ in range(n):
        if rng.uniform() < 0.5:
            xi1 = Constant(float(rng.uniform(0.3, 1.2)))
        else:
            xi1 = Sinusoid(float(rng.uniform(0.05, 0.4)), float(rng.uniform(0.3, 1.0)),
                           float(rng.uniform(0, 6)), float(rng.uniform(0.75, 0.85)))
        if rng.uniform() < 0.5:
            xi2 = Linear(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1, 1)))
        else:
            xi2 = Sinusoid(float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.3, 1.5)))
        base = XiProfile(xi=float(rng.uniform(0, 2 * math.pi)), xi1=xi1, xi2=xi2,
                         xi3=None, v_min=0.0, v_max=2 * math.pi)
        profiles.append(derive_xi3(base, xi3_at_vmin=float(rng.uniform(-1, 1))))
    return profiles


def test_criterion_06_family_structure():
    from bergerhelix.ambient import J1
    vs = np.linspace(0.0, 2 * math.pi, 1000)
    worst_orth = worst_comm = worst_con = 0.0
    for prof in _random_admissible_profiles():
        A, = assemble(prof, vs)
        worst_orth = max(worst_orth, float(np.max(np.abs(
            np.einsum('kij,kil->kjl', A, A) - np.eye(4)))))
        worst_comm = max(worst_comm, float(np.max(np.abs(A @ J1 - J1 @ A))))
        worst_con = max(worst_con, float(np.max(prof.constraint_residual(vs))))
    ok = worst_orth <= 1e-12 and worst_comm <= 1e-12 and worst_con <= 1e-8
    _report(6, ok, "family orthogonality/commutation at 1000 v for 20 random profiles",
            f"max |A^T A - I| {worst_orth:.2e}, max |A J1 - J1 A| {worst_comm:.2e} "
            f"<= 1e-12; auto-derived xi3 constraint {worst_con:.2e} <= 1e-8")


def test_criterion_07_hopf_tube_degeneracy():
    branch_a = XiProfile(xi=math.pi / 2, xi1=Constant(0.0), xi2=Linear(1.0),
                         xi3=Constant(0.0), v_min=0.0, v_max=2 * math.pi)
    branch_b = XiProfile(xi=0.0, xi1=Constant(math.pi / 4), xi2=Linear(1.0),
                         xi3=Linear(-1.0), v_min=0.0, v_max=2 * math.pi)
    worst_ang = worst_n1 = 0.0
    flagged = True
    for prof in (branch_a, branch_b):
        s = make_surface(BergerParams(1.0, math.pi / 4), prof)
        for u in np.linspace(0.2, s.u_domain[1] - 0.2, 8):
            for v in np.linspace(0.1, 2 * math.pi - 0.1, 7):
                n1, n2, n3 = normal_components(s, float(u), float(v))
                worst_n1 = max(worst_n1, abs(n1))
                ang = math.acos(abs(n1) / math.sqrt(n1 ** 2 + n2 ** 2 + n3 ** 2))
                worst_ang = max(worst_ang, abs(ang - math.pi / 2))
        rep = run_all(s, VerifyConfig(nu=31, nv=31))
        flagged = flagged and rep.degenerate_hopf_tube
    ok = worst_ang <= 1e-8 and worst_n1 <= 1e-10 and flagged
    _report(7, ok, "both degenerate branches produce fiber-tangent surfaces",
            f"max |angle - pi/2| {worst_ang:.2e} <= 1e-8, max |N1| {worst_n1:.2e} "
            f"<= 1e-10, verify flags degenerate: {flagged}")


def test_criterion_08_field_checks():
    h = 1e-5
    worst_ode = worst_exact = 0.0
    for eps, th in PAIRS:
        params = BergerParams(eps, th)
        c = compute_constants(params)
        ct = math.cos(th)
        u_cap = 0.6 / (2 * ct * math.sqrt(c.B))
        rng = np.random.default_rng(5)
        for _ in range(100):
            u = float(rng.uniform(-u_cap, u_cap))
            v = float(rng.uniform(0, 2 * math.pi))
            eta = 0.2 * math.sin(v)
            lam = lambda_field(u, c, params, eta)
            dl = (lambda_field(u + h, c, params, eta)
                  - lambda_field(u - h, c, params, eta)) / (2 * h)
            worst_ode = max(worst_ode, abs(
                dl + lam ** 2 * ct + 4 * (eps ** 2 - 1) * ct ** 3 + 4 * ct))
            a, b = ab_coefficients(u, c, params, eta)
            ap = (ab_coefficients(u + h, c, params, eta)[0]
                  - ab_coefficients(u - h, c, params, eta)[0]) / (2 * h)
            bp = (ab_coefficients(u + h, c, params, eta)[1]
                  - ab_coefficients(u - h, c, params, eta)[1]) / (2 * h)
            worst_ode = max(worst_ode, abs(ap + 2 * eps * b * ct),
                            abs(bp - b * lam * ct))
            worst_exact = max(worst_exact, abs(c.B / eps ** 2 * a * a + b * b - 1.0))
            dphi = (phi_field(u + h, c, params) - phi_field(u - h, c, params)) / (2 * h)
            worst_ode = max(worst_ode, abs(dphi + 2 * c.B / eps))
    ok = worst_ode <= 1e-6 and worst_exact <= 1e-12
    _report(8, ok, "auxiliary field residuals under h=1e-5 central differences",
            f"max ODE residual {worst_ode:.2e} <= 1e-6, "
            f"max unit-identity residual {worst_exact:.2e} <= 1e-12")


def test_criterion_09_shape_operator_form():
    worst = 0.0
    for eps, th in PAIRS:
        s = _surface(eps, th)
        for (u, v) in _Run(s, VerifyConfig()).interior:
            S = shape_operator_matrix(s, _complex_jet(s, u, v)[0])
            worst = max(worst, abs(S[0, 0]), abs(S[0, 1] + eps), abs(S[1, 0] + eps))
    ok = worst <= 1e-4
    _report(9, ok, "shape operator matches [[0, -eps], [-eps, lambda]] at 9 interior points",
            f"max entry deviation {worst:.2e} <= 1e-4 across 12 pairs")


def test_criterion_10_figure_pipeline(tmp_path):
    outputs = []
    for name in ("one.obj", "two.obj"):
        csv_path = tmp_path / (name + ".csv")
        obj_path = tmp_path / name
        assert main(["generate", "--epsilon", "1", "--theta", str(math.pi / 4),
                     "--nu", "101", "--nv", "101", "--format", "csv",
                     "--output", str(csv_path)]) == 0
        assert main(["project", "--epsilon", "1", "--theta", str(math.pi / 4),
                     "--nu", "101", "--nv", "101", "--output", str(obj_path)]) == 0
        outputs.append(obj_path.read_bytes())
    verts = np.array([[float(t) for t in ln.split()[1:]]
                      for ln in outputs[0].decode().strip().split("\n")
                      if ln.startswith("v ")])
    ok = outputs[0] == outputs[1] and np.all(np.isfinite(verts)) and len(verts) == 101 * 101
    _report(10, ok, "generate + project emit a finite, byte-stable mesh",
            f"identical bytes: {outputs[0] == outputs[1]}, "
            f"{len(verts)} finite vertices")


def test_acceptance_reports_are_strict_json():
    # no NaN or Infinity token: a tolerance set to inf is written as null
    for eps, th in PAIRS:
        rep = run_all(_surface(eps, th), VerifyConfig(tolerances={"gauss_curvature": math.inf}))
        data = strict_json(rep.to_json())
        for got, entry in zip(data["checks"], rep.entries):
            assert got["tolerance"] == (entry.tolerance if math.isfinite(entry.tolerance) else None)
        assert [c["name"] for c in data["checks"] if c["tolerance"] is None] \
            == ["gauss_curvature"]


def test_acceptance_summary_report(tmp_path):
    # certification suite end-to-end on the reference surface, persisted
    rep = run_all(_surface(1.0, math.pi / 4), VerifyConfig())
    path = tmp_path / "reference_report.json"
    path.write_text(rep.to_json())
    data = json.loads(path.read_text())
    assert data["overall_pass"] is True
