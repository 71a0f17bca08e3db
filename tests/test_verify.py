import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import bergerhelix.family as family_module
import bergerhelix.surface as surface_module
import bergerhelix.verify as verify_module
from bergerhelix.ambient import BergerParams
from bergerhelix.constants import HelixConstants, compute_constants
from bergerhelix.errors import ConfigError, OutOfDomain, as_array
from bergerhelix.export import export_csv, export_obj, project_grid
from bergerhelix.family import (Constant, Linear, Sinusoid, Tabulated, XiProfile,
                                derive_xi3, example_profile)
from bergerhelix.surface import (
    DEGENERATE,
    NON_FINITE,
    first_fundamental_form,
    grid_axes,
    make_surface,
    sample_grid,
    sweep_grid,
    tangent_data,
)
from bergerhelix.verify import (
    CHECKS,
    DEFAULT_TOLERANCES,
    VerifyConfig,
    _complex_jet,
    _complex_steps,
    _Run,
    gauss_curvature_numeric,
    low_discrepancy,
    normal_closed_form_n1,
    run_all,
    shape_operator_matrix,
)

P_REF = BergerParams(1.0, math.pi / 4)
SRC = Path(__file__).resolve().parents[1] / "src"
REGISTRY = {c.name: c for c in CHECKS}


def registry_entry(surface, name, check=None):
    """(residual, passed) of the entry name of the registered check check,
    by default the one named after the entry, at the default config,
    reduced and judged as run_all does."""
    cfg = VerifyConfig()
    residual = float(np.max(REGISTRY[check or name].fn(_Run(surface, cfg))[name][0]))
    return residual, residual <= cfg.tol(name)


def ref_surface(eps=1.0, th=math.pi / 4, **kw):
    return make_surface(BergerParams(eps, th), example_profile(), **kw)


def hopf_tube():
    prof = XiProfile(xi=math.pi / 2, xi1=Constant(0.0), xi2=Linear(1.0),
                     xi3=Constant(0.0), v_min=0.0, v_max=2 * math.pi)
    return make_surface(P_REF, prof)


class NanTail:
    """xi2 = v, turning NaN for v > 6; its derivative is 1 everywhere."""

    def jet(self, v, order=0):
        v = as_array(v)   # a complex step keeps its imaginary part
        value = np.where(v.real > 6, np.nan, v)
        return (value, np.ones_like(v)) if order else (value,)


def nan_tail_surface():
    """The reference surface with an xi2 that turns NaN for v > 6, so the
    samples at v = 2 pi are not finite."""
    prof = XiProfile(xi=math.pi / 2, xi1=Constant(math.pi / 4), xi2=NanTail(),
                     xi3=Linear(1.0), v_min=0.0, v_max=2 * math.pi)
    return make_surface(P_REF, prof)


def skewed_profile(shift=0.0):
    """Inadmissible on purpose: the angle genuinely varies on this surface."""
    return XiProfile(xi=0.4, xi1=Constant(math.pi / 3),
                     xi2=Linear(1.0, -shift), xi3=Linear(0.5, -0.5 * shift),
                     v_min=shift, v_max=shift + 2 * math.pi)


# -------------------------------------------------------------------- checks

def test_fourth_order_ode_reference():
    residual, passed = registry_entry(ref_surface(), "fourth_order_ode")
    assert passed and residual < 1e-10


def test_fourth_order_ode_coefficients_reference_values():
    c = ref_surface().consts
    assert c.b_tilde ** 2 - 2 * c.a_tilde == pytest.approx(3.0, abs=1e-15)
    assert c.a_tilde ** 2 == pytest.approx(0.25, abs=1e-15)


def test_fourth_order_ode_detects_fault():
    s = ref_surface()
    bad = dataclasses.replace(s.consts, alpha1=s.consts.alpha1 * 1.01)
    s_bad = make_surface(s.params, s.profile, consts=bad)
    assert registry_entry(s_bad, "fourth_order_ode")[0] > 1e-3


def test_product_table_reference():
    for s in (ref_surface(), ref_surface(0.5, math.pi / 3)):
        e = registry_entry(s, "product_table")
        assert e[1], e


def test_product_table_frozen_targets():
    from bergerhelix.verify import product_table_targets
    c = ref_surface().consts
    t = product_table_targets(c)
    assert t[(2, 2)] == pytest.approx(1.25)     # <F_uu, F_uu> = D
    assert t[(1, 3)] == pytest.approx(-1.25)    # <F_u, F_uuu> = -D
    assert t[(3, 3)] == pytest.approx(3.625)    # <F_uuu, F_uuu> = E
    assert t[(0, 2)] == pytest.approx(-0.5)


def test_j1_products_reference():
    s = ref_surface()
    assert s.consts.i_const == pytest.approx(-0.75, abs=1e-15)
    residual, passed = registry_entry(s, "j1_products")
    assert passed and residual < 1e-9


def test_j1_first_product_value():
    # <J1 F, F_u> = sin^2(theta)/eps = 1/2 here
    import bergerhelix.ambient as amb
    from bergerhelix.surface import partials, position
    s = ref_surface()
    F = position(s, 1.1, 0.7)
    fu, _ = partials(s, 1.1, 0.7)
    assert float((amb.J1 @ F) @ fu) == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("eps,th,expected", [
    (1.0, math.pi / 4, 0.0),
    (0.5, math.pi / 3, 0.75),
    (1.5, math.pi / 6, -3.75),
])
def test_gauss_curvature_values(eps, th, expected):
    s = ref_surface(eps, th)
    assert registry_entry(s, "gauss_curvature")[1]
    got = gauss_curvature_numeric(s, _complex_jet(s, 0.9, 1.1))
    assert got == pytest.approx(expected, abs=1e-3)


# the (eps, theta) corners where the fixed difference steps failed most
RANGE_CORNERS = [(0.05, 1.55), (10.0, 0.01)]


def test_gauss_curvature_exact_at_the_range_corners():
    # complex steps are exact to rounding: no step to tune per surface
    for eps, th in RANGE_CORNERS:
        residual, passed = registry_entry(ref_surface(eps, th), "gauss_curvature")
        assert passed and residual <= 1e-10, (eps, th, residual)


def test_gauss_curvature_inf_on_singular_metric():
    # u = pi / (alpha1 - alpha2) lies on a degenerate line of the reference
    # surface, where EG - F^2 vanishes; a regular point beside it stays finite
    s = ref_surface()
    u = math.pi / (s.consts.alpha1 - s.consts.alpha2)
    assert gauss_curvature_numeric(s, _complex_jet(s, u, 1.0)) == math.inf
    K = gauss_curvature_numeric(s, _complex_jet(s, np.array([u, 0.9]), np.array([1.0, 1.1])))
    assert K[0] == math.inf and K[1] == pytest.approx(0.0, abs=1e-3)


def test_shape_operator_form():
    for eps, th in [(1.0, math.pi / 4), (0.5, math.pi / 3), (1.5, math.pi / 6)]:
        s = ref_surface(eps, th)
        e = registry_entry(s, "shape_operator")
        assert e[1], (eps, th, e)
        S = shape_operator_matrix(s, _complex_jet(s, 0.9, 1.1)[0])
        assert S[0, 1] == pytest.approx(-eps, abs=1e-4)
        assert S[1, 0] == pytest.approx(-eps, abs=1e-4)
        assert abs(S[0, 0]) < 1e-4


def test_shape_operator_exact_at_the_range_corners():
    for eps, th in RANGE_CORNERS:
        residual, passed = registry_entry(ref_surface(eps, th), "shape_operator")
        assert passed and residual <= 1e-10, (eps, th, residual)


def test_shape_operator_is_nan_on_a_degenerate_tangent_plane():
    # u = 0 is a singular line of the reference surface; the point beside it is regular
    s = ref_surface()
    S = shape_operator_matrix(s, _complex_jet(s, np.array([0.0, 0.9]), np.array([1.0, 1.1]))[0])
    assert np.all(np.isnan(S[0])) and np.all(np.isfinite(S[1]))


def test_shape_operator_trace_matches_reported_lambda():
    s = ref_surface()
    S = shape_operator_matrix(s, _complex_jet(s, 0.9, 1.1)[0])
    assert np.trace(S) == pytest.approx(S[1, 1], abs=1e-4)


def test_normal_closed_form_reference():
    residual, passed = registry_entry(ref_surface(), "normal_closed_form")
    assert passed and residual < 1e-8


def test_normal_closed_form_hopf_tube_both_zero():
    s = hopf_tube()
    assert registry_entry(s, "normal_closed_form")[1]
    us = np.linspace(0.1, 3.0, 7)
    vs = np.linspace(0.1, 3.0, 7)
    assert np.max(np.abs(normal_closed_form_n1(s, us, vs))) == 0.0


def test_normal_closed_form_scales_with_phase_drift():
    # doubling (xi2' + xi3') while keeping xi2 - xi3 fixed doubles the
    # closed-form fiber component
    base = make_surface(P_REF, skewed_profile())           # slopes 1.0, 0.5
    prof2 = XiProfile(xi=0.4, xi1=Constant(math.pi / 3), xi2=Linear(1.75),
                      xi3=Linear(1.25), v_min=0.0, v_max=2 * math.pi)
    double = make_surface(P_REF, prof2)
    n_base = normal_closed_form_n1(base, 0.7, 1.3)
    n_double = normal_closed_form_n1(double, 0.7, 1.3)
    assert n_double == pytest.approx(2 * n_base, rel=1e-12)


def closed_form_profiles():
    """Profiles with a varying xi1 and a derived xi3: sinusoids of three
    amplitudes, a 9-node table, and xi = 0.3 with a decreasing xi2."""
    nodes = np.linspace(0.0, 2 * math.pi, 9)
    xi1s = [Sinusoid(a, 1.0, 0.0, math.pi / 4) for a in (0.01, 0.2, 0.5)]
    xi1s.append(Tabulated(nodes, math.pi / 4 + 0.3 * np.sin(nodes) * np.cos(2 * nodes)))
    profiles = [XiProfile(xi=math.pi / 2, xi1=xi1, xi2=Linear(1.0), xi3=None,
                          v_min=0.0, v_max=2 * math.pi) for xi1 in xi1s]
    profiles.append(XiProfile(xi=0.3, xi1=Sinusoid(0.2, 1.0, 0.0, math.pi / 4),
                              xi2=Linear(-0.5, 0.2), xi3=None, v_min=0.0, v_max=2 * math.pi))
    return [derive_xi3(p) for p in profiles]


LAMBDA_PROFILES = dict(zip(["sin0.01", "sin0.2", "sin0.5", "table", "xi0.3"],
                           closed_form_profiles()), reference=example_profile())


@pytest.mark.parametrize("profile", closed_form_profiles(),
                         ids=["sin0.01", "sin0.2", "sin0.5", "table", "xi0.3"])
@pytest.mark.parametrize("eps, th", [(0.8, math.pi / 4), (0.05, 1.55), (10.0, 0.01), (2.0, 0.3)])
def test_normal_closed_form_matches_the_cross_product_where_xi1_varies(profile, eps, th):
    # without the xi1' cos(psi) term the form is off by up to 0.28 on these points
    s = make_surface(BergerParams(eps, th), profile)
    us, vs = verify_module._sample_points(s, 100, verify_module.SEED)
    n1 = tangent_data(s, us, vs).normal[:, 0]
    assert np.max(np.abs(n1 - normal_closed_form_n1(s, us, vs))) <= 1e-9


def test_normal_closed_form_on_generic_profile():
    # the dual-path identity holds without the admissibility constraint
    s = make_surface(BergerParams(0.8, math.pi / 4), skewed_profile())
    e = registry_entry(s, "normal_closed_form")
    assert e[1], e


# ------------------------------------------------------------------- run_all

def test_run_all_reference_passes():
    rep = run_all(ref_surface(), VerifyConfig(nu=41, nv=41))
    assert rep.overall_pass
    assert not rep.degenerate_hopf_tube
    names = [e.name for e in rep.entries]
    assert names == sorted(names)


def test_run_all_passes_with_fd_partials():
    # whole suite must survive (and pass) when F_v comes from differences
    rep = run_all(ref_surface(fv_method="fd"), VerifyConfig(nu=41, nv=41))
    assert rep.overall_pass, [e for e in rep.entries if not e.passed]


def test_run_all_is_deterministic():
    cfg = VerifyConfig(nu=31, nv=31)
    r1 = run_all(ref_surface(), cfg).to_json()
    r2 = run_all(ref_surface(), cfg).to_json()
    assert r1 == r2


def blas_outputs():
    """The report bytes of the reference surface at the default 81 x 81
    and at 41 x 1001, a digest of the 41 x 1001 sweep arrays, and digests
    of the CSV and OBJ of its sample_grid at 251 x 251 and 41 x 1001.  At
    81 x 81 the sweep is one (81 x 10) @ (10 x 81) product per quadratic
    form; at 41 x 1001 a block is (32 x 10) @ (10 x 1001), above
    OpenBLAS's default threading threshold of 65536 * 4 multiply-adds."""
    s = ref_surface(0.8)
    sweep = sweep_grid(s, *grid_axes(s, 41, 1001))
    digest = hashlib.sha256()
    for a in (sweep.defect, *np.moveaxis(sweep.normals, -1, 0), sweep.angle):
        digest.update(a.tobytes())
    exports = []
    for nu, nv in ((251, 251), (41, 1001)):
        g = sample_grid(s, nu, nv)
        exports += [hashlib.sha256(export_csv(g)).hexdigest(),
                    hashlib.sha256(export_obj(project_grid(g))).hexdigest()]
    return [run_all(s).to_json(), run_all(s, VerifyConfig(41, 1001)).to_json(),
            digest.hexdigest(), *exports]


def test_report_bytes_do_not_depend_on_the_blas_thread_count():
    script = "import json, test_verify; print(json.dumps(test_verify.blas_outputs()))"
    path = os.pathsep.join([str(SRC), str(Path(__file__).parent)])
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == blas_outputs()


def test_run_all_flags_hopf_tube():
    rep = run_all(hopf_tube(), VerifyConfig(nu=31, nv=31))
    assert rep.degenerate_hopf_tube
    assert any("Hopf tube" in n for n in rep.notes)
    e = rep.entry("angle_constancy")
    assert e.passed and e.residual < 1e-8   # angle sweep hits pi/2


def test_run_all_decides_the_hopf_branch_once(monkeypatch):
    calls = []
    detect = family_module.detect_hopf_tube

    def counting(profile, *args):
        calls.append(profile)
        return detect(profile, *args)

    monkeypatch.setattr(family_module, "detect_hopf_tube", counting)
    monkeypatch.setattr(verify_module, "detect_hopf_tube", counting, raising=False)
    s, cfg = ref_surface(), VerifyConfig(nu=11, nv=11)
    assert run_all(s, cfg).to_json() == run_all(s, cfg).to_json()
    assert len(calls) == 1


def test_fd_forms_f_v_at_the_domain_ends():
    # the complex step needs no room beside v, so fd F_v exists at v_min and v_max
    s, s_an = ref_surface(fv_method="fd"), ref_surface()
    us, vs = np.linspace(*s.u_domain, 3)[1:], np.array(s.v_domain)
    for data, exact in ((tangent_data(s, us[:, None], vs[None, :]),
                         tangent_data(s_an, us[:, None], vs[None, :])),
                        (sweep_grid(s, us, vs), sweep_grid(s_an, us, vs))):
        assert np.all(data.defect == 0)
        assert np.max(np.abs(data.angle - exact.angle)) < 1e-12
    e = run_all(s, VerifyConfig(nu=3, nv=2)).entry("angle_constancy")
    assert e.passed and e.samples == 4, e


def test_run_all_fault_injection_fails_multiple_checks():
    s = ref_surface()
    bad = dataclasses.replace(s.consts, alpha1=s.consts.alpha1 * 1.01)
    s_bad = make_surface(s.params, s.profile, consts=bad)
    rep = run_all(s_bad, VerifyConfig(nu=31, nv=31))
    failing = [e.name for e in rep.entries if not e.passed]
    assert not rep.overall_pass
    assert len(failing) >= 2
    assert "fourth_order_ode" in failing


def test_angle_sweep_max_deviation_translation_invariant():
    # an inadmissible profile has a genuinely varying angle; shifting the
    # profile domain must not change the sweep's maximal deviation
    cfg = VerifyConfig(nu=41, nv=41)
    rep0 = run_all(make_surface(P_REF, skewed_profile(0.0)), cfg)
    rep1 = run_all(make_surface(P_REF, skewed_profile(5.0)), cfg)
    d0 = rep0.entry("angle_constancy").residual
    d1 = rep1.entry("angle_constancy").residual
    assert d0 > 1e-3                       # the deviation is real, not noise
    assert abs(d0 - d1) < 1e-12


def test_tolerance_overrides():
    cfg = VerifyConfig(nu=31, nv=31, tolerances={"angle_constancy": 1e-20})
    rep = run_all(ref_surface(), cfg)
    assert not rep.entry("angle_constancy").passed
    assert not rep.overall_pass


def test_verify_config_refuses_unknown_tolerance_name():
    with pytest.raises(ConfigError,
                       match=r"unknown tolerance names \['nope'\]; known names: angle_constancy, "):
        VerifyConfig(tolerances={"nope": 1})


@pytest.mark.parametrize("value", [math.nan, -1.0, -math.inf, "1e-3", None, True])
def test_verify_config_refuses_a_tolerance_that_is_not_a_non_negative_number(value):
    with pytest.raises(ConfigError, match=r"tolerance angle_constancy=.* must be a non-negative"):
        VerifyConfig(tolerances={"angle_constancy": value})


@pytest.mark.parametrize("nu, nv", [(1, 81), (81, 1), (0, 0)])
def test_verify_config_refuses_a_grid_below_two_by_two(nu, nv):
    with pytest.raises(ConfigError, match=rf"grid needs integers nu, nv >= 2, got \({nu}, {nv}\)"):
        VerifyConfig(nu=nu, nv=nv)


def test_one_grid_size_rule_for_verify_and_sample_grid():
    s = ref_surface()
    # a numpy integer is an integer
    wide = VerifyConfig(nu=np.int64(81), nv=np.int64(81))
    assert run_all(s, wide).to_json() == run_all(s, VerifyConfig()).to_json()
    assert sample_grid(s, np.int64(3), 2).positions.shape == (3, 2, 4)
    # 2 x 2 is the smallest grid
    assert run_all(s, VerifyConfig(nu=2, nv=2)).entry("angle_constancy").passed
    assert [a.size for a in grid_axes(s, 2, 2)] == [2, 2]
    # 2.5 is refused by both callers, before np.linspace sees it
    with pytest.raises(ConfigError, match=r"integers nu, nv >= 2, got \(2.5, 3\)"):
        VerifyConfig(nu=2.5, nv=3)
    with pytest.raises(OutOfDomain, match=r"integers nu, nv >= 2, got \(2.5, 3\)"):
        sample_grid(s, 2.5, 3)


def test_verify_config_accepts_zero_and_infinite_tolerances():
    cfg = VerifyConfig(tolerances={"angle_constancy": 0.0, "gauss_curvature": math.inf})
    assert cfg.tol("angle_constancy") == 0.0


def test_report_json_shape():
    rep = run_all(ref_surface(), VerifyConfig(nu=31, nv=31))
    d = rep.to_dict()
    assert set(d) == {"notes", "degenerate_hopf_tube", "overall_pass", "checks"}
    for entry in d["checks"]:
        assert set(entry) == {"name", "residual", "tolerance", "passed", "samples"}


def test_low_discrepancy_deterministic_and_in_unit_square():
    a = low_discrepancy(100, seed=3)
    b = low_discrepancy(100, seed=3)
    assert np.array_equal(a, b)
    assert np.all((a >= 0) & (a < 1))
    assert not np.array_equal(a, low_discrepancy(100, seed=4))


def test_run_all_entries_are_the_tolerance_table():
    rep = run_all(ref_surface(), VerifyConfig(nu=31, nv=31))
    assert sorted(e.name for e in rep.entries) == sorted(DEFAULT_TOLERANCES)


def test_hopf_tube_skips_the_registry_helix_only_checks():
    rep = run_all(hopf_tube(), VerifyConfig(nu=31, nv=31))
    helix_only = [c.name for c in CHECKS if c.helix_only]
    assert helix_only == ["profile_constraint", "first_order_system", "gauss_curvature",
                          "shape_operator"]
    assert rep.notes[-1] == ("skipped helix-only checks: profile_constraint, "
                             "first_order_system, gauss_curvature, shape_operator")
    skipped = {"profile_constraint", "first_order_system", "gauss_curvature", "shape_operator",
               "lambda_measured"}
    assert {e.name for e in rep.entries} == set(DEFAULT_TOLERANCES) - skipped


# ------------------------------------------- the (eps, theta) range (D2)

RANGE_EPS = [float(x) for x in np.geomspace(0.05, 10.0, 12)]
RANGE_THETA = [float(x) for x in np.linspace(0.01, 1.55, 8)]


@pytest.mark.parametrize("th", RANGE_THETA)
@pytest.mark.parametrize("eps", RANGE_EPS)
def test_reference_surface_passes_across_the_parameter_range(eps, th):
    rep = run_all(ref_surface(eps, th))
    assert rep.overall_pass, [e for e in rep.entries if not e.passed]


# the fault matrix: every HelixConstants field off by 1%, the constants of
# a neighbouring (eps, theta), an xi3 and an xi1 that break admissibility,
# and a family that is not isometric
CONSTANT_FAULTS = [f.name for f in dataclasses.fields(HelixConstants)]
FAULTS = CONSTANT_FAULTS + ["eps+0.01", "theta+0.01", "xi3", "xi1", "family"]
FAULT_POINTS = [(0.05, 0.01), (0.05, 1.55), (10.0, 0.01), (10.0, 1.55), (0.8, math.pi / 4)]
GAUSS_K_MISS = pytest.mark.xfail(strict=True, reason=(
    "|K| is 1.73e-3 at (0.05, 1.55), so a 1% gauss_k fault moves the residual by 1.7e-5, "
    "under the absolute tolerance 1e-3 of gauss_curvature; the measured K is right to 1e-11, "
    "and a residual relative to |K| is open (ROADMAP item 1)"))


def faulty_surface(monkeypatch, eps, th, fault):
    """The reference surface at (eps, th) with one fault of the matrix."""
    s = ref_surface(eps, th)
    if fault in CONSTANT_FAULTS:
        bad = dataclasses.replace(s.consts, **{fault: getattr(s.consts, fault) * 1.01})
        return make_surface(s.params, s.profile, consts=bad)
    if fault in ("eps+0.01", "theta+0.01"):
        near = BergerParams(eps + 0.01, th) if fault == "eps+0.01" else BergerParams(eps, th + 0.01)
        return make_surface(s.params, s.profile, consts=compute_constants(near))
    if fault == "xi3":   # a 0.1% slope change breaks the admissibility constraint
        return make_surface(s.params, dataclasses.replace(s.profile, xi3=Linear(1.001)))
    if fault == "xi1":
        xi1 = Sinusoid(0.05, 1.0, 0.0, math.pi / 4)
        return make_surface(s.params, dataclasses.replace(s.profile, xi1=xi1))
    rows = family_module._rows_from_first

    def skewed(xi, r1):   # the second row, J1 times the first, 1% too long
        A = rows(xi, r1)
        A[..., 1, :] *= 1.01
        return A

    monkeypatch.setattr(family_module, "_rows_from_first", skewed)
    return s


@pytest.mark.parametrize("eps,th,fault", [
    pytest.param(eps, th, fault, marks=GAUSS_K_MISS)
    if (eps, th, fault) == (0.05, 1.55, "gauss_k") else (eps, th, fault)
    for eps, th in FAULT_POINTS for fault in FAULTS])
def test_faults_fail_at_the_range_corners(monkeypatch, eps, th, fault):
    assert not run_all(faulty_surface(monkeypatch, eps, th, fault)).overall_pass


# the witness table: per entry, a point and a fault that fails that entry
# and no other, so no entry repeats another.  angle_constancy, the property
# the paper defines, needs none.  A fault is a name of FAULTS, or maps
# (monkeypatch, reference surface) to the surface to verify.
Q = (0.8, math.pi / 4)


def patched(module, name, change):
    """The fault that applies change to each output of module.name."""
    def fault(monkeypatch, s):
        exact = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kw: change(exact(*args, **kw)))
        return s
    return fault


def on_profile(profile, fault):
    def on(monkeypatch, s):
        return fault(monkeypatch, make_surface(s.params, profile))
    return on


def negated(*index):
    def change(a):
        a[index] *= -1.0
        return a
    return change


def rotated_rows_0_and_2(A, angle=1e-10):
    """A with rows 0 and 2 turned in their plane: still orthogonal, but no
    longer commuting with J1."""
    c, s = math.cos(angle), math.sin(angle)
    r0, r2 = A[..., 0, :].copy(), A[..., 2, :]
    A[..., 0, :] = c * r0 - s * r2
    A[..., 2, :] = s * r0 + c * r2
    return A


def sweep_coefficient(C):
    C[1, 2] *= 1.0 + 1e-6      # the b_0 b_2 coefficient of <F_u, J2 F>
    return C


WITNESSES = {
    "product_table": (Q, "d_const"),
    "j1_products": (Q, "i_const"),
    "fourth_order_ode": (Q, "b_tilde"),
    "gauss_curvature": (Q, "gauss_k"),
    "first_order_system": ((0.05, 1.55), "B"),
    "profile_constraint": ((0.05, 0.01), lambda monkeypatch, s: make_surface(
        s.params, dataclasses.replace(s.profile, xi3=Linear(1.0 + 1e-7)))),
    "family_orthogonality": (Q, patched(family_module, "_rows_from_first",
                                        lambda A: A * (1.0 + 1e-11))),
    "family_j1_commutation": (Q, patched(family_module, "_rows_from_first",
                                         rotated_rows_0_and_2)),
    "shape_operator": (Q, patched(verify_module, "connection_table", negated(0, 1, 2))),
    "lambda_measured": ((0.05, 1.55), on_profile(
        LAMBDA_PROFILES["sin0.2"], patched(verify_module, "connection_table", negated(1, 0, 2)))),
    "separable_vs_direct": ((0.05, 0.01), patched(surface_module, "_sweep_forms",
                                                  sweep_coefficient)),
    "normal_closed_form": (Q, patched(surface_module, "_tangent_tail",
                                      lambda td: dataclasses.replace(td, normal=-td.normal))),
}


def failing_entries(monkeypatch, witness):
    """The entries but angle_constancy of the faulty surface's report, and
    those of them that fail."""
    (eps, th), fault = witness
    s = (fault(monkeypatch, ref_surface(eps, th)) if callable(fault)
         else faulty_surface(monkeypatch, eps, th, fault))
    rep = run_all(s)
    return ({e.name for e in rep.entries} - {"angle_constancy"},
            [e.name for e in rep.entries if not e.passed])


@pytest.mark.parametrize("entry", sorted(set(DEFAULT_TOLERANCES) - {"angle_constancy"}))
def test_every_entry_but_angle_constancy_has_a_sole_failure_witness(monkeypatch, entry):
    # an entry that no fault fails alone repeats another; a new entry needs a witness
    entries, failing = failing_entries(monkeypatch, WITNESSES[entry])
    assert set(WITNESSES) == entries
    assert failing == [entry]


def flipped_sweep_normal(C):
    C[[0, 1, 2, 8]] *= -1.0    # the forms linear in F_u: F_u negated
    return C


def steeper(jet):
    return (jet[0], jet[1] * 1.001) if len(jet) == 2 else jet


@pytest.mark.parametrize("witness", [
    pytest.param((Q, patched(surface_module, "_sweep_forms", flipped_sweep_normal)),
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "F_u negated in the sweep flips every normal of sample_grid, but "
                     "separable_vs_direct compares angles only")), id="sweep_normal_sign"),
    pytest.param((Q, on_profile(LAMBDA_PROFILES["table"],
                                patched(family_module.Tabulated, "jet", steeper))),
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "a Tabulated derivative 0.1% off fails no entry with analytic F_v; "
                     "with fd F_v normal_closed_form fails it")), id="tabulated_derivative"),
])
def test_code_faults_no_entry_fails_yet(monkeypatch, witness):
    assert failing_entries(monkeypatch, witness)[1]


# the corners, the middle, two inner points, and the point where the
# fourth-order residual, taken absolutely, read 1.37e-10 on the reference
# surface from the rounding of terms near alpha1^4 (D7)
MENDED_POINTS = [(0.05, 0.01), (0.05, 1.55), (10.0, 0.01), (10.0, 1.55), (0.8, math.pi / 4),
                 (0.131, 0.67), (0.343, 1.11), (0.050396309125589143, 1.5091288231402757)]


@pytest.mark.parametrize("eps,th", MENDED_POINTS)
@pytest.mark.parametrize("fv_method", ["analytic", "fd"])
@pytest.mark.parametrize("profile", closed_form_profiles() + [example_profile()],
                         ids=["sin0.01", "sin0.2", "sin0.5", "table", "xi0.3", "reference"])
def test_valid_surfaces_pass_with_either_fv_method(profile, fv_method, eps, th):
    # a derived xi3 whose value and derivative disagreed (D5) failed fd F_v
    # on most of these, and the rounding of the fourth-order terms (D7) the
    # last point
    rep = run_all(make_surface(BergerParams(eps, th), profile, fv_method=fv_method))
    assert rep.overall_pass, [e for e in rep.entries if not e.passed]


def test_one_percent_curvature_fault_fails_gauss_curvature():
    s = ref_surface(0.8, math.pi / 4)
    bad = dataclasses.replace(s.consts, gauss_k=s.consts.gauss_k * 1.01)
    e = run_all(make_surface(s.params, s.profile, consts=bad)).entry("gauss_curvature")
    assert not e.passed, e


# ------------------------------------------------------------ measured lambda

REFERENCE_B_MISS = pytest.mark.xfail(strict=True, reason=(
    "the nudged interior points of the reference profile at (0.05, 1.55) lie within 0.015 "
    "in u and lambda is near 165, close to a pole of tan, so a 1% B fault moves the spread "
    "of eta by 9e-10, under 1e-7; first_order_system still fails the fault there"))


def measured_lambda(surface):
    """(residual, passed) of lambda_measured, an entry of shape_operator."""
    return registry_entry(surface, "lambda_measured", "shape_operator")


@pytest.mark.parametrize("eps,th,profile", [
    pytest.param(eps, th, name, marks=REFERENCE_B_MISS)
    if (eps, th, name) == (0.05, 1.55, "reference") else (eps, th, name)
    for eps, th in FAULT_POINTS for name in LAMBDA_PROFILES])
def test_one_percent_b_fault_fails_lambda_measured(eps, th, profile):
    s = make_surface(BergerParams(eps, th), LAMBDA_PROFILES[profile])
    assert measured_lambda(s)[1]
    bad = dataclasses.replace(s.consts, B=s.consts.B * 1.01)
    residual, passed = measured_lambda(make_surface(s.params, s.profile, consts=bad))
    assert not passed, residual


@pytest.mark.parametrize("fv_method", ["analytic", "fd"])
@pytest.mark.parametrize("profile", list(LAMBDA_PROFILES))
def test_lambda_measured_passes_valid_surfaces_across_the_range(profile, fv_method):
    worst = max(measured_lambda(make_surface(BergerParams(float(eps), float(th)),
                                             LAMBDA_PROFILES[profile], fv_method=fv_method))[0]
                for eps in np.geomspace(0.05, 10.0, 5) for th in np.linspace(0.01, 1.55, 4))
    assert worst <= DEFAULT_TOLERANCES["lambda_measured"], worst


def test_a_nan_lambda_at_one_interior_point_fails_lambda_measured(monkeypatch):
    exact = verify_module.shape_operator_matrix

    def spoiled(surface, td):
        S = exact(surface, td)
        S[4, 1, 1] = np.nan
        return S

    monkeypatch.setattr(verify_module, "shape_operator_matrix", spoiled)
    rep = run_all(ref_surface(0.8))
    e = rep.entry("lambda_measured")
    assert math.isnan(e.residual) and not e.passed, e
    # the shape operator's own entry does not read S[1,1]
    assert rep.entry("shape_operator").passed
    assert not rep.overall_pass


# ------------------------------------------------------- non-finite samples

def test_nan_residual_fails_family_entries():
    # a NaN seen after finite residuals must not drop out of the reduction:
    # A(v) turns NaN on the last four v of the grid only
    rep = run_all(nan_tail_surface())
    for name in ("family_orthogonality", "family_j1_commutation"):
        e = rep.entry(name)
        assert e.samples == 81
        assert math.isnan(e.residual) and not e.passed, e
    assert not rep.overall_pass


def strict_json(text):
    """json.loads refusing NaN, Infinity and -Infinity, as JSON.parse does."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_nan_residual_report_is_strict_json():
    # the interior points lie at v < 6, so lambda_measured stays finite
    report = run_all(nan_tail_surface(), VerifyConfig(tolerances={"lambda_measured": math.inf}))
    checks = {c["name"]: c for c in strict_json(report.to_json())["checks"]}
    for name in ("family_orthogonality", "family_j1_commutation"):
        assert checks[name]["residual"] is None and checks[name]["passed"] is False
    # a tolerance of inf, which passes any number, is written null
    lam = checks["lambda_measured"]
    assert lam["tolerance"] is None and lam["passed"] is True
    assert isinstance(lam["residual"], float)


def test_grid_labels_non_finite_samples():
    g = sample_grid(nan_tail_surface(), 81, 81)
    non_finite = [(i, j) for i, j, kind in g.defects if kind == "non_finite"]
    degenerate = [(i, j) for i, j, kind in g.defects if kind == "degenerate_tangent_plane"]
    assert len(non_finite) == 324                        # the columns v > 6
    assert all(g.vs[j] > 6 for _, j in non_finite)
    assert not any(np.all(np.isfinite(g.positions[i, j])) for i, j in non_finite)
    assert degenerate and all(np.all(np.isfinite(g.positions[i, j])) for i, j in degenerate)


def test_non_finite_samples_fail_angle_constancy():
    e = run_all(nan_tail_surface()).entry("angle_constancy")
    assert math.isnan(e.residual) and not e.passed, e


def test_sweep_grid_labels_non_finite_samples_as_the_grid_does():
    # sample_grid is a view of sweep_grid, so the grid to compare is tangent_data's
    s = nan_tail_surface()
    us, vs = grid_axes(s, 81, 81)
    sweep = sweep_grid(s, us, vs)
    td = tangent_data(s, us[:, None], vs[None, :])
    labelled = {(int(i), int(j)) for i, j in zip(*np.nonzero(sweep.defect == NON_FINITE))}
    assert len(labelled) == 324
    assert labelled == {(int(i), int(j)) for i, j in zip(*np.nonzero(td.defect == NON_FINITE))}
    assert np.array_equal(np.isnan(sweep.angle), np.isnan(td.angle))


# ------------------------------------------------------- the streamed sweep

def whole_grid_angle_sweep(surface, config):
    """The angle sweep's entries by one reduction over whole-grid arrays
    of sweep_grid, the oracle of the block-by-block _angle_sweep."""
    sweep = sweep_grid(surface, *grid_axes(surface, config.nu, config.nv))
    target = math.pi / 2 if surface.profile.hopf_tube[0] else surface.params.theta
    counted = ~np.isnan(sweep.angle) | (sweep.defect == NON_FINITE)
    return {"angle_constancy": (np.abs(sweep.angle[counted] - target), int(np.sum(counted)))}


def reduced_entries(entries):
    """Per entry, the bytes of the residual as run_all reduces it, and the
    sample count."""
    out = {}
    for name, (residual, samples) in entries.items():
        r = np.asarray(residual, dtype=float)
        out[name] = (np.float64(np.max(r) if r.size else math.inf).tobytes(), samples)
    return out


def all_degenerate_surface():
    """Constant xi: A(v) is constant, F_v vanishes and every sample of the
    grid is degenerate."""
    prof = XiProfile(xi=0.3, xi1=Constant(math.pi / 4), xi2=Constant(0.5),
                     xi3=Constant(-0.5), v_min=0.0, v_max=2 * math.pi)
    return make_surface(P_REF, prof)


def nan_rows(monkeypatch, rows):
    """Make beta NaN on the given rows of the sweep's u axis."""
    exact = surface_module.beta

    def spoiled(u, consts):
        b = exact(u, consts)
        b[rows] = np.nan
        return b

    monkeypatch.setattr(surface_module, "beta", spoiled)


@pytest.mark.parametrize("case", ["analytic", "fd", "nan_tail", "hopf_tube", "all_degenerate",
                                  "nan_rows"])
def test_streamed_angle_sweep_matches_the_whole_grid_reduction(monkeypatch, case):
    s = {"analytic": ref_surface(0.8), "fd": ref_surface(0.8, fv_method="fd"),
         "nan_tail": nan_tail_surface(), "hopf_tube": hopf_tube(),
         "all_degenerate": all_degenerate_surface(), "nan_rows": ref_surface(0.8)}[case]
    # 41 x 37 samples in blocks of three u rows, the last one ragged
    monkeypatch.setattr(surface_module, "SWEEP_BLOCK", 3 * 37 + 5)
    cfg = VerifyConfig(nu=41, nv=37)
    axes = grid_axes(s, 41, 37)
    assert len(surface_module.map_blocks(s, *axes, lambda block, start: start)) == 14
    if case == "nan_rows":
        # blocks 3 and 8 hold a non-finite row and block 0 the degenerate
        # row u = 0; the other eleven are healthy
        nan_rows(monkeypatch, [10, 25])
        codes = sweep_grid(s, *axes).defect
        assert np.all(codes[[10, 25]] == NON_FINITE) and np.all(codes[0] == DEGENERATE)
        assert np.count_nonzero(codes) == 3 * 37
    got = reduced_entries(REGISTRY["angle_sweep"].fn(_Run(s, cfg)))
    assert got == reduced_entries(whole_grid_angle_sweep(s, cfg))
    residual = np.frombuffer(got["angle_constancy"][0])[0]
    if case in ("nan_tail", "nan_rows"):
        assert math.isnan(residual)
    elif case == "all_degenerate":
        assert residual == math.inf and got["angle_constancy"][1] == 0
    else:
        assert residual < 1e-8


@pytest.mark.parametrize("case", ["analytic", "nan_tail", "hopf_tube"])
def test_results_do_not_depend_on_the_worker_count(monkeypatch, case):
    """sweep_grid's arrays and the run_all report, bit for bit, whether the
    14 blocks of 41 x 37 samples run in the calling thread alone or on three
    workers; on the NaN tail every block holds a NaN, so the masked
    reduction runs in the threads too."""
    s = {"analytic": ref_surface(0.8), "nan_tail": nan_tail_surface(),
         "hopf_tube": hopf_tube()}[case]
    monkeypatch.setattr(surface_module, "SWEEP_BLOCK", 3 * 37 + 5)
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    cfg = VerifyConfig(nu=41, nv=37)
    outputs = []
    for workers in (1, 3):
        monkeypatch.setattr(surface_module, "_workers", lambda: workers)
        sweep = sweep_grid(s, *grid_axes(s, cfg.nu, cfg.nv))
        outputs.append([getattr(sweep, name).tobytes()
                        for name in ("defect", "normals", "angle")]
                       + [run_all(s, cfg).to_json()])
    assert outputs[0] == outputs[1]
    assert len(started) == 2 * 2       # two threads per map_blocks on three workers
    assert not any(t.is_alive() for t in started)


def test_every_block_is_taken_once_under_frequent_thread_switches(monkeypatch):
    """Eight workers, more than the cores, on 201 one-row blocks with the
    interpreter switching threads every microsecond: each block's fn runs
    once and its result lands in its own slot."""
    monkeypatch.setattr(surface_module, "SWEEP_BLOCK", 37)
    monkeypatch.setattr(surface_module, "_workers", lambda: 8)
    s, calls = ref_surface(0.8), []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        starts = surface_module.map_blocks(s, *grid_axes(s, 201, 37),
                                           lambda block, start: calls.append(start) or start)
    finally:
        sys.setswitchinterval(interval)
    assert starts == list(range(201))
    assert sorted(calls) == list(range(201))


def test_an_exception_in_a_worker_thread_reaches_the_caller(monkeypatch):
    """The calling thread holds its first block until a worker thread has
    raised; every thread is joined before the exception is re-raised."""
    monkeypatch.setattr(surface_module, "SWEEP_BLOCK", 3 * 37 + 5)
    monkeypatch.setattr(surface_module, "_workers", lambda: 3)
    s, main, raised = ref_surface(0.8), threading.get_ident(), threading.Event()
    before = threading.active_count()

    def fn(block, start):
        if threading.get_ident() == main:
            assert raised.wait(timeout=30)
            return start
        raised.set()
        raise RuntimeError(f"block at row {start}")

    with pytest.raises(RuntimeError, match="block at row"):
        surface_module.map_blocks(s, *grid_axes(s, 41, 37), fn)
    assert threading.active_count() == before


def test_an_exception_stops_the_other_workers_taking_blocks(monkeypatch):
    """The calling thread raises on its first block; the worker thread
    then computes at most the one block it may already hold, not the rest
    of the 201."""
    monkeypatch.setattr(surface_module, "SWEEP_BLOCK", 37)
    monkeypatch.setattr(surface_module, "_workers", lambda: 2)
    s, main, raised, taken = ref_surface(0.8), threading.get_ident(), threading.Event(), []

    def fn(block, start):
        if threading.get_ident() == main:
            raised.set()
            raise RuntimeError("stop")
        assert raised.wait(timeout=30)
        taken.append(start)

    with pytest.raises(RuntimeError, match="stop"):
        surface_module.map_blocks(s, *grid_axes(s, 201, 37), fn)
    assert len(taken) <= 1


@pytest.mark.parametrize("cpus, workers", [(1, 1), (2, 2), (64, surface_module.SWEEP_WORKERS)])
def test_the_workers_are_the_cpus_up_to_the_measured_count(monkeypatch, cpus, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert surface_module._workers() == workers


def test_a_single_block_starts_no_thread(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", refuse)
    monkeypatch.setattr(surface_module, "_workers", lambda: 2)
    s = ref_surface(0.8)
    assert run_all(s).overall_pass               # 81 x 81: one block
    with pytest.raises(AssertionError, match="a thread was started"):
        sweep_grid(s, *grid_axes(s, 1001, 41))   # two blocks


def test_run_all_holds_no_full_grid_array():
    # two float arrays of the 1001 x 1001 grid take 16 MB; the sweep's
    # workers take 2.6 MB each, as many as the host's CPUs up to SWEEP_WORKERS
    s, cfg = ref_surface(0.8), VerifyConfig(nu=1001, nv=1001)
    tracemalloc.start()
    try:
        run_all(s, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1001 * 1001 * 8, peak


def test_run_all_on_a_many_cpu_host_holds_no_full_grid_array(monkeypatch):
    # the worker cap bounds the sweep's buffers on a host of 64 CPUs too
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    test_run_all_holds_no_full_grid_array()


# ------------------------------------------------------------ nudge search

def sequential_interior_points(surface):
    """The nudge search one first_fundamental_form call per step: each
    point steps in u until its relative determinant is healthy, at most
    16 times.  Returns the points and the number of calls."""
    u0, u1 = surface.u_domain
    v0, v1 = surface.v_domain
    fracs = np.array([1.0, 2.0, 3.0]) / 4.0
    u = u0 + np.repeat(fracs, 3) * (u1 - u0)
    v = v0 + np.tile(fracs, 3) * (v1 - v0)
    calls = 0
    for _ in range(16):
        E, Fc, G = verify_module.first_fundamental_form(surface, tangent_data(surface, u, v))
        calls += 1
        nudge = ~(E * G - Fc * Fc > 0.05 * E * G)
        if not np.any(nudge):
            break
        u = np.where(nudge, u0 + (u - u0 + (u1 - u0) / 7.3) % (u1 - u0), u)
    return np.stack([u, v], axis=-1), calls


def counted_interior_points(monkeypatch, surface, fff=first_fundamental_form):
    calls = []

    def counting(*args):
        calls.append(args)
        return fff(*args)

    monkeypatch.setattr(verify_module, "first_fundamental_form", counting)
    return _Run(surface, VerifyConfig()).interior, len(calls)


@pytest.mark.parametrize("eps,th,steps", [(0.8, math.pi / 4, 2), (0.05, 1.55, 6),
                                          (10.0, 1.55, 6)])
def test_interior_points_match_the_sequential_search(monkeypatch, eps, th, steps):
    s = ref_surface(eps, th)
    want, calls = sequential_interior_points(s)
    assert calls == steps
    got, calls = counted_interior_points(monkeypatch, s)
    assert calls == 1
    assert np.array_equal(got, want)


def test_interior_points_stay_on_the_first_candidate_where_the_metric_is_nan(monkeypatch):
    # a NaN relative determinant counts as least, so where every candidate
    # has one the point keeps its unstepped u
    def nan_metric(surface, td):
        nan = np.full(td.gram.shape, np.nan)
        return nan, nan, nan

    s = ref_surface(0.8)
    healthy = _Run(s, VerifyConfig()).interior
    got, calls = counted_interior_points(monkeypatch, s, nan_metric)
    assert calls == 1
    us, v = verify_module._nudge_candidates(s)
    assert np.array_equal(got, np.stack([us[0], v], axis=-1))
    assert not np.all(got[:, 0] == healthy[:, 0])


@pytest.mark.parametrize("fv_method", ["analytic", "fd"])
@pytest.mark.parametrize("eps, profile", [(float(np.geomspace(0.05, 10.0, 40)[21]), "xi0.3"),
                                          (RANGE_EPS[10], "table")])
def test_a_point_without_a_healthy_candidate_takes_its_best(eps, profile, fv_method):
    # none of the first interior point's candidates reaches a relative
    # determinant of 0.05 here; an unevaluated fallback, 1e-8 from
    # singular, read gauss_curvature 0.083 (xi0.3) and 0.137 (table)
    s = make_surface(BergerParams(eps, 1.55), LAMBDA_PROFILES[profile], fv_method=fv_method)
    run = _Run(s, VerifyConfig())
    E, Fc, G = first_fundamental_form(s, run.real["interior"][2])
    relative = (E * G - Fc * Fc) / (E * G)
    assert np.max(relative[:, 0]) < 0.05
    assert run.interior[0, 0] == run.candidates[0][np.argmax(relative[:, 0]), 0]
    residual, passed = registry_entry(s, "gauss_curvature")
    assert passed and residual < 1e-10, residual


# ---------------------------------------------------------------- warnings

@pytest.mark.parametrize("case", ["nan_tail", "hopf_tube", "fd_no_stencil", "degenerate_u0"])
def test_kernels_raise_no_runtime_warning(case):
    """Every kernel evaluates on defective samples too and must stay quiet
    there: NaN profiles, a Hopf tube, fd F_v (a complex step, no stencil)
    at the domain ends and the degenerate u = 0 column of the reference
    surface."""
    s, n = {"nan_tail": (nan_tail_surface(), 11), "hopf_tube": (hopf_tube(), 11),
            "fd_no_stencil": (ref_surface(fv_method="fd"), 2),
            "degenerate_u0": (ref_surface(), 21)}[case]
    us, vs = np.linspace(*s.u_domain, n), np.linspace(*s.v_domain, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        td = tangent_data(s, us[:, None], vs[None, :])
        tangent_data(s, us[0], vs)
        sweep_grid(s, us, vs)
        sample_grid(s, n, n)
        run_all(s, VerifyConfig(nu=n, nv=n))
    assert np.any(td.defect != 0) == (case != "hopf_tube")


# ------------------------------------------------- separable vs direct kernel

def test_separable_vs_direct_reference_golden():
    e = run_all(ref_surface(0.8)).entry("separable_vs_direct")
    assert e.passed and e.samples == 21 * 21 and e.residual < 1e-12, e


def test_separable_vs_direct_small_grid_compares_every_point():
    _, samples = REGISTRY["separable_vs_direct"].fn(
        _Run(ref_surface(), VerifyConfig(nu=7, nv=5)))["separable_vs_direct"]
    assert samples == 35


@pytest.mark.parametrize("fault", ["coefficient", "defect"])
def test_separable_vs_direct_detects_a_faulty_kernel(monkeypatch, fault):
    forms = surface_module._sweep_forms

    def faulty(surface, vs, jet=None):
        C = forms(surface, vs, jet)
        if fault == "coefficient":
            sweep_coefficient(C)
        else:
            # |F_u|^2 at one v of the compared subgrid (columns 0, 2, ..., 40):
            # those samples turn non_finite
            C[6, :, 4] = np.nan
        return C

    monkeypatch.setattr(surface_module, "_sweep_forms", faulty)
    rep = run_all(ref_surface(0.8), VerifyConfig(nu=41, nv=41))
    e = rep.entry("separable_vs_direct")
    assert not e.passed and e.residual > 1e-9, e
    if fault == "defect":
        assert e.residual == math.inf
    assert not rep.overall_pass


# ------------------------------------------------------------- the run context

def counted(monkeypatch, module, name):
    """The argument tuples of every call of module.name from now on."""
    calls, fn = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("case, runs", [("helix", 1), ("helix", 2), ("hopf_tube", 1)])
def test_run_all_evaluates_each_shared_set_once_per_call(monkeypatch, case, runs):
    s = {"helix": ref_surface(0.8, fv_method="fd"), "hopf_tube": hopf_tube()}[case]
    interior = counted(monkeypatch, verify_module, "_interior_points")
    forms = counted(monkeypatch, surface_module, "_sweep_forms")
    jets = counted(monkeypatch, verify_module, "_family_jet")
    samples = counted(monkeypatch, verify_module, "_sample_points")
    shape = counted(monkeypatch, verify_module, "shape_operator_matrix")
    direct = (counted(monkeypatch, verify_module, "tangent_data"),
              counted(monkeypatch, surface_module, "tangent_data"))
    complex_jets = counted(monkeypatch, verify_module, "_complex_jet")
    beta_jets = counted(monkeypatch, verify_module, "_beta_jet")
    assembled = counted(monkeypatch, verify_module, "assemble")
    for _ in range(runs):
        run_all(s, VerifyConfig(nu=21, nv=21))
    helix_runs = runs if case == "helix" else 0
    # the helix-only curvature and shape operator do not run on a Hopf tube;
    # shape_operator and lambda_measured read one evaluation
    assert len(interior) == len(shape) == helix_runs
    assert len(forms) == len(jets) == runs
    # the sweep's forms take the run's family jet, not one of their own
    assert all(args[2] is not None for args in forms)
    # every real point set is read from one tangent_data call
    assert len(direct[0]) == runs and direct[1] == []
    assert not any(np.iscomplexobj(a) for args in direct[0] for a in args[1:])
    # the curvature and the shape operator read one complex-step jet, one
    # beta jet and one assemble at complex points
    assert len(complex_jets) == helix_runs
    assert sum(np.iscomplexobj(args[0]) for args in beta_jets) == helix_runs
    assert sum(np.iscomplexobj(args[1]) for args in assembled) == helix_runs
    # fourth_order_ode, product_table and j1_products share one sample set
    # of 1000 points, with one beta jet at them
    assert sum(args[1] == 1000 for args in samples) == runs
    assert sum(not np.iscomplexobj(args[0]) for args in beta_jets) == runs


def assert_same_tangent_data(got, want, names):
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


TANGENT_FIELDS = [f.name for f in dataclasses.fields(surface_module.TangentData)]
PARITY_CASES = [(profile, eps, th, fv_method)
                for profile in closed_form_profiles() for eps, th in FAULT_POINTS[:4]
                for fv_method in ("analytic", "fd")]


@pytest.mark.parametrize("profile, eps, th, fv_method", PARITY_CASES + [
    (None, 1.0, math.pi / 4, "analytic")])
def test_shared_evaluations_equal_each_set_evaluated_alone(profile, eps, th, fv_method):
    """Each slice of the run's one tangent_data call equals tangent_data at
    that set's own (u, v), bit for bit, and so does the complex-step jet
    at the interior points; the case without a profile is the NaN tail,
    whose non-finite samples take _classify's masked path."""
    s = (nan_tail_surface() if profile is None
         else make_surface(BergerParams(eps, th), profile, fv_method=fv_method))
    run = _Run(s, VerifyConfig())
    for name, (u, v, td) in run.real.items():
        assert_same_tangent_data(td, tangent_data(s, u, v), TANGENT_FIELDS)
    if profile is None:
        assert np.any(run.real["subgrid"][2].defect == NON_FINITE)
    pts = run.interior
    assert_same_tangent_data(run.jet[0], tangent_data(s, *_complex_steps(pts[:, 0], pts[:, 1])),
                             TANGENT_FIELDS)
    # the u-products read the first 32 rows of the 1000 sample points
    us, vs, jet, A = run.samples
    u32, v32 = verify_module._sample_points(s, 32, verify_module.SEED)
    assert us[:32].tobytes() == u32.tobytes() and vs[:32].tobytes() == v32.tobytes()
    for b, want in zip(jet, surface_module._beta_jet(u32, s.consts, 0, 1, 2, 3)):
        assert b[:32].tobytes() == want.tobytes()
    assert A[:32].tobytes() == family_module.assemble(s.profile, v32)[0].tobytes()


@pytest.mark.parametrize("nu, nv", [(81, 81), (41, 1001)])
@pytest.mark.parametrize("case", ["analytic", "fd", "nan_tail"])
def test_separable_vs_direct_compares_the_sweep_on_the_subgrid_axes(case, nu, nv):
    """The samples the check compares, cut from the run's sweep of the
    whole grid, are bit for bit those of the kernel on the subgrid's axes;
    at 41 x 1001 the subgrid rows lie in two blocks."""
    s = {"analytic": ref_surface(0.8), "fd": ref_surface(0.8, fv_method="fd"),
         "nan_tail": nan_tail_surface()}[case]
    run = _Run(s, VerifyConfig(nu, nv))
    (iu, iv), (_, _, angle, defect) = run.subgrid, run.sweep
    us, vs = grid_axes(s, nu, nv)
    assert iu.size == iv.size == verify_module.SUBGRID_SIDE
    sub = sweep_grid(s, us[iu], vs[iv])
    assert angle.tobytes() == sub.angle.tobytes()
    assert defect.tobytes() == sub.defect.tobytes()
    assert np.any(defect != 0) and (case != "nan_tail" or np.any(defect == NON_FINITE))


@pytest.mark.parametrize("nu, nv", [(81, 81), (1001, 41)])
@pytest.mark.parametrize("profile, eps, th, fv_method", PARITY_CASES)
def test_angle_sweep_matches_the_per_sample_oracle(profile, eps, th, fv_method, nu, nv):
    """The sweep reads a block's peak from the angles of its two extreme
    cosines where they are finite, and through the per-sample masks
    elsewhere; either way the entry equals, bit for bit, the reduction of
    sweep_grid's per-sample angles over the whole grid.  At 1001 x 41 the
    default SWEEP_BLOCK makes two blocks."""
    s = make_surface(BergerParams(eps, th), profile, fv_method=fv_method)
    cfg = VerifyConfig(nu, nv)
    got = reduced_entries(REGISTRY["angle_sweep"].fn(_Run(s, cfg)))
    assert got == reduced_entries(whole_grid_angle_sweep(s, cfg))


@pytest.mark.parametrize("nu, nv", [(81, 81), (1001, 41)])
def test_arccos_is_non_increasing_over_each_blocks_sorted_cosines(nu, nv):
    """The property the sweep's reading of the extreme cosines rests on,
    block by block on the surfaces of the oracle test above, among which
    blocks with finite extremes and blocks with a NaN both occur."""
    finite = set()
    for profile, eps, th, fv_method in PARITY_CASES:
        s = make_surface(BergerParams(eps, th), profile, fv_method=fv_method)
        for cosine in surface_module.map_blocks(
                s, *grid_axes(s, nu, nv), lambda block, start: np.sort(block.cosine, axis=None)):
            finite.add(bool(np.isfinite(cosine[-1])))
            angle = surface_module._angles(cosine[np.isfinite(cosine)])
            assert np.all(angle[1:] <= angle[:-1])
    assert finite == {True, False}
