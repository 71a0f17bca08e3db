import dataclasses
import math
import warnings

import numpy as np
import pytest

import bergerhelix.family as family_module
import bergerhelix.surface as surface_module
import bergerhelix.verify as verify_module
from bergerhelix.ambient import BergerParams
from bergerhelix.errors import ConfigError, as_array
from bergerhelix.family import Constant, Linear, XiProfile, example_profile
from bergerhelix.surface import (
    NON_FINITE,
    first_fundamental_form,
    make_surface,
    sample_grid,
    sweep_grid,
    tangent_data,
)
from bergerhelix.verify import (
    CHECKS,
    DEFAULT_TOLERANCES,
    VerifyConfig,
    _interior_points,
    gauss_curvature_numeric,
    low_discrepancy,
    normal_closed_form_n1,
    run_all,
    shape_operator_matrix,
    tangent_turn_coefficient,
)

P_REF = BergerParams(1.0, math.pi / 4)
REGISTRY = {c.name: c for c in CHECKS}


def registry_entry(surface, name):
    """(residual, passed) of the entry a registered check names after
    itself, at the default config, reduced and judged as run_all does."""
    cfg = VerifyConfig()
    residual = float(np.max(REGISTRY[name].fn(surface, cfg)[name][0]))
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
    got = gauss_curvature_numeric(s, 0.9, 1.1)
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
    assert gauss_curvature_numeric(s, u, 1.0) == math.inf
    K = gauss_curvature_numeric(s, np.array([u, 0.9]), np.array([1.0, 1.1]))
    assert K[0] == math.inf and K[1] == pytest.approx(0.0, abs=1e-3)


def test_shape_operator_form():
    for eps, th in [(1.0, math.pi / 4), (0.5, math.pi / 3), (1.5, math.pi / 6)]:
        s = ref_surface(eps, th)
        e = registry_entry(s, "shape_operator")
        assert e[1], (eps, th, e)
        S = shape_operator_matrix(s, 0.9, 1.1)
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
    S = shape_operator_matrix(s, np.array([0.0, 0.9]), np.array([1.0, 1.1]))
    assert np.all(np.isnan(S[0])) and np.all(np.isfinite(S[1]))


def test_tangent_turn_coefficient():
    # induced connection: g(nabla_T T, JT)/sin^2 = -2 eps cos(theta)
    for eps, th in [(1.0, math.pi / 4), (0.5, math.pi / 3)]:
        s = ref_surface(eps, th)
        got = tangent_turn_coefficient(s, 0.9, 1.1)
        assert got == pytest.approx(-2 * eps * math.cos(th), abs=1e-4)


def test_shape_operator_trace_matches_reported_lambda():
    s = ref_surface()
    S = shape_operator_matrix(s, 0.9, 1.1)
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
    with pytest.raises(ConfigError, match=r"unknown tolerance names \['nope'\]; known names: ab_"):
        VerifyConfig(tolerances={"nope": 1})


@pytest.mark.parametrize("value", [math.nan, -1.0, -math.inf, "1e-3", None])
def test_verify_config_refuses_a_tolerance_that_is_not_a_non_negative_number(value):
    with pytest.raises(ConfigError, match=r"tolerance angle_constancy=.* must be a non-negative"):
        VerifyConfig(tolerances={"angle_constancy": value})


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
    assert helix_only == ["profile_constraint", "first_order_system", "gram",
                          "gauss_curvature", "shape_operator"]
    assert rep.notes[-1] == ("skipped helix-only checks: profile_constraint, "
                             "first_order_system, gram, gauss_curvature, shape_operator")
    skipped = {"profile_constraint", "first_order_system", "gram_diagonal",
               "gram_off_diagonal", "gauss_curvature", "shape_operator"}
    assert {e.name for e in rep.entries} == set(DEFAULT_TOLERANCES) - skipped


# ------------------------------------------- the (eps, theta) range (D2)

RANGE_EPS = [float(x) for x in np.geomspace(0.05, 10.0, 12)]
RANGE_THETA = [float(x) for x in np.linspace(0.01, 1.55, 8)]


@pytest.mark.parametrize("th", RANGE_THETA)
@pytest.mark.parametrize("eps", RANGE_EPS)
def test_reference_surface_passes_across_the_parameter_range(eps, th):
    rep = run_all(ref_surface(eps, th))
    assert rep.overall_pass, [e for e in rep.entries if not e.passed]


@pytest.mark.parametrize("fault", ["alpha1", "xi3"])
@pytest.mark.parametrize("eps,th", [(0.05, 0.01), (0.05, 1.55), (10.0, 0.01), (10.0, 1.55)])
def test_faults_fail_at_the_range_corners(eps, th, fault):
    s = ref_surface(eps, th)
    if fault == "alpha1":
        s = make_surface(s.params, s.profile,
                         consts=dataclasses.replace(s.consts, alpha1=s.consts.alpha1 * 1.01))
    else:   # a 0.1% slope change breaks the admissibility constraint
        s = make_surface(s.params, dataclasses.replace(s.profile, xi3=Linear(1.001)))
    assert not run_all(s).overall_pass


def test_one_percent_curvature_fault_fails_gauss_curvature():
    s = ref_surface(0.8, math.pi / 4)
    bad = dataclasses.replace(s.consts, gauss_k=s.consts.gauss_k * 1.01)
    e = run_all(make_surface(s.params, s.profile, consts=bad)).entry("gauss_curvature")
    assert not e.passed, e


# ------------------------------------------------------- non-finite samples

def test_nan_residual_fails_gram_entries():
    # a NaN seen after finite residuals must not drop out of the reduction
    rep = run_all(nan_tail_surface())
    for name in ("gram_diagonal", "gram_off_diagonal"):
        e = rep.entry(name)
        assert e.samples == 7
        assert math.isnan(e.residual) and not e.passed, e
    assert not rep.overall_pass


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
    s = nan_tail_surface()
    g = sample_grid(s, 81, 81)
    sweep = sweep_grid(s, g.us, g.vs)
    labelled = {(int(i), int(j)) for i, j in zip(*np.nonzero(sweep.defect == NON_FINITE))}
    assert len(labelled) == 324
    assert labelled == {(i, j) for i, j, kind in g.defects if kind == "non_finite"}
    assert np.array_equal(np.isnan(sweep.angle), np.isnan(g.angles))


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
        E, Fc, G = verify_module.first_fundamental_form(surface, u, v)
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
    return _interior_points(surface), len(calls)


@pytest.mark.parametrize("eps,th,steps", [(0.8, math.pi / 4, 2), (0.05, 1.55, 6),
                                          (10.0, 1.55, 6)])
def test_interior_points_match_the_sequential_search(monkeypatch, eps, th, steps):
    s = ref_surface(eps, th)
    want, calls = sequential_interior_points(s)
    assert calls == steps
    got, calls = counted_interior_points(monkeypatch, s)
    assert calls == 1
    assert np.array_equal(got, want)


def test_interior_points_end_on_the_last_candidate_where_the_metric_is_nan(monkeypatch):
    def nan_metric(surface, u, v):
        nan = np.full(np.broadcast_shapes(np.shape(u), np.shape(v)), np.nan)
        return nan, nan, nan

    s = ref_surface(0.8)
    healthy = _interior_points(s)
    monkeypatch.setattr(verify_module, "first_fundamental_form", nan_metric)
    want, calls = sequential_interior_points(s)
    assert calls == 16
    got, calls = counted_interior_points(monkeypatch, s, nan_metric)
    assert calls == 1
    assert np.array_equal(got, want)
    assert not np.any(got[:, 0] == healthy[:, 0])


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
        ref_surface(), VerifyConfig(nu=7, nv=5))["separable_vs_direct"]
    assert samples == 35


@pytest.mark.parametrize("fault", ["coefficient", "defect"])
def test_separable_vs_direct_detects_a_faulty_kernel(monkeypatch, fault):
    forms = surface_module._sweep_forms

    def faulty(surface, vs):
        C = forms(surface, vs)
        if fault == "coefficient":
            C[1, 2] *= 1.0 + 1e-6      # the b_0 b_2 coefficient of <F_u, J2 F>
        else:
            C[6, :, 3] = np.nan        # |F_u|^2 at one v: those samples turn non_finite
        return C

    monkeypatch.setattr(surface_module, "_sweep_forms", faulty)
    rep = run_all(ref_surface(0.8), VerifyConfig(nu=41, nv=41))
    e = rep.entry("separable_vs_direct")
    assert not e.passed and e.residual > 1e-9, e
    if fault == "defect":
        assert e.residual == math.inf
    assert not rep.overall_pass
