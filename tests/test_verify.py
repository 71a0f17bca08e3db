import dataclasses
import math

import numpy as np
import pytest

from bergerhelix.ambient import BergerParams
from bergerhelix.family import Constant, FromCallable, Linear, XiProfile, example_profile
from bergerhelix.surface import make_surface, sample_grid
from bergerhelix.verify import (
    CHECKS,
    DEFAULT_TOLERANCES,
    VerifyConfig,
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
    return residual, residual <= cfg.tol(name, surface)


def ref_surface(eps=1.0, th=math.pi / 4, **kw):
    return make_surface(BergerParams(eps, th), example_profile(), **kw)


def hopf_tube():
    prof = XiProfile(xi=math.pi / 2, xi1=Constant(0.0), xi2=Linear(1.0),
                     xi3=Constant(0.0), v_min=0.0, v_max=2 * math.pi)
    return make_surface(P_REF, prof)


def nan_tail_surface():
    """The reference surface with an xi2 that turns NaN for v > 6, so the
    samples at v = 2 pi are not finite."""
    def xi2(v):
        v = np.asarray(v, dtype=float)
        return np.where(v > 6, np.nan, v)

    prof = XiProfile(xi=math.pi / 2, xi1=Constant(math.pi / 4),
                     xi2=FromCallable(xi2, lambda v: np.ones_like(np.asarray(v, dtype=float))),
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


def test_gauss_curvature_step_convergence():
    # second-order scheme: halving h shrinks the error by >= 3x
    s = ref_surface(1.5, math.pi / 6)
    K = s.consts.gauss_k
    e1 = abs(gauss_curvature_numeric(s, 0.9, 1.1, h=2e-3) - K)
    e2 = abs(gauss_curvature_numeric(s, 0.9, 1.1, h=1e-3) - K)
    assert e1 / e2 >= 3.0


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


def test_shape_operator_step_convergence():
    s = ref_surface(1.5, math.pi / 6)
    eps = s.params.epsilon

    def err(h):
        S = shape_operator_matrix(s, 0.9, 1.1, h=h)
        return max(abs(S[0, 0]), abs(S[0, 1] + eps), abs(S[1, 0] + eps))

    assert err(2e-3) / err(1e-3) >= 3.0


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
