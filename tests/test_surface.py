import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bergerhelix.surface as surface_module
from bergerhelix.ambient import J1, BergerParams, frame_components
from bergerhelix.constants import compute_constants
from bergerhelix.errors import DegenerateTangentPlane, OutOfDomain
from bergerhelix.family import (
    Constant,
    Linear,
    Sinusoid,
    Tabulated,
    XiProfile,
    assemble,
    derive_xi3,
    example_profile,
)
from bergerhelix.surface import (
    DEGENERATE,
    GRAM_DET_TOL,
    NON_FINITE,
    HelixSurface,
    beta,
    beta_derivatives,
    first_fundamental_form,
    first_order_system_residual,
    fit_phase_constant,
    grid_axes,
    make_surface,
    measured_angle,
    normal_components,
    partials,
    position,
    recover_coefficient_fields,
    sample_grid,
    sweep_grid,
    tangent_data,
)

P_REF = BergerParams(1.0, math.pi / 4)
C_REF = compute_constants(P_REF)


def surface_ref(**kw):
    return make_surface(P_REF, example_profile(), **kw)


def hopf_tube_surface():
    prof = XiProfile(xi=math.pi / 2, xi1=Constant(0.0), xi2=Linear(1.0),
                     xi3=Constant(0.0), v_min=0.0, v_max=2 * math.pi)
    return make_surface(P_REF, prof)


# ---------------------------------------------------------------------- beta

def test_beta_at_zero():
    b = beta(0.0, C_REF)
    assert np.allclose(b, [math.sqrt(C_REF.g11), 0, math.sqrt(C_REF.g33), 0], atol=1e-15)


def test_beta_stays_on_sphere():
    us = np.linspace(-5, 25, 401)
    assert np.max(np.abs(np.linalg.norm(beta(us, C_REF), axis=-1) - 1.0)) < 1e-12


def test_beta_speed_squared():
    rng = np.random.default_rng(0)
    for eps, th in [(1.0, math.pi / 4), (0.7, 1.1), (1.6, 0.4)]:
        c = compute_constants(BergerParams(eps, th))
        want = c.B * math.sin(th) ** 2 / eps ** 2
        for u in rng.uniform(0, 10, 20):
            bp = beta_derivatives(u, c, 1)
            assert float(bp @ bp) == pytest.approx(want, rel=1e-12)


def test_beta_has_no_short_period():
    # slope is a quadratic irrational: k*m never lands on an integer for k <= 1e4
    m = C_REF.slope
    k = np.arange(1, 10001)
    assert np.min(np.abs(k * m - np.round(k * m))) > 1e-6


def test_beta_phases_advance_linearly():
    us = np.linspace(0.0, 8.0, 257)
    b = beta(us, C_REF)
    ph1 = np.unwrap(np.arctan2(b[:, 1], b[:, 0]))
    ph2 = np.unwrap(np.arctan2(b[:, 3], b[:, 2]))
    for ph, alpha in ((ph1, C_REF.alpha1), (ph2, C_REF.alpha2)):
        rates = np.diff(ph) / np.diff(us)
        assert np.max(np.abs(rates - alpha)) < 1e-9


def test_beta_derivative_values_at_zero():
    d1 = beta_derivatives(0.0, C_REF, 1)
    d2 = beta_derivatives(0.0, C_REF, 2)
    s1, s3 = math.sqrt(C_REF.g11), math.sqrt(C_REF.g33)
    assert np.allclose(d1, [0, s1 * C_REF.alpha1, 0, s3 * C_REF.alpha2], atol=1e-16)
    assert np.allclose(d2, [-s1 * C_REF.alpha1 ** 2, 0, -s3 * C_REF.alpha2 ** 2, 0],
                       atol=1e-16)


def test_beta_rejects_bad_order():
    with pytest.raises(OutOfDomain, match="derivative order must be in 0..4"):
        beta_derivatives(0.0, C_REF, 5)


def test_beta_fourth_order_recursion():
    rng = np.random.default_rng(1)
    for eps, th in [(1.0, math.pi / 4), (0.5, math.pi / 3), (1.5, math.pi / 6)]:
        c = compute_constants(BergerParams(eps, th))
        coeff = c.b_tilde ** 2 - 2 * c.a_tilde
        for u in rng.uniform(0, 20, 100):
            resid = beta_derivatives(u, c, 4) + coeff * beta_derivatives(u, c, 2) \
                + c.a_tilde ** 2 * beta(u, c)
            assert np.max(np.abs(resid)) < 1e-10


# ------------------------------------------------------------------ position

def test_position_is_unit():
    s = surface_ref()
    rng = np.random.default_rng(2)
    for _ in range(50):
        u = rng.uniform(*s.u_domain)
        v = rng.uniform(*s.v_domain)
        assert abs(np.linalg.norm(position(s, u, v)) - 1.0) < 1e-12


def test_position_reference_point():
    # frozen: A(0) beta(0) for the reference profile at eps=1, theta=pi/4
    s = surface_ref()
    got = position(s, 0.0, 0.0)
    assert np.allclose(got, [0.9238795325112867, 0.0, 0.3826834323650898, 0.0],
                       atol=1e-15)


def test_position_against_plain_multiply_oracle():
    s = surface_ref()
    for (u, v) in [(0.3, 0.4), (2.0, 5.0), (10.0, 1.2)]:
        A, = assemble(s.profile, v)
        b = beta(u, s.consts)
        oracle = [sum(A[i][j] * b[j] for j in range(4)) for i in range(4)]
        assert np.max(np.abs(position(s, u, v) - oracle)) < 1e-15


def test_position_out_of_domain():
    s = surface_ref()
    with pytest.raises(OutOfDomain):
        position(s, s.u_domain[1] + 1.0, 0.0)


# ------------------------------------------------------------------ partials

def test_partials_tangent_to_sphere():
    s = surface_ref()
    rng = np.random.default_rng(3)
    for _ in range(30):
        u = rng.uniform(*s.u_domain)
        v = rng.uniform(*s.v_domain)
        F = position(s, u, v)
        fu, fv = partials(s, u, v)
        assert abs(float(fu @ F)) < 1e-12
        assert abs(float(fv @ F)) < 1e-8


def test_partials_fd_matches_analytic_on_linear_profile():
    s_an = surface_ref(fv_method="analytic")
    s_fd = surface_ref(fv_method="fd")
    rng = np.random.default_rng(4)
    for _ in range(20):
        u = rng.uniform(*s_an.u_domain)
        v = rng.uniform(0.01, 2 * math.pi - 0.01)
        fv_a = partials(s_an, u, v)[1]
        fv_f = partials(s_fd, u, v)[1]
        assert np.max(np.abs(fv_a - fv_f)) < 1e-9


def test_partials_fd_at_the_domain_ends():
    # the complex step needs no room beside v: fd F_v exists on the whole domain
    s_an, s_fd = surface_ref(), surface_ref(fv_method="fd")
    for v in s_fd.v_domain:
        assert np.max(np.abs(partials(s_fd, 0.5, v)[1] - partials(s_an, 0.5, v)[1])) < 1e-15


def test_tangent_norm_is_sin_theta():
    for eps, th in [(1.0, math.pi / 4), (0.5, math.pi / 3), (1.5, math.pi / 6)]:
        p = BergerParams(eps, th)
        s = make_surface(p, example_profile())
        for (u, v) in [(0.5, 0.3), (3.0, 4.0)]:
            E, _, _ = first_fundamental_form(s, u, v)
            assert E == pytest.approx(math.sin(th) ** 2, abs=1e-9)


# ------------------------------------------------------------------- normals

def test_normal_vanishing_fiber_component_on_hopf_tube():
    s = hopf_tube_surface()
    for (u, v) in [(0.5, 0.3), (2.0, 4.0), (7.7, 1.0)]:
        n1, n2, n3 = normal_components(s, u, v)
        assert abs(n1) < 1e-10


def test_normal_fiber_fraction_is_cos_squared():
    s = surface_ref()
    rng = np.random.default_rng(5)
    ct2 = math.cos(P_REF.theta) ** 2
    for _ in range(40):
        u = rng.uniform(0.3, s.u_domain[1])
        v = rng.uniform(*s.v_domain)
        try:
            n1, n2, n3 = normal_components(s, u, v)
        except DegenerateTangentPlane:
            continue
        assert n1 ** 2 / (n1 ** 2 + n2 ** 2 + n3 ** 2) == pytest.approx(ct2, abs=1e-9)


def test_reconstructed_normal_is_orthogonal_to_both_partials():
    from bergerhelix.ambient import berger_metric, frame_reconstruct
    s = surface_ref()
    for (u, v) in [(0.9, 1.1), (2.7, 4.2), (11.0, 0.6)]:
        comps = np.array(normal_components(s, u, v))
        comps /= np.linalg.norm(comps)
        F = position(s, u, v)
        N = frame_reconstruct(s.params, F, comps)
        fu, fv = partials(s, u, v)
        assert abs(berger_metric(s.params, F, N, fu)) < 1e-9
        assert abs(berger_metric(s.params, F, N, fv)) < 1e-9


def test_normal_antisymmetry_under_argument_swap():
    s = surface_ref()
    u, v = 1.3, 2.1
    F = position(s, u, v)
    fu, fv = partials(s, u, v)
    cu = frame_components(s.params, F, fu)
    cv = frame_components(s.params, F, fv)
    assert np.allclose(np.cross(cu, cv), -np.cross(cv, cu), atol=0)


def test_normal_rejects_degenerate_plane():
    s = surface_ref()
    with pytest.raises(DegenerateTangentPlane):
        normal_components(s, 0.0, 0.0)   # F_u and F_v are parallel on u = 0


# -------------------------------------------------------------------- angles

def test_measured_angle_matches_theta():
    s = surface_ref()
    assert measured_angle(s, 0.9, 1.7) == pytest.approx(P_REF.theta, abs=1e-8)


def test_measured_angle_hopf_tube():
    s = hopf_tube_surface()
    assert measured_angle(s, 0.9, 1.7) == pytest.approx(math.pi / 2, abs=1e-8)


def test_angle_sweep_reference_grid():
    s = surface_ref()
    grid = sample_grid(s, 101, 101)
    dev = np.abs(grid.angles - P_REF.theta)
    assert np.nanmax(dev) < 1e-8


# ---------------------------------------------------------------------- grid

def test_grid_corners():
    s = surface_ref()
    g = sample_grid(s, 2, 2)
    assert g.positions.shape == (2, 2, 4)
    assert np.allclose(g.positions[0, 0], position(s, g.us[0], g.vs[0]), atol=0)
    assert np.allclose(g.positions[1, 1], position(s, g.us[1], g.vs[1]), atol=0)


def test_grid_positions_on_sphere():
    g = sample_grid(surface_ref(), 41, 33)
    assert np.max(np.abs(np.linalg.norm(g.positions, axis=-1) - 1.0)) < 1e-10


def test_grid_angle_spread():
    g = sample_grid(surface_ref(), 61, 41)
    ok = ~np.isnan(g.angles)
    assert np.max(g.angles[ok]) - np.min(g.angles[ok]) < 1e-8


def test_grid_records_degenerate_samples():
    g = sample_grid(surface_ref(), 21, 5)
    # u = 0 column degenerates for this profile (family motion parallel to F_u)
    assert any(reason == "degenerate_tangent_plane" for _, _, reason in g.defects)
    assert all(np.isnan(g.angles[i, j]) for i, j, _ in g.defects)


@pytest.mark.parametrize("fv_method", ["analytic", "fd"])
def test_pointwise_views_equal_grid_at_nodes(fv_method):
    s = surface_ref(fv_method=fv_method)
    g = sample_grid(s, 11, 9)
    defects = {(i, j) for i, j, _ in g.defects}
    nodes = [(i, j) for i in (1, 4, 7, 10) for j in (1, 3, 4, 7)]
    assert not defects & set(nodes)          # fd: interior columns only
    for i, j in nodes:
        u, v = g.us[i], g.vs[j]
        assert np.array_equal(position(s, u, v), g.positions[i, j])
        fu, fv = partials(s, u, v)
        assert np.array_equal(fu, g.fu[i, j]) and np.array_equal(fv, g.fv[i, j])
        assert np.array_equal(normal_components(s, u, v), g.normals[i, j])
        assert measured_angle(s, u, v) == g.angles[i, j]


def test_grid_rejects_trivial_sizes():
    with pytest.raises(OutOfDomain):
        sample_grid(surface_ref(), 1, 5)


def test_grid_fd_mode_keeps_boundary_columns():
    # only the singular line u = 0 of the reference surface is a defect
    g = sample_grid(surface_ref(fv_method="fd"), 11, 11)
    assert g.fv_method == "fd"
    assert g.defects == [(0, j, "degenerate_tangent_plane") for j in range(11)]
    assert np.max(np.abs(g.angles[1:] - P_REF.theta)) < 1e-12


# ------------------------------------------------------------- angle sweep

@st.composite
def sweep_surfaces(draw):
    """A surface of the reference, a generic constant-xi1, a sinusoid-xi1 or
    a table-xi1 profile (the last two with xi3 "auto"), at log-uniform eps
    and theta across their range, with either F_v method."""
    eps = math.exp(draw(st.floats(math.log(0.05), math.log(10.0))))
    th = draw(st.floats(0.01, 1.55))
    kind = draw(st.sampled_from(["reference", "generic", "sinusoid", "table"]))
    if kind == "reference":
        prof = example_profile()
    elif kind == "generic":
        c, s = draw(st.floats(0.35, 1.2)), draw(st.floats(0.5, 1.5))
        prof = XiProfile(xi=draw(st.floats(0.0, math.pi)), xi1=Constant(c), xi2=Linear(s),
                         xi3=Linear(s / math.tan(c) ** 2), v_min=0.0, v_max=2 * math.pi)
    else:
        if kind == "sinusoid":
            xi1 = Sinusoid(draw(st.floats(0.01, 0.2)), draw(st.sampled_from([1.0, 2.0])),
                           draw(st.floats(0.0, 2 * math.pi)), draw(st.floats(0.5, 1.0)))
        else:
            nodes = np.linspace(0.0, 2 * math.pi, 9)
            xi1 = Tabulated(nodes, draw(st.floats(0.6, 0.9)) + draw(st.floats(0.02, 0.15))
                            * np.sin(nodes + draw(st.floats(0.0, 2 * math.pi))))
        prof = derive_xi3(XiProfile(xi=draw(st.floats(0.0, math.pi)), xi1=xi1,
                                    xi2=Linear(draw(st.floats(0.5, 1.5))), xi3=None,
                                    v_min=0.0, v_max=2 * math.pi))
    fv = draw(st.sampled_from(["analytic", "fd"]))
    return make_surface(BergerParams(eps, th), prof, fv_method=fv)


@settings(max_examples=40, deadline=None)
@given(sweep_surfaces())
def test_sweep_grid_matches_tangent_data(s):
    us, vs = grid_axes(s, 17, 13)
    sweep = sweep_grid(s, us, vs)
    td = tangent_data(s, us[:, None], vs[None, :])
    assert np.array_equal(sweep.defect, td.defect)
    assert np.array_equal(np.isnan(sweep.angle), np.isnan(td.angle))
    good = td.defect == 0
    assert np.max(np.abs(sweep.angle[good] - td.angle[good]), initial=0.0) <= 1e-10
    fv_e = np.sum(td.fv ** 2, axis=-1)
    j1_fv = np.sum(td.fv * (td.F @ J1.T), axis=-1)
    fv_b = fv_e + (s.params.epsilon ** 2 - 1.0) * j1_fv ** 2
    for got, want in ((sweep.fv_euclidean, fv_e), (sweep.fv_berger, fv_b)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, equal_nan=True)


# ------------------------------------------------------- kernel identities

def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@st.composite
def kernel_points(draw, s):
    """(u, v) as a point, as matched 1-d arrays or as a grid, with v at
    either end of the domain among the draws."""
    (u0, u1), (v0, v1) = s.u_domain, s.v_domain
    frac = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    shape = draw(st.sampled_from(["point", "line", "grid"]))
    if shape == "grid":
        us, vs = grid_axes(s, draw(st.integers(2, 7)), draw(st.integers(2, 7)))
        return us[:, None], vs[None, :]
    n = 1 if shape == "point" else draw(st.integers(1, 6))
    u = u0 + np.array(draw(st.lists(frac, min_size=n, max_size=n))) * (u1 - u0)
    v = v0 + np.array(draw(st.lists(frac, min_size=n, max_size=n))) * (v1 - v0)
    return (u[0], v[0]) if shape == "point" else (u, v)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tangent_data_kernel_identities(data):
    """tangent_data against the plain recipe, bit for bit: F = A beta(u),
    F_u = A beta'(u), the normal as np.cross, and the defect code and
    angle by the first kind that applies."""
    s = data.draw(sweep_surfaces())
    u, v = data.draw(kernel_points(s))
    td = tangent_data(s, u, v)
    A, = assemble(s.profile, v)
    for got, b in ((td.F, beta(u, s.consts)), (td.fu, beta_derivatives(u, s.consts, 1))):
        assert_same_bits(got, np.einsum('...ij,...j->...i', A, b))
    assert_same_bits(td.normal, np.cross(td.cu, td.cv))
    n1, n2, n3 = np.moveaxis(td.normal, -1, 0)
    finite = np.isfinite(td.gram) & np.all(np.isfinite(td.normal), axis=-1)
    defect = np.select([~finite, td.gram < GRAM_DET_TOL], [NON_FINITE, DEGENERATE],
                       0).astype(np.int8)
    assert_same_bits(td.defect, defect)
    good = defect == 0
    angle = np.full(td.gram.shape, np.nan)
    angle[good] = np.arccos(np.clip(np.abs(n1[good]) / np.sqrt(n1 * n1 + n2 * n2 + n3 * n3)[good],
                                    0.0, 1.0))
    assert_same_bits(td.angle, angle)


@pytest.mark.parametrize("fv_method", ["analytic", "fd"])
@pytest.mark.parametrize("vs", [[0.5, 1.5, 2 * math.pi], [0.0, 2 * math.pi]],
                         ids=["stencil", "no_stencil"])
def test_tangent_data_assembles_once(monkeypatch, fv_method, vs):
    calls = []

    def counting(*args):
        calls.append(args)
        return assemble(*args)

    monkeypatch.setattr(surface_module, "assemble", counting)
    td = tangent_data(surface_ref(fv_method=fv_method), np.array([0.3, 1.1])[:, None],
                      np.array(vs)[None, :])
    assert len(calls) == 1
    assert np.all(np.isfinite(td.fv))   # fd's complex step needs no stencil either


# -------------------------------------------------- first-order system, gram

def test_first_order_system_along_u():
    for eps, th in [(1.0, math.pi / 4), (0.8, math.pi / 6), (1.5, math.pi / 3)]:
        p = BergerParams(eps, th)
        s = make_surface(p, example_profile())
        c = fit_phase_constant(s)
        rng = np.random.default_rng(6)
        v0 = s.v_domain[0]
        for u in rng.uniform(*s.u_domain, 100):
            assert first_order_system_residual(s, float(u), v0, c) < 1e-7


def test_recovered_coefficient_gram():
    s = surface_ref()
    g = recover_coefficient_fields(s, 0.7)
    G = g @ g.T
    off = G - np.diag(np.diag(G))
    assert np.max(np.abs(off)) < 1e-9
    assert abs(G[0, 0] - G[1, 1]) < 1e-9
    assert abs(G[2, 2] - G[3, 3]) < 1e-9
    assert G[0, 0] == pytest.approx(C_REF.g11, abs=1e-9)
    assert G[2, 2] == pytest.approx(C_REF.g33, abs=1e-9)


def test_make_surface_defaults():
    s = surface_ref()
    assert s.u_domain == (0.0, 2 * math.pi / C_REF.alpha2)
    assert s.v_domain == (0.0, 2 * math.pi)
    assert s.fv_method == "analytic"


def test_surface_rejects_unknown_fv_method():
    with pytest.raises(OutOfDomain):
        HelixSurface(params=P_REF, consts=C_REF, profile=example_profile(),
                     u_domain=(0, 1), v_domain=(0, 1), fv_method="spectral")
