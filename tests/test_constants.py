import math

import numpy as np
import pytest

from bergerhelix.ambient import BergerParams
from bergerhelix.constants import ab_coefficients, compute_constants, lambda_field, phi_field
from bergerhelix.errors import InvalidAngle, OutOfDomain

# Frozen from a 40-digit evaluation of the closed forms.
FROZEN = {
    (1.0, math.pi / 4): dict(
        B=1.0, alpha1=1.7071067811865475, alpha2=0.2928932188134525,
        g11=0.14644660940672624, g33=0.8535533905932737,
        c1=0.14644660940672624, c2=0.8535533905932737,
        a_tilde=0.5, b_tilde=-2.0, d_const=1.25, e_const=3.625,
        i_const=-0.75, gauss_k=0.0, slope=0.1715728752538099,
    ),
    (0.5, math.pi / 3): dict(
        B=0.8125, alpha1=2.0756939094329985, alpha2=1.1743060905670013,
        g11=0.3613249509436927, g33=0.6386750490563072,
        c1=0.3613249509436927, c2=0.6386750490563072,
        a_tilde=2.4375, b_tilde=-3.25, d_const=7.921875,
        e_const=30.573486328125, i_const=-4.265625,
        gauss_k=0.75, slope=0.5657414540893351,
    ),
}


@pytest.mark.parametrize("key", sorted(FROZEN))
def test_frozen_constant_values(key):
    eps, th = key
    c = compute_constants(BergerParams(eps, th))
    for name, want in FROZEN[key].items():
        got = getattr(c, name)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-14), name


def test_round_sphere_curvature_vanishes():
    for th in np.linspace(0.1, np.pi / 2 - 0.1, 7):
        assert compute_constants(BergerParams(1.0, th)).gauss_k == 0.0


def test_invalid_angle_raises():
    with pytest.raises(InvalidAngle):
        BergerParams(1.0, np.pi / 2)


def _random_params(n=200, seed=7):
    rng = np.random.default_rng(seed)
    eps = rng.uniform(0.1, 3.0, n)
    th = rng.uniform(0.05, np.pi / 2 - 0.05, n)
    return [(float(e), float(t)) for e, t in zip(eps, th)]


def test_closed_form_identities_random_sweep():
    for eps, th in _random_params():
        c = compute_constants(BergerParams(eps, th))
        st2, ct2 = math.sin(th) ** 2, math.cos(th) ** 2
        assert c.B > 0
        assert abs(c.g11 + c.g33 - 1.0) < 1e-12
        assert abs(c.g11 - c.c1) < 1e-12 and abs(c.g33 - c.c2) < 1e-12
        assert c.g11 * c.g33 == pytest.approx(st2 / (4 * c.B), rel=1e-11)
        assert c.alpha1 * c.alpha2 == pytest.approx(c.B * st2 / eps ** 2, rel=1e-11)
        assert (c.alpha1 ** 2 - c.alpha2 ** 2) ** 2 == pytest.approx(
            16 * c.B ** 3 * ct2 / eps ** 2, rel=1e-11)
        assert c.alpha1 > c.alpha2 > 0
        assert 0 < c.slope < 1
        sB = math.sqrt(c.B)
        assert c.slope == pytest.approx(
            (sB - eps * math.cos(th)) / (sB + eps * math.cos(th)), rel=1e-12, abs=1e-12)


def test_product_constants_reproduce_from_ode_coefficients():
    for eps, th in _random_params(50, seed=11):
        c = compute_constants(BergerParams(eps, th))
        st2 = math.sin(th) ** 2
        assert c.a_tilde == pytest.approx(st2 * c.B / eps ** 2, rel=1e-13)
        assert c.b_tilde == pytest.approx(-2 * c.B / eps, rel=1e-13)
        d = c.B * c.b_tilde ** 2 * st2 / eps ** 2 - 3 * c.a_tilde ** 2
        e = (c.b_tilde ** 2 - 2 * c.a_tilde) * d - c.B * c.a_tilde ** 2 * st2 / eps ** 2
        assert c.d_const == pytest.approx(d, rel=1e-11)
        assert c.e_const == pytest.approx(e, rel=1e-11)


# -------------------------------------------------------------------- fields

def test_lambda_zero_at_matched_argument():
    params = BergerParams(0.9, np.pi / 5)
    c = compute_constants(params)
    u0 = 0.4 / (2 * math.cos(params.theta) * math.sqrt(c.B))
    assert abs(lambda_field(u0, c, params, eta=0.4)) < 1e-12


def test_lambda_frozen_value():
    # eps=1, theta=pi/4, eta=0, u=0.1: 2*tan(-0.1*sqrt(2))
    params = BergerParams(1.0, np.pi / 4)
    c = compute_constants(params)
    got = lambda_field(0.1, c, params)
    assert got == pytest.approx(-0.2847435386164549, rel=1e-14)


def test_lambda_ode_residual_with_smooth_eta():
    params = BergerParams(0.8, np.pi / 3)
    c = compute_constants(params)
    h = 1e-5
    ct = math.cos(params.theta)
    rng = np.random.default_rng(3)
    for _ in range(100):
        u, v = rng.uniform(-0.3, 0.3), rng.uniform(0, 2)
        eta = 0.3 * math.sin(v)
        lam = lambda_field(u, c, params, eta)
        dl = (lambda_field(u + h, c, params, eta)
              - lambda_field(u - h, c, params, eta)) / (2 * h)
        resid = dl + lam ** 2 * ct + 4 * (params.epsilon ** 2 - 1) * ct ** 3 + 4 * ct
        assert abs(resid) < 1e-6


def test_lambda_refuses_pole():
    params = BergerParams(1.0, np.pi / 4)
    c = compute_constants(params)
    u_pole = (math.pi / 2) / (2 * math.cos(params.theta) * math.sqrt(c.B))
    with pytest.raises(OutOfDomain, match="of a pole"):
        lambda_field(-u_pole, c, params)


def test_ab_at_zero_argument():
    params = BergerParams(1.3, np.pi / 6)
    c = compute_constants(params)
    assert ab_coefficients(0.0, c, params) == (0.0, 1.0)


def test_ab_at_quarter_turn():
    params = BergerParams(1.0, np.pi / 4)
    c = compute_constants(params)
    a, b = ab_coefficients(0.0, c, params, eta=math.pi / 2)
    assert a == pytest.approx(1.0, abs=1e-15)
    assert b == pytest.approx(0.0, abs=1e-15)


def test_ab_unit_identity_and_derivatives():
    params = BergerParams(0.6, 1.1)
    c = compute_constants(params)
    eta = 0.2
    h = 1e-5
    ct = math.cos(params.theta)
    rng = np.random.default_rng(4)
    for _ in range(100):
        u, v = rng.uniform(-0.5, 0.5), rng.uniform(0, 1)
        a, b = ab_coefficients(u, c, params, eta)
        assert abs(c.B / params.epsilon ** 2 * a * a + b * b - 1.0) < 1e-12
        ap = (ab_coefficients(u + h, c, params, eta)[0]
              - ab_coefficients(u - h, c, params, eta)[0]) / (2 * h)
        bp = (ab_coefficients(u + h, c, params, eta)[1]
              - ab_coefficients(u - h, c, params, eta)[1]) / (2 * h)
        lam = lambda_field(u, c, params, eta)
        assert abs(ap + 2 * params.epsilon * b * ct) < 1e-6
        assert abs(bp - b * lam * ct) < 1e-6


def test_phi_affine_structure():
    params = BergerParams(1.0, np.pi / 4)
    c = compute_constants(params)
    assert phi_field(0.0, c, params, c_phi=0.3) == 0.3
    # slope is exact: phi is affine, a symmetric difference recovers it exactly
    d = (phi_field(1.5, c, params, c_phi=0.3) - phi_field(-0.5, c, params, c_phi=0.3)) / 2.0
    assert d == -2 * c.B / params.epsilon
    assert phi_field(1.0, c, params) == -2.0


def test_array_fields_equal_elementwise_calls():
    params = BergerParams(0.8, np.pi / 3)
    c = compute_constants(params)
    rng = np.random.default_rng(6)
    us = rng.uniform(-0.3, 0.3, 64)
    etas = 0.3 * np.sin(rng.uniform(0, 2, 64))
    lam = lambda_field(us, c, params, etas)
    a, b = ab_coefficients(us, c, params, etas)
    phi = phi_field(us, c, params, c_phi=0.3)
    for k, (u, eta) in enumerate(zip(us.tolist(), etas.tolist())):
        assert lam[k] == lambda_field(u, c, params, eta)
        assert (a[k], b[k]) == ab_coefficients(u, c, params, eta)
        assert phi[k] == phi_field(u, c, params, c_phi=0.3)
    # u broadcasts against eta: a row of u against a column of eta values
    grid = lambda_field(us[None, :8], c, params, etas[:5, None])
    assert grid.shape == (5, 8)
    assert grid[3, 6] == lambda_field(us[6], c, params, etas[3])


def test_array_lambda_refuses_a_single_pole():
    params = BergerParams(1.0, np.pi / 4)
    c = compute_constants(params)
    u_pole = (math.pi / 2) / (2 * math.cos(params.theta) * math.sqrt(c.B))
    us = np.linspace(-0.3, 0.3, 11)
    lambda_field(us, c, params)
    us[4] = -u_pole
    with pytest.raises(OutOfDomain, match="of a pole"):
        lambda_field(us, c, params)
