import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergerhelix.ambient import (
    J1,
    J2,
    J3,
    BergerParams,
    connection_table,
    frame_components,
)
from bergerhelix.errors import InvalidAngle, OutOfDomain

RNG = np.random.default_rng(20260810)


def random_unit(rng=RNG):
    p = rng.normal(size=4)
    return p / np.linalg.norm(p)


def random_tangent(p, rng=RNG):
    x = rng.normal(size=4)
    return x - (x @ p) * p


def berger_metric(eps, p, X, Y):
    """The reference g(X, Y) = <X, Y> + (eps^2 - 1) <X, J1 p> <Y, J1 p>."""
    j1p = J1 @ p
    return X @ Y + (eps * eps - 1.0) * (X @ j1p) * (Y @ j1p)


# ---------------------------------------------------------------- structures

def test_j1_first_column():
    assert np.array_equal(J1 @ np.array([1.0, 0, 0, 0]), np.array([0.0, 1, 0, 0]))


def test_squares_are_minus_identity():
    for J in (J1, J2, J3):
        assert np.array_equal(J @ J, -np.eye(4))


def test_j2_j3_product_sign():
    # regression constant: J2 @ J3 == -J1 under this component convention
    assert np.array_equal(J2 @ J3, -J1)
    assert np.array_equal(J3 @ J2, J1)


def test_frame_fields_are_j_actions():
    # the complex formulas, expanded by hand under (x1+iy1, x2+iy2)
    for _ in range(100):
        p = random_unit()
        x1, y1, x2, y2 = p
        assert np.allclose(J1 @ p, [-y1, x1, -y2, x2], atol=0)
        assert np.allclose(J2 @ p, [-y2, -x2, y1, x1], atol=0)
        assert np.allclose(J3 @ p, [-x2, y2, x1, -y1], atol=0)


def test_x1_equals_j1p_componentwise():
    # the row-vector form that frame_components applies to a batch
    P = np.stack([random_unit() for _ in range(20)])
    for J in (J1, J2, J3):
        assert np.array_equal(P @ J.T, np.stack([J @ p for p in P]))
    # the algebraic identity needs no sphere membership at all
    for _ in range(20):
        p = RNG.normal(size=4) * 3.0
        assert np.array_equal(J1 @ p, np.array([-p[1], p[0], -p[3], p[2]]))


def test_hopf_frame_at_base_point():
    p = np.array([1.0, 0, 0, 0])
    assert np.allclose(J1 @ p, [0, 1, 0, 0], atol=0)
    assert np.allclose(J2 @ p, [0, 0, 0, 1], atol=0)
    assert np.allclose(J3 @ p, [0, 0, 1, 0], atol=0)


def test_hopf_frame_orthonormal():
    # (p, J1 p, J2 p, J3 p) is an orthonormal basis of R^4, so the frame
    # fields are tangent to the sphere and orthonormal in the round metric
    for _ in range(50):
        p = random_unit()
        X = np.stack([p, J1 @ p, J2 @ p, J3 @ p])
        assert np.max(np.abs(X @ X.T - np.eye(4))) < 1e-12


# -------------------------------------------------------------------- metric
#
# (E1, E2, E3) = (J1 p / eps, J2 p, J3 p) is g-orthonormal, so the frame
# components c of a tangent vector carry the metric: c(X) . c(Y) = g(X, Y).

def test_metric_round_case():
    params = BergerParams(1.0, np.pi / 4)
    for _ in range(20):
        p = random_unit()
        X, Y = random_tangent(p), random_tangent(p)
        cx, cy = frame_components(params, p, X), frame_components(params, p, Y)
        assert abs(cx @ cy - X @ Y) < 1e-12


def test_metric_on_hopf_field():
    for eps in (0.5, 1.0, 1.7):
        params = BergerParams(eps, np.pi / 3)
        p = random_unit()
        c = frame_components(params, p, J1 @ p)
        assert np.allclose(c, [eps, 0, 0], atol=1e-12)
        assert abs(c @ c - berger_metric(eps, p, J1 @ p, J1 @ p)) < 1e-12


def test_frame_is_orthonormal():
    for eps in (0.3, 1.0, 2.0):
        params = BergerParams(eps, np.pi / 4)
        p = random_unit()
        frame = np.stack([J1 @ p / eps, J2 @ p, J3 @ p])
        assert np.max(np.abs(frame_components(params, p, frame) - np.eye(3))) < 1e-12


# ----------------------------------------------------------------- decompose

def test_decompose_frame_vector():
    params = BergerParams(0.8, np.pi / 4)
    p = random_unit()
    assert np.allclose(frame_components(params, p, J2 @ p), [0, 1, 0], atol=1e-12)


def test_decompose_first_component_formula():
    params = BergerParams(1.4, np.pi / 6)
    for _ in range(20):
        p = random_unit()
        X = random_tangent(p)
        c1 = frame_components(params, p, X)[0]
        assert abs(c1 - params.epsilon * (X @ (J1 @ p))) < 1e-12


def test_decompose_zero_vector():
    params = BergerParams(1.0, np.pi / 4)
    assert frame_components(params, random_unit(), np.zeros(4)).tolist() == [0.0, 0.0, 0.0]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(0.15, 2.5), st.integers(0, 10 ** 6))
def test_decompose_reconstruct_roundtrip(eps, seed):
    rng = np.random.default_rng(seed)
    params = BergerParams(eps, np.pi / 4)
    p = rng.normal(size=4)
    p /= np.linalg.norm(p)
    X = rng.normal(size=4)
    X -= (X @ p) * p
    c = frame_components(params, p, X)
    assert abs(c @ c - berger_metric(eps, p, X, X)) < 1e-10 * max(1.0, X @ X)
    rebuilt = c[0] / eps * (J1 @ p) + c[1] * (J2 @ p) + c[2] * (J3 @ p)
    assert np.max(np.abs(rebuilt - X)) < 1e-10


# ---------------------------------------------------------------- connection

@pytest.mark.parametrize("i,j,expected", [
    (2, 1, (0.0, 0.0, -1.0)),     # scaled by eps below
    (1, 1, (0.0, 0.0, 0.0)),
])
def test_connection_fixed_entries(i, j, expected):
    params = BergerParams(1.0, np.pi / 4)
    assert tuple(connection_table(params)[i - 1, j - 1]) == expected


def test_connection_vertical_rotation_entries():
    eps = 0.7
    params = BergerParams(eps, np.pi / 4)
    t = connection_table(params)
    assert tuple(t[1, 0]) == (0.0, 0.0, -eps)
    k = (2 - eps ** 2) / eps
    assert tuple(t[0, 1]) == (0.0, 0.0, k)
    assert tuple(t[0, 2]) == (0.0, -k, 0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(0.05, 2.0))
def test_connection_metric_compatibility(eps):
    # orthonormal frame: coefficient array antisymmetric in the last two slots
    params = BergerParams(eps, np.pi / 4)
    t = connection_table(params)
    assert np.max(np.abs(t + np.swapaxes(t, 1, 2))) < 1e-12


# -------------------------------------------------------------------- params

def test_params_reject_degenerate_angles():
    with pytest.raises(InvalidAngle):
        BergerParams(1.0, 0.0)
    with pytest.raises(InvalidAngle):
        BergerParams(1.0, np.pi / 2)
    with pytest.raises(InvalidAngle):
        BergerParams(1.0, 1.5707963)   # within the pi/2 guard margin
    with pytest.raises(OutOfDomain, match="epsilon must be a positive real"):
        BergerParams(-1.0, np.pi / 4)
