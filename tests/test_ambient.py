import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergerhelix.ambient import (
    J1,
    J2,
    J3,
    BergerParams,
    berger_metric,
    connection_table,
    frame_decompose,
    frame_reconstruct,
    frame_triple,
    hopf_frame,
    hopf_map,
)
from bergerhelix.errors import InvalidAngle, OutOfDomain

RNG = np.random.default_rng(20260810)


def random_unit(rng=RNG):
    p = rng.normal(size=4)
    return p / np.linalg.norm(p)


def random_tangent(p, rng=RNG):
    x = rng.normal(size=4)
    return x - (x @ p) * p


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
        X1, X2, X3 = hopf_frame(p)
        assert np.allclose(X1, [-y1, x1, -y2, x2], atol=0)
        assert np.allclose(X2, [-y2, -x2, y1, x1], atol=0)
        assert np.allclose(X3, [-x2, y2, x1, -y1], atol=0)


def test_x1_equals_j1p_componentwise():
    for _ in range(20):
        p = random_unit()
        assert np.array_equal(hopf_frame(p)[0], J1 @ p)
    # the algebraic identity needs no sphere membership at all
    for _ in range(20):
        p = RNG.normal(size=4) * 3.0
        assert np.array_equal(J1 @ p, np.array([-p[1], p[0], -p[3], p[2]]))


# ------------------------------------------------------------------ hopf map

def test_hopf_map_poles():
    assert np.allclose(hopf_map([1, 0, 0, 0]), [0, 0, 0.5], atol=1e-15)
    assert np.allclose(hopf_map([0, 0, 1, 0]), [0, 0, -0.5], atol=1e-15)


def test_hopf_map_equator_point():
    s = 1 / np.sqrt(2)
    assert np.allclose(hopf_map([s, 0, s, 0]), [0.5, 0, 0], atol=1e-15)


def test_hopf_map_lands_on_half_sphere():
    for _ in range(50):
        q = hopf_map(random_unit())
        assert abs(np.linalg.norm(q) - 0.5) < 1e-9


def test_hopf_map_fiber_invariance():
    for _ in range(50):
        p = random_unit()
        phi = RNG.uniform(0, 2 * np.pi)
        rotated = np.cos(phi) * p + np.sin(phi) * (J1 @ p)
        assert np.max(np.abs(hopf_map(rotated) - hopf_map(p))) < 1e-10


def test_hopf_map_rejects_off_sphere():
    with pytest.raises(OutOfDomain, match="deviates from 1"):
        hopf_map([1.1, 0, 0, 0])


def test_hopf_frame_at_base_point():
    X1, X2, X3 = hopf_frame([1, 0, 0, 0])
    assert np.allclose(X1, [0, 1, 0, 0], atol=0)
    assert np.allclose(X2, [0, 0, 0, 1], atol=0)
    assert np.allclose(X3, [0, 0, 1, 0], atol=0)


def test_hopf_frame_orthonormal():
    for _ in range(50):
        X = np.stack(hopf_frame(random_unit()))
        assert np.max(np.abs(X @ X.T - np.eye(3))) < 1e-12


# -------------------------------------------------------------------- metric

def test_metric_round_case():
    params = BergerParams(1.0, np.pi / 4)
    for _ in range(20):
        p = random_unit()
        X, Y = random_tangent(p), random_tangent(p)
        assert abs(berger_metric(params, p, X, Y) - X @ Y) < 1e-12


def test_metric_on_hopf_field():
    for eps in (0.5, 1.0, 1.7):
        params = BergerParams(eps, np.pi / 3)
        p = random_unit()
        X1 = hopf_frame(p)[0]
        assert abs(berger_metric(params, p, X1, X1) - eps ** 2) < 1e-12


def test_frame_is_orthonormal():
    for eps in (0.3, 1.0, 2.0):
        params = BergerParams(eps, np.pi / 4)
        p = random_unit()
        e1, e2, e3 = frame_triple(params, p)
        for e in (e1, e2, e3):
            assert abs(berger_metric(params, p, e, e) - 1.0) < 1e-12
        assert abs(berger_metric(params, p, e1, e2)) < 1e-12
        assert abs(berger_metric(params, p, e2, e3)) < 1e-12


def test_metric_rejects_non_tangent():
    params = BergerParams(1.0, np.pi / 4)
    p = random_unit()
    with pytest.raises(OutOfDomain, match="<X, p>"):
        berger_metric(params, p, p, random_tangent(p))


# ----------------------------------------------------------------- decompose

def test_decompose_frame_vector():
    params = BergerParams(0.8, np.pi / 4)
    p = random_unit()
    e2 = frame_triple(params, p)[1]
    c = frame_decompose(params, p, e2)
    assert np.allclose(c, [0, 1, 0], atol=1e-12)


def test_decompose_first_component_formula():
    params = BergerParams(1.4, np.pi / 6)
    for _ in range(20):
        p = random_unit()
        X = random_tangent(p)
        c1 = frame_decompose(params, p, X)[0]
        assert abs(c1 - params.epsilon * (X @ (J1 @ p))) < 1e-12


def test_decompose_zero_vector():
    params = BergerParams(1.0, np.pi / 4)
    assert frame_decompose(params, random_unit(), np.zeros(4)) == (0.0, 0.0, 0.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.15, 2.5), st.integers(0, 10 ** 6))
def test_decompose_reconstruct_roundtrip(eps, seed):
    rng = np.random.default_rng(seed)
    params = BergerParams(eps, np.pi / 4)
    p = rng.normal(size=4)
    p /= np.linalg.norm(p)
    X = rng.normal(size=4)
    X -= (X @ p) * p
    rebuilt = frame_reconstruct(params, p, frame_decompose(params, p, X))
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


@settings(max_examples=60, deadline=None)
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
