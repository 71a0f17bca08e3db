import math

import numpy as np
import pytest

from bergerhelix.ambient import J1
from bergerhelix.errors import ConfigError, OutOfDomain
from bergerhelix.family import (
    Constant,
    FromCallable,
    Linear,
    Sinusoid,
    Tabulated,
    XiProfile,
    assemble,
    assemble_derivative,
    derive_xi3,
    detect_hopf_tube,
    example_profile,
    profile_from_config,
    row1,
    row1_derivative,
)

RNG = np.random.default_rng(99)


def random_profile(rng=RNG, v_min=0.0, v_max=2 * math.pi):
    """A generic smooth profile; not necessarily helix-admissible."""
    return XiProfile(
        xi=rng.uniform(0, 2 * math.pi),
        xi1=Sinusoid(rng.uniform(0.1, 0.5), rng.uniform(0.3, 1.5),
                     rng.uniform(0, 6), rng.uniform(0.5, 1.0)),
        xi2=Linear(rng.uniform(-2, 2), rng.uniform(-1, 1)),
        xi3=Sinusoid(rng.uniform(0.1, 0.6), rng.uniform(0.3, 1.2)),
        v_min=v_min, v_max=v_max,
    )


# ---------------------------------------------------------------------- row1

def test_row1_reference_value():
    prof = XiProfile(xi=0.0, xi1=Constant(math.pi / 4), xi2=Constant(0.0),
                     xi3=Constant(0.0), v_min=0.0, v_max=1.0)
    s = 1 / math.sqrt(2)
    assert np.allclose(row1(prof, 0.5), [s, 0, s, 0], atol=1e-15)


def test_row1_collapses_when_xi1_vanishes():
    prof = XiProfile(xi=0.0, xi1=Constant(0.0), xi2=Linear(1.0),
                     xi3=Sinusoid(1.0, 2.0), v_min=0.0, v_max=3.0)
    for v in (0.0, 1.1, 2.7):
        r = row1(prof, v)
        assert np.allclose(r, [math.cos(v), -math.sin(v), 0, 0], atol=1e-15)


def test_row1_is_unit_for_random_profiles():
    for _ in range(100):
        prof = random_profile()
        v = RNG.uniform(0, 2 * math.pi)
        assert abs(np.linalg.norm(row1(prof, v)) - 1.0) < 1e-12


def test_row1_out_of_domain():
    with pytest.raises(OutOfDomain):
        row1(example_profile(), 100.0)


def test_row1_derivative_matches_finite_difference():
    prof = random_profile(v_min=-10, v_max=10)
    h = 1e-6
    for v in (0.3, 1.7, 4.1):
        fd = (row1(prof, v + h) - row1(prof, v - h)) / (2 * h)
        assert np.max(np.abs(row1_derivative(prof, v) - fd)) < 1e-9


# ------------------------------------------------------------------ assemble

def test_assemble_reference_matrix():
    # the admissible reference profile at v=0
    A = assemble(example_profile(), 0.0)
    want = np.array([
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [-1, 0, 1, 0],
        [0, -1, 0, 1],
    ]) / math.sqrt(2)
    assert np.max(np.abs(A - want)) < 1e-15


def test_assemble_determinant_constant_plus_one():
    # brute-force determinant over sampled v, for several profiles
    for _ in range(5):
        prof = random_profile()
        dets = [np.linalg.det(assemble(prof, v)) for v in np.linspace(0, 2 * math.pi, 17)]
        assert np.max(np.abs(np.asarray(dets) - 1.0)) < 1e-12


def test_assemble_orthogonal_and_commuting():
    for _ in range(100):
        prof = random_profile()
        v = RNG.uniform(0, 2 * math.pi)
        A = assemble(prof, v)
        assert np.max(np.abs(A @ A.T - np.eye(4))) < 1e-12
        assert np.max(np.abs(A @ J1 - J1 @ A)) < 1e-12


def test_assemble_rows_orthonormal():
    prof = random_profile()
    for v in np.linspace(0, 2 * math.pi, 13):
        A = assemble(prof, v)
        assert np.max(np.abs(A @ A.T - np.eye(4))) < 1e-12


def test_assemble_vectorized_matches_scalar():
    prof = random_profile()
    vs = np.linspace(0.2, 5.0, 9)
    batch = assemble(prof, vs)
    for k, v in enumerate(vs):
        assert np.array_equal(batch[k], assemble(prof, v))


def test_assemble_derivative_matches_finite_difference():
    prof = random_profile(v_min=-10, v_max=10)
    h = 1e-6
    for v in (0.5, 2.2):
        fd = (assemble(prof, v + h) - assemble(prof, v - h)) / (2 * h)
        assert np.max(np.abs(assemble_derivative(prof, v) - fd)) < 1e-9


# ---------------------------------------------------------------- derive_xi3

def test_derive_xi3_unit_cotangent():
    prof = XiProfile(xi=0.0, xi1=Constant(math.pi / 4), xi2=Linear(1.0),
                     xi3=None, v_min=0.5, v_max=3.0)
    out = derive_xi3(prof, xi3_at_vmin=0.0)
    for v in np.linspace(0.5, 3.0, 11):
        assert out.xi3(v) == pytest.approx(v - 0.5, abs=1e-12)


def test_derive_xi3_third_cotangent_vs_exact_antiderivative():
    prof = XiProfile(xi=0.0, xi1=Constant(math.pi / 3), xi2=Linear(1.0),
                     xi3=None, v_min=0.0, v_max=2 * math.pi, )
    out = derive_xi3(prof, xi3_at_vmin=0.25)
    for v in np.linspace(0.0, 2 * math.pi, 23):
        assert out.xi3(v) == pytest.approx(v / 3 + 0.25, abs=1e-10)


def test_derive_xi3_constant_xi2():
    prof = XiProfile(xi=0.0, xi1=Sinusoid(0.2, 1.0, 0.0, 1.0), xi2=Constant(2.0),
                     xi3=None, v_min=0.0, v_max=4.0)
    out = derive_xi3(prof, xi3_at_vmin=-1.5)
    vs = np.linspace(0.0, 4.0, 17)
    assert np.max(np.abs(out.xi3(vs) + 1.5)) < 1e-12


def test_derive_xi3_constraint_on_finer_grid():
    prof = XiProfile(xi=0.3, xi1=Sinusoid(0.3, 0.7, 0.2, 0.9), xi2=Linear(0.8),
                     xi3=None, v_min=0.0, v_max=2 * math.pi)
    out = derive_xi3(prof)
    fine = np.linspace(0.0, 2 * math.pi, 10 * 1001)
    assert np.max(out.constraint_residual(fine)) < 1e-8


def test_derive_xi3_simpson_value_accuracy_nonlinear():
    # xi1 sinusoidal: compare the quadrature against a dense trapezoid oracle
    prof = XiProfile(xi=0.0, xi1=Sinusoid(0.3, 1.3, 0.5, 1.1), xi2=Linear(1.0),
                     xi3=None, v_min=0.0, v_max=3.0)
    out = derive_xi3(prof)
    vs = np.linspace(0.0, 3.0, 300001)
    x1 = prof.xi1(vs)
    integrand = (np.cos(x1) / np.sin(x1)) ** 2
    oracle = np.trapezoid(integrand, vs)
    assert out.xi3(3.0) == pytest.approx(oracle, abs=1e-9)


def test_derive_xi3_refuses_degenerate_xi1():
    prof = XiProfile(xi=0.0, xi1=Sinusoid(0.5, 1.0), xi2=Linear(1.0),
                     xi3=None, v_min=0.0, v_max=6.0)   # xi1 crosses 0
    with pytest.raises(ConfigError, match=r"\|sin\(xi1\)\| drops to"):
        derive_xi3(prof)


def test_accepted_profiles_have_nonzero_motion():
    # 4 xi1'^2 + sin^2(2 xi1) (xi2' + xi3')^2 must be positive somewhere
    for _ in range(10):
        prof = random_profile()
        if detect_hopf_tube(prof)[0]:
            continue
        vs = prof.sample_vs()
        d1 = prof.xi1.derivative(vs)
        drift = prof.xi2.derivative(vs) + prof.xi3.derivative(vs)
        motion = 4 * d1 ** 2 + np.sin(2 * prof.xi1(vs)) ** 2 * drift ** 2
        assert np.max(motion) > 0


# ----------------------------------------------------------------- hopf tube

def test_is_admissible():
    assert example_profile().is_admissible()
    crooked = XiProfile(xi=0.0, xi1=Constant(math.pi / 3), xi2=Linear(1.0),
                        xi3=Linear(0.5), v_min=0.0, v_max=1.0)
    assert not crooked.is_admissible()
    tube = XiProfile(xi=0.0, xi1=Constant(0.0), xi2=Constant(1.0),
                     xi3=Constant(0.0), v_min=0.0, v_max=1.0)
    assert not tube.is_admissible()   # constraint holds but the branch is degenerate


def test_detect_hopf_tube_branches():
    flat = XiProfile(xi=0.0, xi1=Constant(0.0), xi2=Linear(1.0),
                     xi3=Constant(0.0), v_min=0.0, v_max=1.0)
    assert detect_hopf_tube(flat)[0] is True

    assert detect_hopf_tube(example_profile())[0] is False

    balanced = XiProfile(xi=0.0, xi1=Constant(math.pi / 4), xi2=Linear(1.0),
                         xi3=Linear(-1.0), v_min=0.0, v_max=1.0)
    assert detect_hopf_tube(balanced)[0] is True


# -------------------------------------------------------------------- config

def test_profile_from_config_roundtrip():
    cfg = {
        "xi": math.pi / 2,
        "xi1": {"constant": math.pi / 4},
        "xi2": {"linear": {"slope": 1.0, "offset": 0.0}},
        "xi3": {"linear": {"slope": 1.0}},
        "v_min": 0.0,
        "v_max": 6.283185307179586,
    }
    prof = profile_from_config(cfg)
    ref = example_profile()
    for v in np.linspace(0, 6.0, 7):
        assert np.array_equal(assemble(prof, v), assemble(ref, v))


def test_profile_from_config_auto_xi3():
    cfg = {
        "xi": 0.0,
        "xi1": {"constant": math.pi / 3},
        "xi2": {"linear": {"slope": 1.0}},
        "xi3": "auto",
        "v_min": 0.0,
        "v_max": 2.0,
    }
    prof = profile_from_config(cfg)
    assert prof.xi3(1.5) == pytest.approx(0.5, abs=1e-10)
    assert np.max(prof.constraint_residual(np.linspace(0, 2, 101))) < 1e-8


def test_profile_from_config_table():
    vs = np.linspace(0, 1, 21)
    cfg = {
        "xi": 0.1,
        "xi1": {"constant": 0.8},
        "xi2": {"table": {"v": vs.tolist(), "value": (2 * vs).tolist()}},
        "xi3": {"constant": 0.0},
        "v_min": 0.0,
        "v_max": 1.0,
    }
    prof = profile_from_config(cfg)
    assert prof.xi2(0.5) == pytest.approx(1.0, abs=1e-12)
    assert prof.xi2.derivative(0.35) == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("broken", [
    {"xi": "not-a-number", "xi1": {"constant": 1}, "xi2": {"constant": 1},
     "xi3": {"constant": 1}, "v_min": 0, "v_max": 1},
    {"xi": 0.0, "xi1": {"spline": 1}, "xi2": {"constant": 1},
     "xi3": {"constant": 1}, "v_min": 0, "v_max": 1},
    {"xi1": {"constant": 1}},
    {"xi": 0.0, "xi1": {"constant": 1}, "xi2": {"constant": 1},
     "xi3": {"constant": 1}, "v_min": 1, "v_max": 0},
])
def test_profile_from_config_rejects_malformed(broken):
    with pytest.raises(ConfigError):
        profile_from_config(broken)


def test_from_callable_fd_derivative():
    f = FromCallable(np.tanh)
    assert f.derivative(0.4) == pytest.approx(1 / np.cosh(0.4) ** 2, abs=1e-9)
    assert not f.exact_derivative


def test_tabulated_refuses_extrapolation():
    t = Tabulated([0, 1, 2, 3], [0, 1, 4, 9])
    with pytest.raises(OutOfDomain):
        t(3.5)
