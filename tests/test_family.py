import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergerhelix.ambient import J1, BergerParams
from bergerhelix.errors import ConfigError, OutOfDomain
from bergerhelix.family import (
    Constant,
    Linear,
    Sinusoid,
    Tabulated,
    XiProfile,
    _cumulative_simpson,
    _dgtsv,
    assemble,
    derive_xi3,
    detect_hopf_tube,
    example_profile,
    profile_from_config,
    row1,
)
from bergerhelix.surface import make_surface, sample_grid
from bergerhelix.verify import run_all

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


# ---------------------------------------------------------------------- jets

TWO_PI = 2 * math.pi
H_JET = 1e-5


@st.composite
def profile_functions(draw):
    """A profile function on [0, 2 pi] of each of the five kinds: constant,
    linear, sinusoid, a cubic-spline table, and an xi3 derived from a
    sinusoid xi1."""
    kind = draw(st.sampled_from(["constant", "linear", "sinusoid", "table", "derived"]))
    if kind == "constant":
        return Constant(draw(st.floats(-3.0, 3.0)))
    if kind == "linear":
        return Linear(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    if kind == "sinusoid":
        return Sinusoid(draw(st.floats(-2.0, 2.0)), draw(st.floats(0.1, 3.0)),
                        draw(st.floats(0.0, TWO_PI)), draw(st.floats(-1.0, 1.0)))
    if kind == "table":
        values = draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=12))
        return Tabulated(np.linspace(0.0, TWO_PI, len(values)), values)
    # an xi1 offset of 0.6 or more keeps the value (a spline through the
    # quadrature) within 1e-6 of the exact derivative cot^2(xi1) xi2' when
    # differenced; at 0.5 the two differ by up to 2e-6
    xi1 = Sinusoid(draw(st.floats(0.01, 0.2)), draw(st.sampled_from([1.0, 2.0])),
                   draw(st.floats(0.0, TWO_PI)), draw(st.floats(0.6, 1.0)))
    return derive_xi3(XiProfile(xi=0.0, xi1=xi1, xi2=Linear(draw(st.floats(0.5, 1.5))),
                                xi3=None, v_min=0.0, v_max=TWO_PI)).xi3


@settings(max_examples=100, deadline=None)
@given(profile_functions(), st.floats(H_JET, TWO_PI - H_JET))
def test_jet_orders_agree_and_derivative_matches_difference(f, v):
    value, = f.jet(v)
    same, derivative = f.jet(v, 1)
    assert value.tobytes() == same.tobytes()
    central = (f.jet(v + H_JET)[0] - f.jet(v - H_JET)[0]) / (2 * H_JET)
    assert abs(derivative - central) <= 1e-6


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, TWO_PI), profile_functions(), profile_functions(), profile_functions(),
       st.lists(st.floats(0.0, TWO_PI), min_size=1, max_size=5))
def test_assemble_order_one_keeps_a_bitwise(xi, xi1, xi2, xi3, vs):
    prof = XiProfile(xi=xi, xi1=xi1, xi2=xi2, xi3=xi3, v_min=0.0, v_max=TWO_PI)
    for v in (vs[0], np.array(vs)):
        A, dA = assemble(prof, v, 1)
        assert A.tobytes() == assemble(prof, v)[0].tobytes()
        assert dA.shape == A.shape == np.shape(v) + (4, 4)


def test_assemble_refuses_order_two():
    with pytest.raises(OutOfDomain, match="order must be 0 or 1"):
        assemble(example_profile(), 0.5, 2)


@pytest.mark.parametrize("use", [
    lambda prof: assemble(prof, 0.5),
    lambda prof: sample_grid(make_surface(BergerParams(0.8, math.pi / 4), prof), 5, 5),
    lambda prof: run_all(make_surface(BergerParams(0.8, math.pi / 4), prof)),
    detect_hopf_tube,
], ids=["assemble", "sample_grid", "run_all", "detect_hopf_tube"])
def test_profile_without_xi3_is_a_config_error(use):
    prof = XiProfile(xi=0.0, xi1=Constant(math.pi / 4), xi2=Linear(1.0), xi3=None,
                     v_min=0.0, v_max=TWO_PI)
    with pytest.raises(ConfigError, match="no xi3; call derive_xi3 first"):
        use(prof)


# ---------------------------------------------------------------------- row1

def test_row1_reference_value():
    prof = XiProfile(xi=0.0, xi1=Constant(math.pi / 4), xi2=Constant(0.0),
                     xi3=Constant(0.0), v_min=0.0, v_max=1.0)
    s = 1 / math.sqrt(2)
    assert np.allclose(row1(prof, 0.5)[0], [s, 0, s, 0], atol=1e-15)


def test_row1_collapses_when_xi1_vanishes():
    prof = XiProfile(xi=0.0, xi1=Constant(0.0), xi2=Linear(1.0),
                     xi3=Sinusoid(1.0, 2.0), v_min=0.0, v_max=3.0)
    for v in (0.0, 1.1, 2.7):
        r, = row1(prof, v)
        assert np.allclose(r, [math.cos(v), -math.sin(v), 0, 0], atol=1e-15)


def test_row1_is_unit_for_random_profiles():
    for _ in range(100):
        prof = random_profile()
        v = RNG.uniform(0, 2 * math.pi)
        assert abs(np.linalg.norm(row1(prof, v)[0]) - 1.0) < 1e-12


def test_row1_out_of_domain():
    with pytest.raises(OutOfDomain):
        row1(example_profile(), 100.0)


def test_row1_derivative_matches_finite_difference():
    prof = random_profile(v_min=-10, v_max=10)
    h = 1e-6
    for v in (0.3, 1.7, 4.1):
        fd = (row1(prof, v + h)[0] - row1(prof, v - h)[0]) / (2 * h)
        assert np.max(np.abs(row1(prof, v, 1)[1] - fd)) < 1e-9


# ------------------------------------------------------------------ assemble

def test_assemble_reference_matrix():
    # the admissible reference profile at v=0
    A, = assemble(example_profile(), 0.0)
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
        dets = [np.linalg.det(assemble(prof, v)[0]) for v in np.linspace(0, 2 * math.pi, 17)]
        assert np.max(np.abs(np.asarray(dets) - 1.0)) < 1e-12


def test_assemble_orthogonal_and_commuting():
    for _ in range(100):
        prof = random_profile()
        v = RNG.uniform(0, 2 * math.pi)
        A, = assemble(prof, v)
        assert np.max(np.abs(A @ A.T - np.eye(4))) < 1e-12
        assert np.max(np.abs(A @ J1 - J1 @ A)) < 1e-12


def test_assemble_rows_orthonormal():
    prof = random_profile()
    for v in np.linspace(0, 2 * math.pi, 13):
        A, = assemble(prof, v)
        assert np.max(np.abs(A @ A.T - np.eye(4))) < 1e-12


def test_assemble_vectorized_matches_scalar():
    prof = random_profile()
    vs = np.linspace(0.2, 5.0, 9)
    batch, = assemble(prof, vs)
    for k, v in enumerate(vs):
        assert np.array_equal(batch[k], assemble(prof, v)[0])


def test_assemble_derivative_matches_finite_difference():
    prof = random_profile(v_min=-10, v_max=10)
    h = 1e-6
    for v in (0.5, 2.2):
        fd = (assemble(prof, v + h)[0] - assemble(prof, v - h)[0]) / (2 * h)
        assert np.max(np.abs(assemble(prof, v, 1)[1] - fd)) < 1e-9


# ---------------------------------------------------------------- derive_xi3

def test_derive_xi3_unit_cotangent():
    prof = XiProfile(xi=0.0, xi1=Constant(math.pi / 4), xi2=Linear(1.0),
                     xi3=None, v_min=0.5, v_max=3.0)
    out = derive_xi3(prof, xi3_at_vmin=0.0)
    for v in np.linspace(0.5, 3.0, 11):
        assert out.xi3.jet(v)[0] == pytest.approx(v - 0.5, abs=1e-12)


def test_derive_xi3_third_cotangent_vs_exact_antiderivative():
    prof = XiProfile(xi=0.0, xi1=Constant(math.pi / 3), xi2=Linear(1.0),
                     xi3=None, v_min=0.0, v_max=2 * math.pi, )
    out = derive_xi3(prof, xi3_at_vmin=0.25)
    for v in np.linspace(0.0, 2 * math.pi, 23):
        assert out.xi3.jet(v)[0] == pytest.approx(v / 3 + 0.25, abs=1e-10)


def test_derive_xi3_constant_xi2():
    prof = XiProfile(xi=0.0, xi1=Sinusoid(0.2, 1.0, 0.0, 1.0), xi2=Constant(2.0),
                     xi3=None, v_min=0.0, v_max=4.0)
    out = derive_xi3(prof, xi3_at_vmin=-1.5)
    vs = np.linspace(0.0, 4.0, 17)
    assert np.max(np.abs(out.xi3.jet(vs)[0] + 1.5)) < 1e-12


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
    x1, = prof.xi1.jet(vs)
    integrand = (np.cos(x1) / np.sin(x1)) ** 2
    oracle = np.sum((integrand[1:] + integrand[:-1]) * np.diff(vs)) / 2   # trapezoid rule
    assert out.xi3.jet(3.0)[0] == pytest.approx(oracle, abs=1e-9)


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
        (x1, d1), (_, d2), (_, d3) = prof.jets(vs, 1)
        drift = d2 + d3
        motion = 4 * d1 ** 2 + np.sin(2 * x1) ** 2 * drift ** 2
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
    assert prof.xi3.jet(1.5)[0] == pytest.approx(0.5, abs=1e-10)
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
    assert prof.xi2.jet(0.5)[0] == pytest.approx(1.0, abs=1e-12)
    assert prof.xi2.jet(0.35, 1)[1] == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("broken", [
    {"xi": "not-a-number", "xi1": {"constant": 1}, "xi2": {"constant": 1},
     "xi3": {"constant": 1}, "v_min": 0, "v_max": 1},
    {"xi": 0.0, "xi1": {"spline": 1}, "xi2": {"constant": 1},
     "xi3": {"constant": 1}, "v_min": 0, "v_max": 1},
    {"xi1": {"constant": 1}},
    {"xi": 0.0, "xi1": {"constant": 1}, "xi2": {"constant": 1},
     "xi3": {"constant": 1}, "v_min": 1, "v_max": 0},
    {"xi": 0.0, "xi1": {"constant": 1}, "xi2": {"linear": {"slope": 1, "offset": "x"}},
     "xi3": {"constant": 1}, "v_min": 0, "v_max": 1},
    {"xi": 0.0, "xi1": {"constant": 1}, "xi2": {"constant": 1},
     "xi3": {"constant": 1}, "v_min": None, "v_max": 1},
    {"xi": 0.0, "xi1": {"constant": 1}, "xi2": {"constant": 1},
     "xi3": {"constant": 1}, "v_min": 0, "v_max": 10 ** 400},
    {"xi": 0.0, "xi1": {"table": {"v": [0, 0.5, 1, 1.5], "value": [1, 1, "x", 1]}},
     "xi2": {"constant": 1}, "xi3": {"constant": 1}, "v_min": 0, "v_max": 1},
    {"xi": 0.0, "xi1": {"table": {"v": 3, "value": [1, 1, 1, 1]}},
     "xi2": {"constant": 1}, "xi3": {"constant": 1}, "v_min": 0, "v_max": 1},
    {"xi": 0.0, "xi1": {"table": {"v": [0, 0.5, 1, 1.5], "value": [1, 1, math.inf, 1]}},
     "xi2": {"constant": 1}, "xi3": "auto", "v_min": 0, "v_max": 1},
])
def test_profile_from_config_rejects_malformed(broken):
    with pytest.raises(ConfigError):
        profile_from_config(broken)


def test_tabulated_refuses_extrapolation():
    t = Tabulated([0, 1, 2, 3], [0, 1, 4, 9])
    for order in (0, 1):
        with pytest.raises(OutOfDomain):
            t.jet(3.5, order)


@pytest.mark.parametrize("v_nodes,values", [
    ([0, 1, 2, 3], [0, math.nan, 0, 0]),
    ([0, 1, 2, 3], [0, math.inf, 0, 0]),
    ([0, math.nan, 2, 3], [0, 0, 0, 0]),
])
def test_tabulated_refuses_non_finite(v_nodes, values):
    with pytest.raises(ConfigError, match="must be finite"):
        Tabulated(v_nodes, values)


def test_tabulated_spline_overflow_is_a_config_error():
    # finite nodes and values whose slopes leave the double range
    with pytest.raises(ConfigError, match="double range"):
        Tabulated([0.0, 1e-320, 1.0, TWO_PI], [0.7, 0.8, 0.9, 0.7])
    with pytest.raises(ConfigError, match="double range"):
        Tabulated([0.0, 1.0, 2.0, TWO_PI], [0.7, 1e308, -1e308, 0.7])


@pytest.mark.filterwarnings("error")
def test_derive_xi3_overflow_is_a_config_error():
    prof = XiProfile(xi=0.0, xi1=Constant(0.3), xi2=Linear(1e308),
                     xi3=None, v_min=0.0, v_max=1.0)   # cot^2(0.3) xi2' overflows
    with pytest.raises(ConfigError, match="xi3"):
        derive_xi3(prof)


# ------------------------------------------------------ bit parity with SciPy

def _same_bits(ours, ref):
    """Equal shape, values (NaN matching NaN) and sign bits, zeros included."""
    ours, ref = np.asarray(ours), np.asarray(ref)
    return (ours.shape == ref.shape and np.array_equal(ours, ref, equal_nan=True)
            and np.array_equal(np.signbit(ours), np.signbit(ref)))


def _parity_tables():
    rng = np.random.default_rng(1274)
    # 4 nodes; at v = 1 every term of the sum is -0.0, and the spline reads +0.0
    yield np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.2, -0.0, -0.4, -1.1])
    for _ in range(4):
        vs = np.linspace(0.0, TWO_PI, 9)
        yield vs, rng.uniform(0.6, 0.9) + rng.uniform(0.02, 0.15) * np.sin(vs + rng.uniform(0, TWO_PI))
    for _ in range(12):
        n = int(rng.integers(4, 41))
        steps = rng.uniform(0.001, 1.0, n - 1)
        steps[2] = steps[0] + steps[1] + rng.uniform(0.1, 1.0)   # dgtsv interchanges rows
        scale = rng.choice([1e-3, 1.0, 1e3])
        yield rng.uniform(-5, 5) + scale * np.concatenate(([0.0], np.cumsum(steps))), \
            scale * rng.normal(size=n)


def _parity_points(v_nodes):
    """The nodes, both ends and 1e-13 beyond them, NaN, a grid and its
    finite-difference stencil, as 1-d, 2-d and 0-d arguments."""
    lo, hi, step = v_nodes[0], v_nodes[-1], 1e-5
    grid = np.linspace(lo + step, hi - step, 37)
    stencil = grid[:, None] + step * np.array([-1.0, -0.5, 0.5, 1.0])
    flat = np.concatenate((v_nodes, [lo - 1e-13, hi + 1e-13, math.nan], grid))
    return [flat, stencil, np.asarray(lo), np.float64(hi), float(v_nodes[1]), lo - 1e-13, math.nan]


def test_tabulated_matches_scipy_cubic_spline_bitwise():
    interpolate = pytest.importorskip("scipy.interpolate")
    for v_nodes, values in _parity_tables():
        tab, reference = Tabulated(v_nodes, values), interpolate.CubicSpline(v_nodes, values)
        d_reference = reference.derivative()
        assert _same_bits(tab._coef, reference.c)
        for v in _parity_points(v_nodes):
            value, derivative = tab.jet(v, 1)
            assert _same_bits(tab.jet(v)[0], reference(v))
            assert _same_bits(value, reference(v))
            assert _same_bits(derivative, d_reference(v))


def test_derived_xi3_matches_scipy_simpson_and_spline_bitwise():
    interpolate = pytest.importorskip("scipy.interpolate")
    integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(1206)
    for anchor in (0.0, -0.0, 0.4):
        xi1 = Sinusoid(rng.uniform(0.01, 0.2), 2.0, rng.uniform(0, TWO_PI), rng.uniform(0.5, 1.0))
        prof = XiProfile(xi=0.0, xi1=xi1, xi2=Linear(rng.uniform(0.5, 1.5)), xi3=None,
                         v_min=0.0, v_max=TWO_PI)
        xi3 = derive_xi3(prof, anchor).xi3
        vs = xi3.v_nodes
        x1, = xi1.jet(vs)
        integrand = (np.cos(x1) / np.sin(x1)) ** 2 * prof.xi2.jet(vs, 1)[1]
        values = anchor + integrate.cumulative_simpson(integrand, x=vs, initial=0.0)
        assert vs.size == 1001
        assert _same_bits(anchor + _cumulative_simpson(integrand, vs), values)
        assert _same_bits(xi3._coef[3], values[:-1])   # the spline passes through them
        reference = interpolate.CubicSpline(vs, values)
        d_reference = reference.derivative()
        assert _same_bits(xi3._coef, reference.c)
        for v in _parity_points(vs):
            assert _same_bits(xi3.jet(v)[0], reference(v))
            # the spline's own derivative; _DerivedXi3.jet gives the exact integrand
            assert _same_bits(Tabulated.jet(xi3, v, 1)[1], d_reference(v))


def test_dgtsv_matches_scipy_solve_banded_bitwise():
    # random signs make the elimination interchange rows at most steps
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(5)
    for n in (4, 5, 9, 40):
        for _ in range(20):
            lower, diag, upper, b = (rng.normal(size=n - 1), rng.normal(size=n),
                                     rng.normal(size=n - 1), rng.normal(size=n))
            banded = np.array([np.append(0.0, upper), diag, np.append(lower, 0.0)])
            assert _same_bits(np.array(_dgtsv(lower, diag, upper, b)),
                              linalg.solve_banded((1, 1), banded, b))
