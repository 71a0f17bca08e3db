import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergerhelix.ambient import J1, J2, J3, BergerParams
from bergerhelix.errors import ConfigError, OutOfDomain
from bergerhelix.family import (
    GAUSS_NODES,
    GAUSS_WEIGHTS,
    Constant,
    Linear,
    Sinusoid,
    Tabulated,
    XiProfile,
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
    xi1 = Sinusoid(draw(st.floats(0.01, 0.2)), draw(st.sampled_from([1.0, 2.0])),
                   draw(st.floats(0.0, TWO_PI)), draw(st.floats(0.5, 1.0)))
    return derive_xi3(XiProfile(xi=0.0, xi1=xi1, xi2=Linear(draw(st.floats(0.5, 1.5))),
                                xi3=None, v_min=0.0, v_max=TWO_PI)).xi3


@settings(max_examples=100, deadline=None, derandomize=True)
@given(profile_functions(), st.floats(H_JET, TWO_PI - H_JET))
def test_jet_orders_agree_and_derivative_matches_difference(f, v):
    value, = f.jet(v)
    same, derivative = f.jet(v, 1)
    assert value.tobytes() == same.tobytes()
    central = (f.jet(v + H_JET)[0] - f.jet(v - H_JET)[0]) / (2 * H_JET)
    assert abs(derivative - central) <= 1e-6


@settings(max_examples=40, deadline=None, derandomize=True)
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


def stacked_assemble(profile, v, order=0):
    """assemble as np.stack wrote it: the first row and its derivative
    stacked entry by entry, then the four rows from the first."""
    jets = profile.jets(profile.check_domain(v), order)
    x1, x2, x3 = (jet[0] for jet in jets)
    c1, s1 = np.cos(x1), np.sin(x1)
    c2, s2 = np.cos(x2), np.sin(x2)
    c3, s3 = np.cos(x3), np.sin(x3)
    r1 = np.stack([c1 * c2, -c1 * s2, s1 * c3, -s1 * s3], axis=-1)
    if not order:
        r1 = r1[None]
    else:
        d1, d2, d3 = (jet[1] for jet in jets)
        r1 = np.stack([r1, np.stack([
            -d1 * s1 * c2 - d2 * c1 * s2,
            d1 * s1 * s2 - d2 * c1 * c2,
            d1 * c1 * c3 - d3 * s1 * s3,
            -d1 * c1 * s3 - d3 * s1 * c3,
        ], axis=-1)])
    j1r, j2r, j3r = r1 @ J1.T, r1 @ J2.T, r1 @ J3.T
    c, s = math.cos(profile.xi), math.sin(profile.xi)
    return np.stack([r1, j1r, c * j2r + s * j3r, -c * j3r + s * j2r], axis=-2)


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("step", [0.0, 1e-200j], ids=["real", "complex-step"])
@pytest.mark.parametrize("v", [0.7, np.linspace(0.2, 5.0, 9),
                               np.linspace(0.1, 6.0, 12).reshape(3, 4)], ids=["0-d", "1-d", "2-d"])
def test_assemble_matches_the_stacked_rows_bit_for_bit(order, step, v):
    for prof in (example_profile(), random_profile(np.random.default_rng(7))):
        got, want = assemble(prof, v + step, order), stacked_assemble(prof, v + step, order)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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


def test_derive_xi3_refuses_xi1_crossing_pi_between_its_samples():
    # 0.5 + sin v crosses 0 twice on [0, 2 pi], each time between two of the
    # floor's samples, where |sin(xi1)| stays above 1.8e-3; the quadrature
    # then spans the pole of cot^2 and xi3(2 pi) read 2.5e6
    prof = XiProfile(xi=0.0, xi1=Sinusoid(1.0, 1.0, 0.0, 0.5), xi2=Linear(1.0),
                     xi3=None, v_min=0.0, v_max=2 * math.pi)
    with pytest.raises(ConfigError, match="xi1 crosses a multiple of pi"):
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
    # admissible: the constraint residual vanishes and the branch is not a Hopf tube
    def constraint(prof):
        return np.max(prof.constraint_residual(prof.sample_vs()))

    ref = example_profile()
    assert constraint(ref) < 1e-8 and not ref.hopf_tube[0]
    crooked = XiProfile(xi=0.0, xi1=Constant(math.pi / 3), xi2=Linear(1.0),
                        xi3=Linear(0.5), v_min=0.0, v_max=1.0)
    assert constraint(crooked) > 1e-8
    tube = XiProfile(xi=0.0, xi1=Constant(0.0), xi2=Constant(1.0),
                     xi3=Constant(0.0), v_min=0.0, v_max=1.0)
    assert constraint(tube) < 1e-8 and tube.hopf_tube[0]   # the branch is degenerate


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


def random_knot_table(rng):
    """A not-a-knot xi1 through 5-12 nodes at random v in [0, 2 pi], ends included."""
    n = int(rng.integers(5, 13))
    v_nodes = np.sort(np.concatenate(([0.0, TWO_PI], rng.uniform(0.1, TWO_PI - 0.1, n - 2))))
    return Tabulated(v_nodes, math.pi / 4 + 0.3 * np.sin(v_nodes + rng.uniform(0, TWO_PI)))


def test_derived_xi3_matches_quad():
    integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(1206)
    xi1s = [Sinusoid(a, 1.0, 0.0, math.pi / 4) for a in (0.01, 0.2, 0.5)]
    xi1s += [Sinusoid(0.1, 2.0, 0.4, 0.8)] + [random_knot_table(rng) for _ in range(6)]
    for xi1 in xi1s:
        prof = XiProfile(xi=0.0, xi1=xi1, xi2=Linear(rng.uniform(0.5, 1.5)), xi3=None,
                         v_min=0.0, v_max=TWO_PI)
        xi3 = derive_xi3(prof, 0.4).xi3

        def integrand(v):
            return (math.cos(xi1.jet(v)[0]) / math.sin(xi1.jet(v)[0])) ** 2 * prof.xi2.slope

        for v in np.linspace(0.0, TWO_PI, 23)[1:]:
            knots = [k for k in getattr(xi1, "v_nodes", ()) if 0.0 < k < v]
            exact, _ = integrate.quad(integrand, 0.0, v, points=knots or None, limit=200,
                                      epsabs=0.0, epsrel=1e-13)
            assert abs(xi3.jet(v)[0] - 0.4 - exact) <= 1e-13, (xi1, v)


def test_derived_xi3_is_exact_for_a_constant_xi1():
    # xi3 = cot^2(xi1) (xi2(v) - xi2(v_min)): the rule integrates the
    # quadratic pieces of a spline's derivative exactly, once the knots
    # are nodes (without them it is off by up to 4e-8)
    v_nodes = np.array([0.0, 0.7, 1.9, 2.2, 3.5, 4.1, 5.0, TWO_PI])
    vs = np.linspace(0.0, TWO_PI, 1001)
    for xi2 in (Linear(1.3, 0.2), Tabulated(v_nodes, np.sin(v_nodes) + 0.3 * v_nodes)):
        for c in (0.4, math.pi / 4, 1.2):
            prof = XiProfile(xi=0.0, xi1=Constant(c), xi2=xi2, xi3=None, v_min=0.0, v_max=TWO_PI)
            exact = -0.5 + (math.cos(c) / math.sin(c)) ** 2 * (xi2.jet(vs)[0] - xi2.jet(0.0)[0])
            got = derive_xi3(prof, -0.5).xi3.jet(vs)[0]
            assert np.max(np.abs(got - exact)) <= 4e-15 * np.max(np.abs(exact)), (xi2, c)


def test_gauss_rule_literals():
    # correctly rounded closed forms; numpy's leggauss(4) on [0, 1] agrees
    # to 1 ulp in the nodes, and its weights, normalised from an
    # eigensolver's output, are 5 ulp off here
    with localcontext() as ctx:
        ctx.prec = 40
        r = (Decimal(6) / 5).sqrt()
        t = [(Decimal(3) / 7 + sign * Decimal(2) / 7 * r).sqrt() for sign in (1, -1)]
        nodes = [(1 - t[0]) / 2, (1 - t[1]) / 2, (1 + t[1]) / 2, (1 + t[0]) / 2]
        weights = [(18 - Decimal(30).sqrt()) / 72, (18 + Decimal(30).sqrt()) / 72]
    assert GAUSS_NODES == tuple(float(x) for x in nodes)
    assert GAUSS_WEIGHTS == tuple(float(x) for x in weights)
    x, w = np.polynomial.legendre.leggauss(4)
    np.testing.assert_array_max_ulp(np.array(GAUSS_NODES), (1.0 + x) / 2, maxulp=1)
    np.testing.assert_array_max_ulp(np.array(GAUSS_WEIGHTS + GAUSS_WEIGHTS[::-1]), w / 2,
                                    maxulp=8)


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
