"""Every function on a complex-step path keeps a complex argument complex.

For f(x + ih) with h = CSTEP the real part must equal f(x), and
Im f(x + ih) / h must be the derivative of f.  A float cast anywhere on
the way would drop the imaginary part (with only a ComplexWarning) and
read a derivative of 0.  Equal means equal values: complex arithmetic
promotes a real factor to complex, which can turn a -0.0 into 0.0.
"""

import math

import numpy as np
import pytest

from bergerhelix.ambient import BergerParams, frame_components
from bergerhelix.constants import _tan_argument, compute_constants, phi_field
from bergerhelix.errors import OutOfDomain, check_range
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
from bergerhelix.surface import CSTEP, _beta_jet

PARAMS = BergerParams(0.8, math.pi / 4)
CONSTS = compute_constants(PARAMS)
VS = np.linspace(0.0, 2 * math.pi, 41)


def stepped(x, dx=1.0):
    """x + i CSTEP dx, with the real part of x untouched."""
    z = np.asarray(x, dtype=complex)
    z.imag = CSTEP * np.asarray(dx)
    return z


def assert_complex_step(at_step, value, derivative, rtol=1e-13, value_rtol=0.0):
    """at_step = f(x + ih): its real part equals value = f(x) (to value_rtol
    relative), and Im / h matches derivative = f'(x)."""
    at_step, value = np.asarray(at_step), np.asarray(value)
    assert np.iscomplexobj(at_step)
    if value_rtol:
        assert np.allclose(at_step.real, value, rtol=value_rtol, atol=0.0)
    else:
        assert np.array_equal(at_step.real, value)
    scale = max(1.0, float(np.max(np.abs(derivative))))
    assert np.max(np.abs(at_step.imag / CSTEP - derivative)) <= rtol * scale


def sinusoid_profile():
    return derive_xi3(XiProfile(xi=0.3, xi1=Sinusoid(0.1, 2.0, 0.4, 0.8), xi2=Linear(1.2),
                                xi3=None, v_min=0.0, v_max=2 * math.pi))


@pytest.mark.parametrize("f,second", [
    (Constant(0.7), lambda v: 0 * v),
    (Linear(1.5, -0.25), lambda v: 0 * v),
    (Sinusoid(0.3, 2.0, 0.4, 0.8), lambda v: -0.3 * 4.0 * np.sin(2.0 * v + 0.4)),
], ids=["constant", "linear", "sinusoid"])
def test_profile_function_jets(f, second):
    value, derivative = f.jet(VS, 1)
    step_value, step_derivative = f.jet(stepped(VS), 1)
    assert_complex_step(step_value, value, derivative)
    assert_complex_step(step_derivative, derivative, second(VS))
    assert_complex_step(f.jet(stepped(VS))[0], value, derivative)


def test_tabulated_jet():
    nodes = np.linspace(0.0, 2 * math.pi, 9)
    tab = Tabulated(nodes, 0.8 + 0.1 * np.sin(nodes + 0.4))
    value, derivative = tab.jet(VS, 1)
    i = np.searchsorted(nodes[1:-1], VS, side="right")
    d0, d1, _ = tab._dcoef[:, i]
    second = d1 + 2.0 * d0 * (VS - nodes[i])
    step_value, step_derivative = tab.jet(stepped(VS), 1)
    assert_complex_step(step_value, value, derivative)
    assert_complex_step(step_derivative, derivative, second)


def table_profile():
    # xi1 through nodes at random v, which join the quadrature's nodes
    rng = np.random.default_rng(11)
    nodes = np.sort(np.concatenate(([0.0, 2 * math.pi], rng.uniform(0.1, 6.1, 7))))
    return derive_xi3(XiProfile(xi=0.3, xi1=Tabulated(nodes, 0.8 + 0.2 * np.sin(nodes + 0.4)),
                                xi2=Linear(-0.7), xi3=None, v_min=0.0, v_max=2 * math.pi))


@pytest.mark.parametrize("profile", [sinusoid_profile, table_profile],
                         ids=["sinusoid", "table"])
def test_derived_xi3_jet(profile):
    # the value is a quadrature, analytic in v, whose derivative is the jet's
    # exact integrand cot^2(xi1) xi2'; that integrand's own derivative is
    # -2 cos(xi1) / sin^3(xi1) xi1' xi2'
    prof = profile()
    value, derivative = prof.xi3.jet(VS, 1)
    (x1, d1), (_, d2) = prof.xi1.jet(VS, 1), prof.xi2.jet(VS, 1)
    step_value, step_derivative = prof.xi3.jet(stepped(VS), 1)
    assert_complex_step(step_value, value, derivative)
    assert_complex_step(step_derivative, derivative, -2.0 * np.cos(x1) / np.sin(x1) ** 3 * d1 * d2)


@pytest.mark.parametrize("profile", [example_profile, sinusoid_profile, table_profile],
                         ids=["reference", "sinusoid_auto", "table_auto"])
def test_assemble(profile):
    prof = profile()
    A, dA = assemble(prof, VS, 1)
    assert_complex_step(assemble(prof, stepped(VS))[0], A, dA)


def test_check_range():
    x = np.array([0.0, -0.0, 0.5, 1.0])
    got = check_range(stepped(x), 0.0, 1.0, "x")
    assert_complex_step(got, check_range(x, 0.0, 1.0, "x"), np.ones(4))
    with pytest.raises(OutOfDomain, match="x outside"):
        check_range(stepped([1.5]), 0.0, 1.0, "x")


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("x,outside", [
    ([NAN, 2.0], True), ([2.0, NAN], True), ([NAN, -1.0], True), ([NAN, 0.5], False),
    ([NAN, NAN], False), (NAN, False), ([], False), (np.empty((0, 3)), False),
    ([INF], True), ([-INF], True), ([0.5, INF, NAN], True), (1.0 + 1e-13, False),
    (1.0 + 1e-11, True), ([0.5 + 3j], False), ([1.5 + 0j], True), ([0.5 + NAN * 1j], False),
    ([NAN + 0j, -0.5 + 0j], True), ([[0.5, NAN], [0.2, 1.0]], False),
    ([[0.5, NAN], [0.2, 1.1]], True), (np.full((2, 3), NAN), False),
])
def test_check_range_verdicts_match_the_elementwise_rule(x, outside):
    # the elementwise comparisons, which a NaN beside an outside value cannot hide
    x = np.asarray(x)
    assert bool(np.any(x.real < -1e-12) or np.any(x.real > 1.0 + 1e-12)) == outside
    if outside:
        with pytest.raises(OutOfDomain, match="x outside"):
            check_range(x, 0.0, 1.0, "x")
    else:
        assert check_range(x, 0.0, 1.0, "x").tobytes() == x.tobytes()


def test_beta_jet():
    us = np.linspace(0.0, 2 * math.pi / CONSTS.alpha2, 33)
    exact = _beta_jet(us, CONSTS, 0, 1, 2, 3, 4)
    for k, at_step in enumerate(_beta_jet(stepped(us), CONSTS, 0, 1, 2, 3)):
        assert_complex_step(at_step, exact[k], exact[k + 1])


def test_frame_components():
    # bilinear in (p, X): the derivative along (p1, X1) is c(p1, X) + c(p, X1);
    # a complex sum reduces in another order than a real one, so the real
    # part agrees to rounding
    rng = np.random.default_rng(7)
    p, X, p1, X1 = rng.normal(size=(4, 5, 4))
    got = frame_components(PARAMS, stepped(p, p1), stepped(X, X1))
    assert_complex_step(got, frame_components(PARAMS, p, X),
                        frame_components(PARAMS, p1, X) + frame_components(PARAMS, p, X1),
                        value_rtol=1e-15)


def test_tan_argument_and_phi_field():
    us = np.linspace(-0.3, 0.3, 21)
    eta = 0.2 * np.sin(us)
    slope = -2.0 * math.cos(PARAMS.theta) * math.sqrt(CONSTS.B)
    assert_complex_step(_tan_argument(stepped(us), CONSTS, PARAMS, eta),
                        _tan_argument(us, CONSTS, PARAMS, eta), np.full(us.shape, slope))
    assert_complex_step(phi_field(stepped(us), CONSTS, PARAMS, 0.5),
                        phi_field(us, CONSTS, PARAMS, 0.5),
                        np.full(us.shape, -2.0 * CONSTS.B / PARAMS.epsilon))
