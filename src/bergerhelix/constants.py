"""Closed-form constants and auxiliary fields of a helix surface.

Every quantity here is an explicit function of (epsilon, theta); nothing
is obtained by integrating an ODE.  The report judges a surface by these
constants, and reads lambda off the surface's shape operator rather than
from lambda_field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambient import BergerParams
from .errors import InvalidAngle, OutOfDomain, as_array

LAMBDA_POLE_TOL = 1e-6


@dataclass(frozen=True)
class HelixConstants:
    """All scalars derived from (epsilon, theta).

    B is the fiber-deformation factor 1 + (eps^2 - 1) cos^2(theta);
    alpha1 > alpha2 > 0 are the angular frequencies of the torus
    geodesic; g11 and g33 are the squared circle radii; a_tilde, b_tilde
    the coefficients of the linear recursion satisfied by the position
    vector; d_const, e_const, i_const the derived product constants;
    gauss_k the intrinsic curvature.
    """

    B: float
    alpha1: float
    alpha2: float
    g11: float
    g33: float
    a_tilde: float
    b_tilde: float
    d_const: float
    e_const: float
    i_const: float
    gauss_k: float


def compute_constants(params: BergerParams) -> HelixConstants:
    """Evaluate every helix constant from the closed forms.

    Raises InvalidAngle for theta outside the open interval (0, pi/2);
    BergerParams already guards this, so the re-check only matters for
    hand-built parameter objects.  Raises OutOfDomain when epsilon takes
    a closed form out of the double range or alpha2 rounds to zero.
    """
    eps, th = params.epsilon, params.theta
    if not 0.0 < th < math.pi / 2:
        raise InvalidAngle(f"theta={th} outside (0, pi/2)")
    try:
        consts = _closed_forms(eps, th)
    except (ZeroDivisionError, OverflowError):
        consts = None
    if consts is None or not (consts.alpha2 > 0.0
                              and all(map(math.isfinite, vars(consts).values()))):
        raise OutOfDomain(f"epsilon={eps}: the closed-form constants leave the double range")
    return consts


def _closed_forms(eps: float, th: float) -> HelixConstants:
    ct, st = math.cos(th), math.sin(th)
    B = 1.0 + (eps * eps - 1.0) * ct * ct
    sB = math.sqrt(B)
    alpha1 = (B + eps * sB * ct) / eps
    alpha2 = (B - eps * sB * ct) / eps
    g11 = eps / (2.0 * B) * alpha2
    g33 = eps / (2.0 * B) * alpha1
    a_tilde = st * st * B / (eps * eps)
    b_tilde = -2.0 * B / eps
    d_const = B * b_tilde * b_tilde * st * st / (eps * eps) - 3.0 * a_tilde * a_tilde
    e_const = (b_tilde * b_tilde - 2.0 * a_tilde) * d_const \
        - B * a_tilde * a_tilde * st * st / (eps * eps)
    i_const = B * st * st * (st * st - 2.0 * B) / eps ** 3
    gauss_k = 4.0 * (1.0 - eps * eps) * ct * ct
    return HelixConstants(
        B=B, alpha1=alpha1, alpha2=alpha2, g11=g11, g33=g33, a_tilde=a_tilde,
        b_tilde=b_tilde, d_const=d_const, e_const=e_const, i_const=i_const,
        gauss_k=gauss_k,
    )


def _tan_argument(u, consts: HelixConstants, params: BergerParams, eta):
    return as_array(eta) - 2.0 * math.cos(params.theta) * math.sqrt(consts.B) * as_array(u)


def lambda_field(u, consts: HelixConstants, params: BergerParams, eta=0.0):
    """The shape-operator trace field 2 sqrt(B) tan(eta(v) - 2 cos(theta) sqrt(B) u).

    u broadcasts against eta, the values of the free function eta(v).
    Refuses to evaluate when any element lies within LAMBDA_POLE_TOL of a
    pole of tan, where the adapted coordinates break down.
    """
    arg = _tan_argument(u, consts, params, eta)
    r = (arg.real - math.pi / 2) % math.pi
    if np.any(np.minimum(r, math.pi - r) < LAMBDA_POLE_TOL):
        raise OutOfDomain(f"tan argument within {LAMBDA_POLE_TOL} of a pole")
    return 2.0 * math.sqrt(consts.B) * np.tan(arg)


def ab_coefficients(u, consts: HelixConstants, params: BergerParams, eta=0.0):
    """Coefficients (a, b) expanding the v-coordinate field in (T, JT).

    u broadcasts against the values eta of eta(v).  They satisfy the exact
    identity (B/eps^2) a^2 + b^2 = 1.
    """
    arg = _tan_argument(u, consts, params, eta)
    return params.epsilon / math.sqrt(consts.B) * np.sin(arg), np.cos(arg)


def phi_field(u, consts: HelixConstants, params: BergerParams, c_phi: float = 0.0):
    """The normal-rotation phase, affine in u with slope -2B/eps."""
    return -2.0 * consts.B / params.epsilon * as_array(u) + c_phi
