"""Ambient geometry of the Berger sphere.

The unit 3-sphere sits in R^4, identified with C^2 through
(x1, y1, x2, y2) <-> (z, w) = (x1 + i*y1, x2 + i*y2).  Three constant
complex structures J1, J2, J3 realize the global tangent frame of S^3:
the Hopf (vertical) field is p -> J1 p, the two horizontal fields are
p -> J2 p and p -> J3 p.  The Berger metric rescales the vertical
direction by epsilon^2:

    g(X, Y) = <X, Y> + (epsilon^2 - 1) <X, J1 p> <Y, J1 p>.

The orthonormal frame used everywhere downstream is
E1 = J1 p / epsilon, E2 = J2 p, E3 = J3 p.  Matrices act on column
vectors; arrays are row-major numpy float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidAngle, OutOfDomain, as_array

SPHERE_TOL = 1e-9
TANGENT_TOL = 1e-8

# Open-interval guard for the constant angle: values this close to 0 or
# pi/2 are numerically indistinguishable from the excluded degenerate
# cases (fiber-orthogonal normal impossible / Hopf tube).
ANGLE_MARGIN = 1e-7

J1 = np.array([
    [0.0, -1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, 0.0],
])
J2 = np.array([
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, -1.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
])
J3 = np.array([
    [0.0, 0.0, -1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, -1.0, 0.0, 0.0],
])
# read-only; J_i^2 = -Id and J2 @ J3 = -J1 (regression constant: minus sign)
for _m in (J1, J2, J3):
    _m.setflags(write=False)


@dataclass(frozen=True)
class BergerParams:
    """Deformation parameter and constant angle defining a helix problem.

    epsilon > 0 scales the Hopf fibers; theta is the constant angle in
    radians, restricted to the open interval (0, pi/2).  Both endpoints
    are rejected with a small margin: theta = 0 is impossible (the
    horizontal distribution is not integrable) and theta = pi/2 is the
    Hopf-tube case excluded from the construction.
    """

    epsilon: float
    theta: float

    def __post_init__(self):
        if not (self.epsilon > 0.0) or not np.isfinite(self.epsilon):
            raise OutOfDomain(f"epsilon must be a positive real, got {self.epsilon}")
        if not np.isfinite(self.theta):
            raise InvalidAngle(f"theta must be finite, got {self.theta}")
        if self.theta < ANGLE_MARGIN:
            raise InvalidAngle(
                f"theta={self.theta} is at or below 0: a surface normal "
                "orthogonal to the horizontal distribution cannot exist"
            )
        if self.theta > np.pi / 2 - ANGLE_MARGIN:
            raise InvalidAngle(
                f"theta={self.theta} is at or above pi/2: this is the "
                "Hopf-tube case, excluded from the helix construction"
            )


def _check_on_sphere(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (4,):
        raise OutOfDomain(f"expected a 4-vector, got shape {p.shape}")
    if abs(np.linalg.norm(p) - 1.0) > SPHERE_TOL:
        raise OutOfDomain(f"|p| = {np.linalg.norm(p)} deviates from 1 beyond {SPHERE_TOL}")
    return p


def _check_tangent(p: np.ndarray, X: np.ndarray, name: str = "X") -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if abs(float(X @ p)) > TANGENT_TOL:
        raise OutOfDomain(f"<{name}, p> = {float(X @ p)} exceeds {TANGENT_TOL}")
    return X


def hopf_map(p) -> np.ndarray:
    """Project a point of S^3 to the base 2-sphere of radius 1/2.

    In complex notation the submersion is (z, w) -> (2 z conj(w),
    |z|^2 - |w|^2) / 2; the first complex slot expands to the two real
    output coordinates.
    """
    p = _check_on_sphere(p)
    x1, y1, x2, y2 = p
    return np.array([
        x1 * x2 + y1 * y2,
        y1 * x2 - x1 * y2,
        0.5 * (x1 * x1 + y1 * y1 - x2 * x2 - y2 * y2),
    ])


def hopf_frame(p):
    """Evaluate the global frame (X1, X2, X3) = (J1 p, J2 p, J3 p)."""
    p = _check_on_sphere(p)
    return J1 @ p, J2 @ p, J3 @ p


def frame_triple(params: BergerParams, p):
    """The g-orthonormal frame (E1, E2, E3) at p."""
    x1, x2, x3 = hopf_frame(p)
    return x1 / params.epsilon, x2, x3


def berger_metric(params: BergerParams, p, X, Y) -> float:
    """The deformed metric g(X, Y) at base point p.

    Reduces to the round metric at epsilon = 1.  Both arguments must be
    tangent to the sphere at p.
    """
    p = _check_on_sphere(p)
    X = _check_tangent(p, X, "X")
    Y = _check_tangent(p, Y, "Y")
    return _metric(params.epsilon, p, X, Y)


def _metric(eps: float, p, X, Y) -> float:
    j1p = J1 @ p
    return float(X @ Y + (eps * eps - 1.0) * (X @ j1p) * (Y @ j1p))


def frame_components(params: BergerParams, p, X) -> np.ndarray:
    """Coordinates of tangent vectors in the frame (E1, E2, E3).

    Works on batched inputs: p and X may carry matching leading axes,
    with the 4-vector axis last.  Because the frame is g-orthonormal the
    components are simply (g(X,E1), g(X,E2), g(X,E3)), which reduce to
    (eps <X, J1 p>, <X, J2 p>, <X, J3 p>).  Complex input stays complex.
    """
    p = as_array(p)
    X = as_array(X)
    c1 = params.epsilon * np.sum(X * (p @ J1.T), axis=-1)
    c2 = np.sum(X * (p @ J2.T), axis=-1)
    c3 = np.sum(X * (p @ J3.T), axis=-1)
    return np.stack([c1, c2, c3], axis=-1)


def frame_decompose(params: BergerParams, p, X):
    """Decompose a single tangent vector in the frame at p."""
    p = _check_on_sphere(p)
    X = _check_tangent(p, X)
    c = frame_components(params, p, X)
    return float(c[0]), float(c[1]), float(c[2])


def frame_reconstruct(params: BergerParams, p, comps) -> np.ndarray:
    """Rebuild the tangent vector sum(comps_i * E_i) at p."""
    p = _check_on_sphere(p)
    c1, c2, c3 = comps
    return c1 / params.epsilon * (J1 @ p) + c2 * (J2 @ p) + c3 * (J3 @ p)


def connection_table(params: BergerParams) -> np.ndarray:
    """Connection coefficients as a (3, 3, 3) array, 0-based: out[i, j] holds
    the components of nabla_{E_(i+1)} E_(j+1) in the frame (E1, E2, E3).
    The only nonzero entries are

        nabla_{E1} E2 =  (2 - eps^2)/eps * E3
        nabla_{E1} E3 = -(2 - eps^2)/eps * E2
        nabla_{E2} E1 = -eps E3        nabla_{E2} E3 =  eps E1
        nabla_{E3} E1 =  eps E2        nabla_{E3} E2 = -eps E1
    """
    eps = params.epsilon
    k = (2.0 - eps * eps) / eps
    out = np.zeros((3, 3, 3))
    out[0, 1, 2], out[0, 2, 1] = k, -k
    out[1, 0, 2], out[1, 2, 0] = -eps, eps
    out[2, 0, 1], out[2, 1, 0] = eps, -eps
    return out
