"""The 1-parameter family A(v) of orthogonal matrices commuting with J1.

A(v) is assembled row-wise from a unit first row r1(v) determined by the
profile functions (xi1, xi2, xi3) and a constant mixing angle xi:

    rows = r1, J1 r1, cos(xi) J2 r1 + sin(xi) J3 r1,
           -cos(xi) J3 r1 + sin(xi) J2 r1.

The quadruple (r1, J1 r1, J2 r1, J3 r1) is orthonormal for any unit r1,
so A(v) is orthogonal and commutes with J1 by construction.  A profile
is helix-admissible when cos^2(xi1) xi2' - sin^2(xi1) xi3' vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

from .ambient import J1, J2, J3
from .errors import ConfigError, check_range

CONSTRAINT_TOL = 1e-8
HOPF_TUBE_TOL = 1e-9
XI1_SIN_FLOOR = 1e-6
DERIVE_GRID_MIN = 1001


# --------------------------------------------------------------------------
# scalar profile functions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    value: float

    exact_derivative = True

    def __call__(self, v):
        return np.full_like(np.asarray(v, dtype=float), self.value)

    def derivative(self, v):
        return np.zeros_like(np.asarray(v, dtype=float))


@dataclass(frozen=True)
class Linear:
    slope: float
    offset: float = 0.0

    exact_derivative = True

    def __call__(self, v):
        return self.slope * np.asarray(v, dtype=float) + self.offset

    def derivative(self, v):
        return np.full_like(np.asarray(v, dtype=float), self.slope)


@dataclass(frozen=True)
class Sinusoid:
    """amplitude * sin(angular_freq * v + phase) + offset."""

    amplitude: float
    angular_freq: float
    phase: float = 0.0
    offset: float = 0.0

    exact_derivative = True

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        return self.amplitude * np.sin(self.angular_freq * v + self.phase) + self.offset

    def derivative(self, v):
        v = np.asarray(v, dtype=float)
        return self.amplitude * self.angular_freq * np.cos(self.angular_freq * v + self.phase)


class Tabulated:
    """Cubic-spline interpolation through (v, value) nodes.

    The derivative is the spline's own derivative, exact for the
    interpolant; evaluation outside the node range is refused.
    """

    exact_derivative = True

    def __init__(self, v_nodes, values):
        v_nodes = np.asarray(v_nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if v_nodes.ndim != 1 or v_nodes.shape != values.shape or v_nodes.size < 4:
            raise ConfigError("tabulated profile needs matching 1-d arrays of >= 4 nodes")
        if not np.all(np.diff(v_nodes) > 0):
            raise ConfigError("tabulated v nodes must be strictly increasing")
        self.v_nodes = v_nodes
        self._spline = CubicSpline(v_nodes, values)

    @cached_property
    def _dspline(self):
        return self._spline.derivative()

    def __call__(self, v):
        return self._spline(check_range(v, self.v_nodes[0], self.v_nodes[-1], "v"))

    def derivative(self, v):
        return self._dspline(check_range(v, self.v_nodes[0], self.v_nodes[-1], "v"))


class FromCallable:
    """Wrap an arbitrary smooth callable; derivative falls back to a
    central difference of step h unless one is supplied."""

    def __init__(self, fn, dfn=None, h: float = 1e-5):
        self.fn = fn
        self.dfn = dfn
        self.h = h
        self.exact_derivative = dfn is not None

    def __call__(self, v):
        return np.asarray(self.fn(np.asarray(v, dtype=float)), dtype=float)

    def derivative(self, v):
        v = np.asarray(v, dtype=float)
        if self.dfn is not None:
            return np.asarray(self.dfn(v), dtype=float)
        return (self(v + self.h) - self(v - self.h)) / (2.0 * self.h)


class _DerivedXi3(Tabulated):
    """xi3 produced by quadrature of the admissibility constraint.

    Values come from cumulative composite Simpson on a dense node grid,
    interpolated cubically between nodes; the derivative is the exact
    integrand cot^2(xi1) * xi2', so the constraint residual vanishes
    identically.
    """

    def __init__(self, xi1, xi2, v_nodes, values):
        super().__init__(v_nodes, values)
        self._xi1 = xi1
        self._xi2 = xi2

    def derivative(self, v):
        x1 = self._xi1(v)
        s = np.sin(x1)
        return (np.cos(x1) / s) ** 2 * self._xi2.derivative(v)


# --------------------------------------------------------------------------
# profile
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class XiProfile:
    """Mixing angle xi (held constant) plus the three scalar functions.

    xi3 may be None, to be filled in by derive_xi3.
    """

    xi: float
    xi1: object
    xi2: object
    xi3: Optional[object]
    v_min: float
    v_max: float

    def __post_init__(self):
        if not np.isfinite(self.xi):
            raise ConfigError("xi must be a finite constant")
        if not self.v_min < self.v_max:
            raise ConfigError(f"empty profile domain [{self.v_min}, {self.v_max}]")

    @property
    def exact_derivatives(self) -> bool:
        funcs = (self.xi1, self.xi2, self.xi3)
        return all(f is not None and getattr(f, "exact_derivative", False) for f in funcs)

    def check_domain(self, v) -> np.ndarray:
        return check_range(v, self.v_min, self.v_max, "v")

    def constraint_residual(self, v) -> np.ndarray:
        """Pointwise |cos^2(xi1) xi2' - sin^2(xi1) xi3'|."""
        if self.xi3 is None:
            raise ConfigError("profile has no xi3; call derive_xi3 first")
        v = np.asarray(v, dtype=float)
        x1 = self.xi1(v)
        return np.abs(np.cos(x1) ** 2 * self.xi2.derivative(v)
                      - np.sin(x1) ** 2 * self.xi3.derivative(v))

    def is_admissible(self, n_samples: int = 257, tol: float = CONSTRAINT_TOL) -> bool:
        """True when the sampled constraint residual stays below tol and
        the profile is not on a degenerate (fiber-tangent) branch."""
        vs = self.sample_vs(n_samples)
        if np.max(self.constraint_residual(vs)) > tol:
            return False
        return not detect_hopf_tube(self, n_samples)[0]

    def sample_vs(self, n: int = 257) -> np.ndarray:
        return np.linspace(self.v_min, self.v_max, n)


def row1(profile: XiProfile, v):
    """First row of A(v); a unit 4-vector for every v.

    Vectorized: v of shape S gives output of shape S + (4,).
    """
    v = profile.check_domain(v)
    x1 = np.asarray(profile.xi1(v), dtype=float)
    x2 = np.asarray(profile.xi2(v), dtype=float)
    x3 = np.asarray(profile.xi3(v), dtype=float)
    return np.stack([
        np.cos(x1) * np.cos(x2),
        -np.cos(x1) * np.sin(x2),
        np.sin(x1) * np.cos(x3),
        -np.sin(x1) * np.sin(x3),
    ], axis=-1)


def row1_derivative(profile: XiProfile, v):
    """d/dv of row1 by the chain rule on the profile derivatives."""
    v = profile.check_domain(v)
    x1 = np.asarray(profile.xi1(v), dtype=float)
    x2 = np.asarray(profile.xi2(v), dtype=float)
    x3 = np.asarray(profile.xi3(v), dtype=float)
    d1 = np.asarray(profile.xi1.derivative(v), dtype=float)
    d2 = np.asarray(profile.xi2.derivative(v), dtype=float)
    d3 = np.asarray(profile.xi3.derivative(v), dtype=float)
    c1, s1 = np.cos(x1), np.sin(x1)
    c2, s2 = np.cos(x2), np.sin(x2)
    c3, s3 = np.cos(x3), np.sin(x3)
    return np.stack([
        -d1 * s1 * c2 - d2 * c1 * s2,
        d1 * s1 * s2 - d2 * c1 * c2,
        d1 * c1 * c3 - d3 * s1 * s3,
        -d1 * c1 * s3 - d3 * s1 * c3,
    ], axis=-1)


def _rows_from_first(xi: float, r1: np.ndarray) -> np.ndarray:
    """Stack the four rows generated by a (derivative of a) first row."""
    j1r = r1 @ J1.T
    j2r = r1 @ J2.T
    j3r = r1 @ J3.T
    c, s = math.cos(xi), math.sin(xi)
    return np.stack([r1, j1r, c * j2r + s * j3r, -c * j3r + s * j2r], axis=-2)


def assemble(profile: XiProfile, v) -> np.ndarray:
    """The orthogonal matrix A(v); batched v gives shape S + (4, 4)."""
    return _rows_from_first(profile.xi, row1(profile, v))


def assemble_derivative(profile: XiProfile, v) -> np.ndarray:
    """dA/dv, valid because xi is constant on the whole family."""
    return _rows_from_first(profile.xi, row1_derivative(profile, v))


def derive_xi3(profile: XiProfile, xi3_at_vmin: float = 0.0,
               n_nodes: int = DERIVE_GRID_MIN) -> XiProfile:
    """Fill in xi3 so the admissibility constraint holds.

    Integrates xi3' = cot^2(xi1) xi2' from v_min with cumulative
    composite Simpson on at least DERIVE_GRID_MIN nodes, cubic
    interpolation between them.  Requires |sin(xi1)| bounded away from
    zero on the whole domain.
    """
    n = max(int(n_nodes), DERIVE_GRID_MIN)
    if n % 2 == 0:
        n += 1
    vs = np.linspace(profile.v_min, profile.v_max, n)
    x1 = np.asarray(profile.xi1(vs), dtype=float)
    s1 = np.sin(x1)
    if np.min(np.abs(s1)) < XI1_SIN_FLOOR:
        raise ConfigError(
            f"|sin(xi1)| drops to {np.min(np.abs(s1)):.2e} on the domain; "
            "the constraint degenerates there, supply xi3 explicitly")
    integrand = (np.cos(x1) / s1) ** 2 * np.asarray(profile.xi2.derivative(vs), dtype=float)
    values = xi3_at_vmin + cumulative_simpson(integrand, x=vs, initial=0.0)
    xi3 = _DerivedXi3(profile.xi1, profile.xi2, vs, values)
    return replace(profile, xi3=xi3)


def detect_hopf_tube(profile: XiProfile, n_samples: int = 257):
    """Decide whether the profile generates a fiber-tangent surface.

    Returns (flag, diagnostic).  The degenerate branches are: xi1
    constant at a multiple of pi/2; or xi1 constant anywhere with
    -xi' + xi2' + xi3' identically zero (xi' = 0 since xi is constant).
    """
    vs = profile.sample_vs(n_samples)
    x1 = np.asarray(profile.xi1(vs), dtype=float)
    d1 = np.asarray(profile.xi1.derivative(vs), dtype=float)
    xi1_constant = np.max(np.abs(d1)) <= HOPF_TUBE_TOL \
        and np.max(np.abs(x1 - x1[0])) <= HOPF_TUBE_TOL
    if not xi1_constant:
        return False, "xi1 varies: generic branch"
    k_half_pi = x1[0] / (math.pi / 2)
    if abs(k_half_pi - round(k_half_pi)) * (math.pi / 2) <= HOPF_TUBE_TOL:
        return True, f"xi1 constant at {x1[0]:.6g}, a multiple of pi/2"
    drift = np.asarray(profile.xi2.derivative(vs), dtype=float) \
        + np.asarray(profile.xi3.derivative(vs), dtype=float)
    if np.max(np.abs(drift)) <= HOPF_TUBE_TOL:
        return True, "xi1 constant and -xi' + xi2' + xi3' vanishes identically"
    return False, "xi1 constant but the phase drift is nonzero"


# --------------------------------------------------------------------------
# JSON config schema
# --------------------------------------------------------------------------

def _func_from_spec(spec, name: str):
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError(f"{name}: expected a single-key object, got {spec!r}")
    kind, body = next(iter(spec.items()))
    if kind == "constant":
        if not isinstance(body, (int, float)):
            raise ConfigError(f"{name}: 'constant' takes a number")
        return Constant(float(body))
    if kind == "linear":
        if not isinstance(body, dict) or "slope" not in body:
            raise ConfigError(f"{name}: 'linear' takes {{'slope': s, 'offset': o}}")
        return Linear(float(body["slope"]), float(body.get("offset", 0.0)))
    if kind == "table":
        if not isinstance(body, dict) or "v" not in body or "value" not in body:
            raise ConfigError(f"{name}: 'table' takes {{'v': [...], 'value': [...]}}")
        return Tabulated(body["v"], body["value"])
    raise ConfigError(f"{name}: unknown function kind {kind!r}")


def profile_from_config(cfg: dict) -> XiProfile:
    """Build a profile from the JSON schema.

    Schema: {"xi": number, "xi1": spec, "xi2": spec, "xi3": spec|"auto",
    "v_min": number, "v_max": number} with spec one of {"constant": c},
    {"linear": {"slope": s, "offset": o}}, {"table": {"v": [...],
    "value": [...]}}.  "auto" integrates the admissibility constraint,
    anchored at xi3(v_min) = 0.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("profile config must be a JSON object")
    missing = [k for k in ("xi", "xi1", "xi2", "xi3", "v_min", "v_max") if k not in cfg]
    if missing:
        raise ConfigError(f"profile config missing keys: {missing}")
    if not isinstance(cfg["xi"], (int, float)):
        raise ConfigError("xi must be a number (the family requires a constant xi)")
    xi3_spec = cfg["xi3"]
    profile = XiProfile(
        xi=float(cfg["xi"]),
        xi1=_func_from_spec(cfg["xi1"], "xi1"),
        xi2=_func_from_spec(cfg["xi2"], "xi2"),
        xi3=None if xi3_spec == "auto" else _func_from_spec(xi3_spec, "xi3"),
        v_min=float(cfg["v_min"]),
        v_max=float(cfg["v_max"]),
    )
    if xi3_spec == "auto":
        profile = derive_xi3(profile)
    return profile


def example_profile(v_min: float = 0.0, v_max: float = 2.0 * math.pi) -> XiProfile:
    """The reference admissible profile: xi = pi/2, xi1 = pi/4, xi2 = xi3 = v."""
    return XiProfile(
        xi=math.pi / 2,
        xi1=Constant(math.pi / 4),
        xi2=Linear(1.0),
        xi3=Linear(1.0),
        v_min=v_min,
        v_max=v_max,
    )
