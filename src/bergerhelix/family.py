"""The 1-parameter family A(v) of orthogonal matrices commuting with J1.

A(v) is assembled row-wise from a unit first row r1(v) determined by the
profile functions (xi1, xi2, xi3) and a constant mixing angle xi:

    rows = r1, J1 r1, cos(xi) J2 r1 + sin(xi) J3 r1,
           -cos(xi) J3 r1 + sin(xi) J2 r1.

The quadruple (r1, J1 r1, J2 r1, J3 r1) is orthonormal for any unit r1,
so A(v) is orthogonal and commutes with J1 by construction.  A profile
is helix-admissible when cos^2(xi1) xi2' - sin^2(xi1) xi3' vanishes.

Each profile function has one method, jet(v, order), giving (f,) or
(f, f').  The rows are linear in r1 and xi is constant, so one assemble
call maps the jet of r1 to A and, for order 1, dA/dv.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .ambient import J1, J2, J3
from .errors import ConfigError, OutOfDomain, as_array, check_range

CONSTRAINT_TOL = 1e-8
HOPF_TUBE_TOL = 1e-9
XI1_SIN_FLOOR = 1e-6
DERIVE_NODES = 1001     # odd, as composite Simpson wants
PROFILE_SAMPLES = 257   # the v samples that decide admissibility and the branch


# --------------------------------------------------------------------------
# scalar profile functions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    value: float

    def jet(self, v, order=0):
        v = as_array(v)
        value = np.full_like(v, self.value)
        return (value, np.zeros_like(v)) if order else (value,)


@dataclass(frozen=True)
class Linear:
    slope: float
    offset: float = 0.0

    def jet(self, v, order=0):
        v = as_array(v)
        value = self.slope * v + self.offset
        return (value, np.full_like(v, self.slope)) if order else (value,)


@dataclass(frozen=True)
class Sinusoid:
    """amplitude * sin(angular_freq * v + phase) + offset."""

    amplitude: float
    angular_freq: float
    phase: float = 0.0
    offset: float = 0.0

    def jet(self, v, order=0):
        arg = self.angular_freq * as_array(v) + self.phase
        value = self.amplitude * np.sin(arg) + self.offset
        return (value, self.amplitude * self.angular_freq * np.cos(arg)) if order else (value,)


class Tabulated:
    """Not-a-knot cubic-spline interpolation through (v, value) nodes.

    The coefficients and their evaluation repeat SciPy 1.17's CubicSpline
    and its derivative PPoly operation for operation, so values and
    derivatives are bit-compatible with it.  The derivative is the
    spline's own, exact for the interpolant.  Evaluation outside the node
    range is refused, and so are nodes or values that are not finite and
    a spline that leaves the double range.
    """

    def __init__(self, v_nodes, values):
        v_nodes = np.asarray(v_nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if v_nodes.ndim != 1 or v_nodes.shape != values.shape or v_nodes.size < 4:
            raise ConfigError("tabulated profile needs matching 1-d arrays of >= 4 nodes")
        if not (np.all(np.isfinite(v_nodes)) and np.all(np.isfinite(values))):
            raise ConfigError("tabulated v nodes and values must be finite")
        if not np.all(np.diff(v_nodes) > 0):
            raise ConfigError("tabulated v nodes must be strictly increasing")
        self.v_nodes = v_nodes
        self._coef = _not_a_knot(v_nodes, values)
        # the derivative's coefficients, as PPoly.derivative() scales them
        self._dcoef = self._coef[:-1] * np.array([[3.0], [2.0], [1.0]])

    def jet(self, v, order=0):
        v = check_range(v, self.v_nodes[0], self.v_nodes[-1], "v")
        flat = v.ravel()
        # the interval holding v, closed on the right at v_max; the range
        # check's slack falls into the end intervals
        i = np.searchsorted(self.v_nodes[1:-1], flat.real, side="right")
        s = flat - self.v_nodes.take(i)
        ss = s * s
        # the power sum in the order of SciPy's evaluate_poly1; 0.0 + sets the sign of a zero
        c0, c1, c2, c3 = self._coef.take(i, axis=1)
        value = ((0.0 + c3) + c2 * s + c1 * ss + c0 * (ss * s)).reshape(v.shape)
        if not order:
            return (value,)
        d0, d1, d2 = self._dcoef.take(i, axis=1)
        return value, ((0.0 + d2) + d1 * s + d0 * ss).reshape(v.shape)


def _not_a_knot(x, y):
    """The (4, n - 1) coefficients, highest power first, of the not-a-knot
    cubic spline through n >= 4 nodes, with the expressions of SciPy 1.17's
    CubicSpline and CubicHermiteSpline in their order.  ConfigError when a
    slope or a coefficient is not finite (a non-finite slope reaches t)."""
    with np.errstate(over="ignore", invalid="ignore"):
        dx = np.diff(x)
        slope = np.diff(y) / dx
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        b = np.empty_like(y)
        b[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
        s = np.array(_dgtsv(np.append(dx[1:], d1),
                            np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]])),
                            np.append(d0, dx[:-1]), b))
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        coef = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))
    if not np.all(np.isfinite(coef)):
        raise ConfigError("tabulated spline leaves the double range; "
                          "spread the v nodes or shrink the values")
    return coef


def _dgtsv(lower, diag, upper, b):
    """Solve the tridiagonal system with the given sub-, main and
    super-diagonal for one right-hand side b, as LAPACK's reference dgtsv
    does (SciPy's solve_banded((1, 1), ...)): elimination with a row
    interchange wherever |diag| < |lower|, then back substitution.
    Python floats round as the Fortran does, so the bits agree."""
    dl, d, du, x = (a.tolist() for a in (lower, diag, upper, b))
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            x[i + 1] = x[i + 1] - fact * x[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i], temp = dl[i], d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:   # dl[i] turns into the second super-diagonal
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            x[i], x[i + 1] = x[i + 1], x[i] - fact * x[i + 1]
    # every other pivot is at least a nonzero sub-diagonal entry in size
    if d[n - 1] == 0.0:
        raise ConfigError("tabulated spline system is singular")
    x[n - 1] = x[n - 1] / d[n - 1]
    x[n - 2] = (x[n - 2] - du[n - 2] * x[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (x[i] - du[i] * x[i + 1] - dl[i] * x[i + 2]) / d[i]
    return x


class _DerivedXi3(Tabulated):
    """xi3 produced by quadrature of the admissibility constraint.

    Values come from cumulative composite Simpson on a dense node grid,
    interpolated by the not-a-knot spline of Tabulated (both bit-compatible
    with SciPy 1.17); the derivative is the exact integrand
    cot^2(xi1) * xi2', so the constraint residual vanishes identically.
    """

    def __init__(self, xi1, xi2, v_nodes, values):
        super().__init__(v_nodes, values)
        self._xi1 = xi1
        self._xi2 = xi2

    def jet(self, v, order=0):
        value = super().jet(v)
        if not order:
            return value
        x1, = self._xi1.jet(v)
        s = np.sin(x1)
        return value + ((np.cos(x1) / s) ** 2 * self._xi2.jet(v, 1)[1],)


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

    def check_domain(self, v) -> np.ndarray:
        return check_range(v, self.v_min, self.v_max, "v")

    def jets(self, v, order: int = 0):
        """The jets of xi1, xi2 and xi3 at v: each (f,) for order 0, or
        (f, f') for order 1."""
        if self.xi3 is None:
            raise ConfigError("profile has no xi3; call derive_xi3 first")
        if order not in (0, 1):
            raise OutOfDomain(f"profile jet order must be 0 or 1, got {order}")
        return self.xi1.jet(v, order), self.xi2.jet(v, order), self.xi3.jet(v, order)

    def constraint_residual(self, v) -> np.ndarray:
        """Pointwise |cos^2(xi1) xi2' - sin^2(xi1) xi3'|."""
        (x1, _), (_, d2), (_, d3) = self.jets(v, 1)
        return np.abs(np.cos(x1) ** 2 * d2 - np.sin(x1) ** 2 * d3)

    def is_admissible(self) -> bool:
        """True when the constraint residual on sample_vs() stays below
        CONSTRAINT_TOL and the branch is not degenerate (fiber-tangent)."""
        if np.max(self.constraint_residual(self.sample_vs())) > CONSTRAINT_TOL:
            return False
        return not self.hopf_tube[0]

    def sample_vs(self) -> np.ndarray:
        return np.linspace(self.v_min, self.v_max, PROFILE_SAMPLES)

    @cached_property
    def hopf_tube(self):
        """detect_hopf_tube(self), decided once per profile."""
        return detect_hopf_tube(self)


def row1(profile: XiProfile, v, order: int = 0):
    """The first row of A(v), a unit 4-vector, and for order 1 its
    v-derivative by the chain rule on the profile jets.

    Vectorized: v of shape S gives output of shape (order + 1,) + S + (4,).
    """
    jets = profile.jets(profile.check_domain(v), order)
    x1, x2, x3 = (jet[0] for jet in jets)
    c1, s1 = np.cos(x1), np.sin(x1)
    c2, s2 = np.cos(x2), np.sin(x2)
    c3, s3 = np.cos(x3), np.sin(x3)
    r1 = np.stack([c1 * c2, -c1 * s2, s1 * c3, -s1 * s3], axis=-1)
    if not order:
        return r1[None]
    d1, d2, d3 = (jet[1] for jet in jets)
    return np.stack([r1, np.stack([
        -d1 * s1 * c2 - d2 * c1 * s2,
        d1 * s1 * s2 - d2 * c1 * c2,
        d1 * c1 * c3 - d3 * s1 * s3,
        -d1 * c1 * s3 - d3 * s1 * c3,
    ], axis=-1)])


def _rows_from_first(xi: float, r1: np.ndarray) -> np.ndarray:
    """Stack the four rows generated by a first row; linear in r1, so it
    maps the jet of the first row to the jet of A."""
    j1r = r1 @ J1.T
    j2r = r1 @ J2.T
    j3r = r1 @ J3.T
    c, s = math.cos(xi), math.sin(xi)
    return np.stack([r1, j1r, c * j2r + s * j3r, -c * j3r + s * j2r], axis=-2)


def assemble(profile: XiProfile, v, order: int = 0) -> np.ndarray:
    """The orthogonal matrix A(v), and for order 1 also dA/dv (valid
    because xi is constant on the whole family): v of shape S gives
    shape (order + 1,) + S + (4, 4)."""
    return _rows_from_first(profile.xi, row1(profile, v, order))


def derive_xi3(profile: XiProfile, xi3_at_vmin: float = 0.0) -> XiProfile:
    """Fill in xi3 so the admissibility constraint holds.

    Integrates xi3' = cot^2(xi1) xi2' from xi3(v_min) = xi3_at_vmin with
    cumulative composite Simpson on DERIVE_NODES equally spaced nodes,
    bit-compatible with SciPy 1.17's cumulative_simpson(x=..., initial=0.0),
    and the not-a-knot spline of Tabulated between them.  Requires
    |sin(xi1)| bounded away from zero on the whole domain, and an integrand
    and running integral inside the double range (ConfigError otherwise).
    """
    vs = np.linspace(profile.v_min, profile.v_max, DERIVE_NODES)
    x1, = profile.xi1.jet(vs)
    s1 = np.sin(x1)
    if np.min(np.abs(s1)) < XI1_SIN_FLOOR:
        raise ConfigError(
            f"|sin(xi1)| drops to {np.min(np.abs(s1)):.2e} on the domain; "
            "the constraint degenerates there, supply xi3 explicitly")
    with np.errstate(over="ignore", invalid="ignore"):
        integrand = (np.cos(x1) / s1) ** 2 * profile.xi2.jet(vs, 1)[1]
        values = xi3_at_vmin + _cumulative_simpson(integrand, vs)
    if not (np.all(np.isfinite(integrand)) and np.all(np.isfinite(values))):
        raise ConfigError("the quadrature of the derived xi3 leaves the double range; "
                          "supply xi3 explicitly")
    xi3 = _DerivedXi3(profile.xi1, profile.xi2, vs, values)
    return replace(profile, xi3=xi3)


def _cumulative_simpson(y, x):
    """Running integrals of y over the nodes x (>= 3), starting from 0 at
    x[0]: the unequal-interval Simpson of SciPy 1.17's cumulative_simpson,
    in its order of operations.  Interval i takes the parabola through its
    two ends and the node after them for even i (h1), or the node before
    them for odd i and the last interval (h2)."""
    dx = np.diff(x)
    h1 = _simpson_interval(dx[:-1], dx[1:], y[:-2], y[1:-1], y[2:])
    h2 = _simpson_interval(dx[1:], dx[:-1], y[2:], y[1:-1], y[:-2])
    parts = np.empty(dx.size)
    parts[:-1:2] = h1[::2]
    parts[1::2] = h2[::2]
    parts[-1] = h2[-1]
    return np.concatenate(([0.0], np.cumsum(parts) + 0.0))


def _simpson_interval(x21, x32, f1, f2, f3):
    """The integral from x1 to x2 of the parabola through (x1, f1),
    (x2, f2), (x3, f3), given x21 = x2 - x1 and x32 = x3 - x2 (Cartwright's
    eqn (8), as SciPy writes it)."""
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * ((3 - x21_x31) * f1 + (3 + x21x21_x31x32 + x21_x31) * f2
                      - x21x21_x31x32 * f3)


def detect_hopf_tube(profile: XiProfile):
    """Decide on sample_vs() whether the profile generates a fiber-tangent surface.

    Returns (flag, diagnostic).  The degenerate branches are: xi1
    constant at a multiple of pi/2; or xi1 constant anywhere with
    -xi' + xi2' + xi3' identically zero (xi' = 0 since xi is constant).
    """
    (x1, d1), (_, d2), (_, d3) = profile.jets(profile.sample_vs(), 1)
    xi1_constant = np.max(np.abs(d1)) <= HOPF_TUBE_TOL \
        and np.max(np.abs(x1 - x1[0])) <= HOPF_TUBE_TOL
    if not xi1_constant:
        return False, "xi1 varies: generic branch"
    k_half_pi = x1[0] / (math.pi / 2)
    if abs(k_half_pi - round(k_half_pi)) * (math.pi / 2) <= HOPF_TUBE_TOL:
        return True, f"xi1 constant at {x1[0]:.6g}, a multiple of pi/2"
    if np.max(np.abs(d2 + d3)) <= HOPF_TUBE_TOL:
        return True, "xi1 constant and -xi' + xi2' + xi3' vanishes identically"
    return False, "xi1 constant but the phase drift is nonzero"


# --------------------------------------------------------------------------
# JSON config schema
# --------------------------------------------------------------------------

def _number(value, what: str) -> float:
    """A finite JSON number as a float; any other value (a string, null,
    a list, the NaN and Infinity that Python's json accepts, or an integer
    beyond the double range) is a ConfigError."""
    # the comparison is exact for ints and false for NaN
    if not (isinstance(value, (int, float)) and abs(value) <= sys.float_info.max):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _func_from_spec(spec, name: str):
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError(f"{name}: expected a single-key object, got {spec!r}")
    kind, body = next(iter(spec.items()))
    if kind == "constant":
        return Constant(_number(body, f"{name}: 'constant'"))
    if kind == "linear":
        if not isinstance(body, dict) or "slope" not in body:
            raise ConfigError(f"{name}: 'linear' takes {{'slope': s, 'offset': o}}")
        return Linear(_number(body["slope"], f"{name}: 'slope'"),
                      _number(body.get("offset", 0.0), f"{name}: 'offset'"))
    if kind == "table":
        if not (isinstance(body, dict) and isinstance(body.get("v"), list)
                and isinstance(body.get("value"), list)):
            raise ConfigError(f"{name}: 'table' takes {{'v': [...], 'value': [...]}}")
        v, value = ([_number(x, f"{name}: table '{key}' entry") for x in body[key]]
                    for key in ("v", "value"))
        return Tabulated(v, value)
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
    xi3_spec = cfg["xi3"]
    profile = XiProfile(
        xi=_number(cfg["xi"], "xi"),
        xi1=_func_from_spec(cfg["xi1"], "xi1"),
        xi2=_func_from_spec(cfg["xi2"], "xi2"),
        xi3=None if xi3_spec == "auto" else _func_from_spec(xi3_spec, "xi3"),
        v_min=_number(cfg["v_min"], "v_min"),
        v_max=_number(cfg["v_max"], "v_max"),
    )
    if xi3_spec == "auto":
        profile = derive_xi3(profile)
    return profile


def profile_from_file(path: str) -> XiProfile:
    """Read a JSON profile config file and build the profile; text that
    is not JSON is a ConfigError, like any malformed config."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:   # JSONDecodeError, or bytes that are not UTF-8
            raise ConfigError(f"{path}: not a JSON document ({exc})") from exc
    return profile_from_config(cfg)


def example_profile() -> XiProfile:
    """The reference admissible profile on [0, 2 pi]: xi = pi/2, xi1 = pi/4, xi2 = xi3 = v."""
    return XiProfile(
        xi=math.pi / 2,
        xi1=Constant(math.pi / 4),
        xi2=Linear(1.0),
        xi3=Linear(1.0),
        v_min=0.0,
        v_max=2.0 * math.pi,
    )
