"""Numerical certification of every checkable identity of a helix surface.

The checks form one registry, CHECKS.  Each maps a surface and a
VerifyConfig to named residuals with their sample counts, and evaluates F
and its partials through one surface.tangent_data call over all of its
points, except the angle sweep: it covers the whole nu x nv grid through
the separable kernel surface.sweep_grid, and the check separable_vs_direct
compares that kernel with tangent_data on a subgrid of at most 21 x 21 of
the same points.  run_all is a loop over the registry: it skips the
helix-only checks on a Hopf tube, looks up each tolerance, reduces every
residual with a NaN-propagating max (so a NaN fails its entry) and
collects the entries in a CheckReport.  Sample points come from a deterministic
low-discrepancy sequence, so two runs with the same configuration
produce byte-identical reports.

Every derivative a check takes is a complex step Im f(x + ih) / h with
h = surface.CSTEP, exact to rounding, with no step to tune per surface.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .ambient import J1, connection_table, frame_components
from .constants import ab_coefficients, lambda_field, phi_field
from .errors import ConfigError, as_array
from .family import assemble
from .surface import (
    CSTEP,
    GRAM_DET_TOL,
    NON_FINITE,
    HelixSurface,
    _apply,
    _beta_jet,
    _dot,
    beta,
    beta_derivatives,
    first_fundamental_form,
    first_order_system_residual,
    fit_phase_constant,
    grid_axes,
    recover_coefficient_fields,
    sweep_grid,
    tangent_data,
)

INFO = math.inf   # tolerance marker for report-only entries

DEFAULT_TOLERANCES: Dict[str, float] = {
    "ab_system": 1e-6,
    "ab_unit_identity": 1e-12,
    "angle_constancy": 1e-8,
    "family_j1_commutation": 1e-12,
    "family_orthogonality": 1e-12,
    "first_order_system": 1e-7,
    "fourth_order_ode": 1e-10,
    "fv_norm_spread_berger": INFO,
    "fv_norm_spread_euclidean": INFO,
    "gauss_curvature": 1e-3,
    "gram_diagonal": 1e-9,
    "gram_off_diagonal": 1e-9,
    "j1_products": 1e-9,
    "lambda_ode": 1e-6,
    "normal_closed_form": 1e-8,
    "phi_slope": 1e-6,
    "product_table": 1e-9,
    "profile_constraint": 1e-8,
    "separable_vs_direct": 1e-10,
    "shape_operator": 1e-4,
}

PHASE_READING_NOTE = (
    "closed-form normal check reads the first-component phase as xi2 - xi3"
)

FIELD_SAMPLES = 200
SUBGRID_SIDE = 21     # points per axis that separable_vs_direct compares
SEED = 0


@dataclass(frozen=True)
class CheckEntry:
    name: str
    residual: float
    tolerance: float
    passed: bool
    samples: int


@dataclass
class CheckReport:
    entries: List[CheckEntry] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    degenerate_hopf_tube: bool = False

    def add(self, name: str, residual: float, tolerance: float, samples: int):
        self.entries.append(CheckEntry(
            name=name, residual=float(residual), tolerance=float(tolerance),
            passed=bool(residual <= tolerance), samples=int(samples)))

    @property
    def overall_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    def entry(self, name: str) -> CheckEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def finalize(self) -> "CheckReport":
        self.entries.sort(key=lambda e: e.name)
        return self

    def to_dict(self) -> dict:
        return {
            "notes": list(self.notes),
            "degenerate_hopf_tube": self.degenerate_hopf_tube,
            "overall_pass": self.overall_pass,
            "checks": [dataclasses.asdict(e) for e in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


@dataclass(frozen=True)
class VerifyConfig:
    """Grid size of the angle sweep and tolerance overrides."""

    nu: int = 81
    nv: int = 81
    tolerances: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        unknown = sorted(set(self.tolerances) - set(DEFAULT_TOLERANCES))
        if unknown:
            raise ConfigError(f"unknown tolerance names {unknown}; known names: "
                              + ", ".join(sorted(DEFAULT_TOLERANCES)))
        for name, value in self.tolerances.items():
            # NaN fails the comparison; inf, the report-only marker, passes
            if not (isinstance(value, numbers.Real) and value >= 0):
                raise ConfigError(f"tolerance {name}={value!r} must be a non-negative number")

    def tol(self, name: str) -> float:
        """The tolerance an entry is judged by."""
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])


def low_discrepancy(n: int, seed: int = 0) -> np.ndarray:
    """n points of the plastic-constant (R2) sequence in [0, 1)^2.

    Fully deterministic; seed shifts the starting index.
    """
    g = 1.3247179572447460260  # real root of x^3 = x + 1
    a = np.array([1.0 / g, 1.0 / g ** 2])
    k = np.arange(seed + 1, seed + n + 1, dtype=float)[:, None]
    return np.mod(0.5 + k * a[None, :], 1.0)


def _sample_points(surface: HelixSurface, n: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    pts = low_discrepancy(n, seed)
    u0, u1 = surface.u_domain
    v0, v1 = surface.v_domain
    return u0 + pts[:, 0] * (u1 - u0), v0 + pts[:, 1] * (v1 - v0)


def _matrix(rows):
    """Stack nested rows of broadcastable arrays into (..., n, m) matrices."""
    return np.stack([np.stack(np.broadcast_arrays(*row), -1) for row in rows], -2)


def _covariant(coord_comps, field_comps, d_field, gamma):
    """Covariant derivative in frame components:
    (d_field)_k + sum_ij coord_i field_j Gamma[i,j,k]."""
    return d_field + np.einsum('...i,...j,ijk->...k', coord_comps, field_comps, gamma)


def _unit_normals(normal):
    """Unit normal frame components, flipped so the fiber component (its
    real part) is >= 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        n = normal / np.sqrt(_dot(normal, normal))[..., None]
    return np.where(n[..., :1].real < 0, -n, n)


def _complex_steps(u, v):
    """The points (u + ih, v) and (u, v + ih), h = CSTEP, stacked on a new
    first axis over the broadcast shape of (u, v)."""
    u, v = np.broadcast_arrays(as_array(u), as_array(v))
    return np.stack([u + 1j * CSTEP, u + 0j]), np.stack([v + 0j, v + 1j * CSTEP])


# --------------------------------------------------------------------------
# differential probes
# --------------------------------------------------------------------------

def gauss_curvature_numeric(surface: HelixSurface, u, v):
    """Intrinsic curvature from the first fundamental form alone.

    The two-determinant formula det(M1) - det(M2) over (EG - F^2)^2, with
    the metric a dot product of frame components (nothing cancels) at the
    points of _complex_steps.  Complex steps of it give the first
    derivatives; E_vv, F_uv and G_uu are complex steps of the exact E_v,
    F_u and G_u, from F_uu = A beta'' and F_uv = A' beta'.  Where EG - F^2
    falls below GRAM_DET_TOL the metric is singular and K reads inf.
    """
    us, vs = _complex_steps(*surface.check_domain(u, v))
    b, bu, buu = _beta_jet(us, surface.consts, 0, 1, 2)
    A, dA = assemble(surface.profile, vs, 1)
    P, Pu, Pv, Puu, Puv = (_apply(M, x) for M, x in ((A, b), (A, bu), (dA, b), (A, buu), (dA, bu)))

    def c(p, X):
        """Frame components of X at p, bilinear in (p, X)."""
        return frame_components(surface.params, p, X)

    cu, cv = c(P, Pu), c(P, Pv)
    # their exact derivatives, by the product rule
    cu_u, cu_v, cv_u = c(Pu, Pu) + c(P, Puu), c(Pv, Pu) + c(P, Puv), c(Pu, Pv) + c(P, Puv)
    # axis 1 holds the step: 0 in u, 1 in v
    metric = np.stack([_dot(cu, cu), _dot(cu, cv), _dot(cv, cv)])
    E, Fc, G = metric.real[:, 0]
    (E_u, F_u, G_u), (E_v, F_v, G_v) = np.moveaxis(metric.imag / CSTEP, 1, 0)
    E_vv = 2.0 * _dot(cu, cu_v).imag[1] / CSTEP
    F_uv = (_dot(cu_u, cv) + _dot(cu, cv_u)).imag[1] / CSTEP
    G_uu = 2.0 * _dot(cv, cv_u).imag[0] / CSTEP
    det = E * G - Fc * Fc
    M1 = _matrix([
        [-0.5 * E_vv + F_uv - 0.5 * G_uu, 0.5 * E_u, F_u - 0.5 * E_v],
        [F_v - 0.5 * G_u, E, Fc],
        [0.5 * G_v, Fc, G],
    ])
    M2 = _matrix([
        [0.0, 0.5 * E_v, 0.5 * G_u],
        [0.5 * E_v, E, Fc],
        [0.5 * G_u, Fc, G],
    ])
    with np.errstate(divide="ignore", invalid="ignore"):
        K = (np.linalg.det(M1) - np.linalg.det(M2)) / det ** 2
    return np.where(det < GRAM_DET_TOL, math.inf, K)[()]


def _interior_points(surface: HelixSurface) -> np.ndarray:
    """Nine interior points, the 3 x 3 grid at the quarters of the
    domain, as (u, v) rows, nudged off near-singular parameter lines.

    The curvature divides by the square of EG - F^2 and the shape operator
    by a basis as degenerate as the tangent plane, so a point steps in u,
    up to 16 times, until the relative determinant is healthy (a NaN one
    is not).  The steps do not depend on the metric: one
    first_fundamental_form call evaluates the first 16 candidates of every
    point, which takes its first healthy one or else the 17th.
    """
    u0, u1 = surface.u_domain
    v0, v1 = surface.v_domain
    fracs = np.array([1.0, 2.0, 3.0]) / 4.0
    us = [u0 + np.repeat(fracs, 3) * (u1 - u0)]
    v = v0 + np.tile(fracs, 3) * (v1 - v0)
    for _ in range(16):
        us.append(u0 + (us[-1] - u0 + (u1 - u0) / 7.3) % (u1 - u0))
    us = np.stack(us)
    E, Fc, G = first_fundamental_form(surface, us[:-1], v)
    healthy = np.concatenate([E * G - Fc * Fc > 0.05 * E * G, np.ones((1, v.size), bool)])
    return np.stack([us[np.argmax(healthy, axis=0), np.arange(v.size)], v], axis=-1)


def shape_operator_matrix(surface: HelixSurface, u, v) -> np.ndarray:
    """The shape operator in the orthonormal tangent basis (T, JT)/sin(th).

    The unit normal is differentiated along both coordinate directions by
    complex steps of its frame components, from one tangent_data call at
    the points of _complex_steps, and corrected by the ambient connection;
    the operator is then expressed in the basis made of the normalized
    tangent F_u and its quarter-turn.  Batched over (u, v); NaN where the
    tangent plane degenerates or a value is not finite.
    """
    td = tangent_data(surface, *_complex_steps(u, v))
    n = _unit_normals(td.normal)
    n0, cu, cv = n[0].real, td.cu[0].real, td.cv[0].real
    dNu, dNv = n[0].imag / CSTEP, n[1].imag / CSTEP
    gamma = connection_table(surface.params)
    Au = -_covariant(cu, n0, dNu, gamma)
    Av = -_covariant(cv, n0, dNv, gamma)
    e1 = cu / math.sin(surface.params.theta)
    e2 = np.cross(n0, e1)
    P = _matrix([[_dot(cu, e1), _dot(cv, e1)], [_dot(cu, e2), _dot(cv, e2)]])
    M = _matrix([[_dot(Au, e1), _dot(Av, e1)], [_dot(Au, e2), _dot(Av, e2)]])
    regular = (td.defect[0] == 0)[..., None, None]
    return np.where(regular, M @ np.linalg.inv(np.where(regular, P, np.eye(2))), np.nan)


def tangent_turn_coefficient(surface: HelixSurface, u: float, v: float) -> float:
    """g(nabla_T T, JT) / sin^2(th), expected -2 eps cos(th); T is
    differentiated by a complex step in u."""
    th = surface.params.theta
    td = tangent_data(surface, u + 1j * CSTEP, v)
    cu, dT = td.cu.real, td.cu.imag / CSTEP
    cov = _covariant(cu, cu, dT, connection_table(surface.params))
    e2 = np.cross(_unit_normals(td.normal.real), cu / math.sin(th))
    return float(cov @ e2) / math.sin(th)


def product_table_targets(consts) -> Dict[Tuple[int, int], float]:
    """Expected euclidean products <d^i F, d^j F> keyed by (i, j), i <= j."""
    c = consts
    t = {
        (0, 0): 1.0,
        (0, 1): 0.0,
        (1, 1): c.a_tilde,            # eps^-2 B sin^2 th
        (1, 2): 0.0,
        (2, 2): c.d_const,
        (0, 2): -c.a_tilde,
        (1, 3): -c.d_const,
        (2, 3): 0.0,
        (0, 3): 0.0,
        (3, 3): c.e_const,
    }
    return t


def normal_closed_form_n1(surface: HelixSurface, u, v):
    """Closed-form fiber component of the unnormalized normal:

        N1 = (alpha1 - alpha2)/2 * sqrt(g11 g33) * sin(2 xi1)
             * sin((alpha1 - alpha2) u + xi2 - xi3) * (xi2' + xi3')

    (the constant-xi family contributes no xi' term).  The sign matches
    the cross-product orientation used by normal_components.
    """
    c = surface.consts
    u = np.asarray(u, dtype=float)
    (x1, _), (x2, d2), (x3, d3) = surface.profile.jets(v, 1)
    return 0.5 * (c.alpha1 - c.alpha2) * math.sqrt(c.g11 * c.g33) \
        * np.sin(2.0 * x1) * np.sin((c.alpha1 - c.alpha2) * u + x2 - x3) * (d2 + d3)


# --------------------------------------------------------------------------
# the registry: fn(surface, config) -> {entry: (residual, samples[, note])}
# --------------------------------------------------------------------------

def _family_vs(surface: HelixSurface, config: VerifyConfig) -> np.ndarray:
    return np.linspace(surface.v_domain[0], surface.v_domain[1], max(config.nv, 2))


def _family(surface, config):
    vs = _family_vs(surface, config)
    A, = assemble(surface.profile, vs)
    return {
        "family_orthogonality": (np.abs(np.einsum('kij,kil->kjl', A, A) - np.eye(4)), vs.size),
        "family_j1_commutation": (np.abs(A @ J1 - J1 @ A), vs.size),
    }


def _profile_constraint(surface, config):
    vs = _family_vs(surface, config)
    return {"profile_constraint": (surface.profile.constraint_residual(vs), vs.size)}


def _angle_sweep(surface, config):
    """The constant angle over the nu x nv grid (pi/2 on a Hopf tube),
    counting non-finite samples so that they fail it, and the report-only
    spread of |F_v|^2 in both metrics, all from the separable kernel."""
    sweep = sweep_grid(surface, *grid_axes(surface, config.nu, config.nv))
    target = math.pi / 2 if surface.profile.hopf_tube[0] else surface.params.theta
    counted = ~np.isnan(sweep.angle) | (sweep.defect == NON_FINITE)
    fv_e, fv_b = sweep.fv_euclidean, sweep.fv_berger
    finite = np.isfinite(fv_b)
    n = int(np.sum(finite))
    return {
        "angle_constancy": (np.abs(sweep.angle[counted] - target), int(np.sum(counted))),
        "fv_norm_spread_euclidean": (np.ptp(fv_e[finite]) if n else math.inf, n),
        "fv_norm_spread_berger": (np.ptp(fv_b[finite]) if n else math.inf, n),
    }


def _separable_vs_direct(surface, config):
    """The sweep's separable kernel against tangent_data on at most
    SUBGRID_SIDE^2 points of the sweep grid: inf where the defect codes
    differ, else the largest angle difference over usable samples."""
    us, vs = (axis[np.linspace(0, axis.size - 1, min(axis.size, SUBGRID_SIDE)).round().astype(int)]
              for axis in grid_axes(surface, config.nu, config.nv))
    sep = sweep_grid(surface, us, vs)
    direct = tangent_data(surface, us[:, None], vs[None, :])
    diff = np.where(direct.defect == 0, np.abs(sep.angle - direct.angle), 0.0)
    return {"separable_vs_direct": (np.where(sep.defect == direct.defect, diff, math.inf),
                                    diff.size)}


def _fourth_order_ode(surface, config):
    """Residual of F_uuuu + (b~^2 - 2 a~) F_uu + a~^2 F = 0."""
    us, vs = _sample_points(surface, 1000, SEED)
    c = surface.consts
    comb = beta_derivatives(us, c, 4) \
        + (c.b_tilde ** 2 - 2.0 * c.a_tilde) * beta_derivatives(us, c, 2) \
        + c.a_tilde ** 2 * beta(us, c)
    A, = assemble(surface.profile, vs)
    return {"fourth_order_ode": (np.abs(np.einsum('kij,kj->ki', A, comb)), us.size)}


def _product_table(surface, config):
    """The ten euclidean products of F and its first three u-derivatives.

    The products are v-independent (the family acts orthogonally), so
    sampling runs along u at the first v of the domain.  Residuals are
    relative where the target exceeds 1 in magnitude.
    """
    us, _ = _sample_points(surface, 32, SEED)
    c = surface.consts
    A, = assemble(surface.profile, surface.v_domain[0])
    ders = [(A @ beta_derivatives(us, c, k).T).T for k in range(4)]
    errs = []
    for (i, j), target in product_table_targets(c).items():
        err = np.abs(np.sum(ders[i] * ders[j], axis=-1) - target)
        errs.append(err / abs(target) if abs(target) > 1.0 else err)
    return {"product_table": (errs, us.size)}


def _j1_products(surface, config):
    """Products mixing J1 with the u-derivatives of F.

    <J1 F, F_u> = sin^2(th)/eps, <J1 F, F_uu> = 0,
    <F_u, J1 F_uu> = i_const, <J1 F_u, F_uuu> = 0.
    """
    us, vs = _sample_points(surface, 32, SEED)
    c = surface.consts
    eps = surface.params.epsilon
    th = surface.params.theta
    A, = assemble(surface.profile, vs)
    d = [np.einsum('kij,kj->ki', A, beta_derivatives(us, c, k)) for k in range(4)]
    j1 = [x @ J1.T for x in d]
    return {"j1_products": ([
        np.abs(np.sum(j1[0] * d[1], -1) - math.sin(th) ** 2 / eps),
        np.abs(np.sum(j1[0] * d[2], -1)),
        np.abs(np.sum(d[1] * j1[2], -1) - c.i_const) / max(1.0, abs(c.i_const)),
        np.abs(np.sum(j1[1] * d[3], -1)),
    ], us.size)}


def _normal_closed_form(surface, config):
    """Numeric N1 from the cross product against the closed form."""
    us, vs = _sample_points(surface, 100, SEED)
    n1 = tangent_data(surface, us, vs).normal[:, 0]
    return {"normal_closed_form": (np.abs(n1 - normal_closed_form_n1(surface, us, vs)),
                                   us.size)}


def _fields(surface, config):
    """Residuals of the lambda / (a, b) / phi closed forms under complex
    steps in u, plus the exact (B/eps^2) a^2 + b^2 = 1 identity."""
    params, consts = surface.params, surface.consts
    eps, ct = params.epsilon, math.cos(params.theta)
    # keep the tan argument well inside (-pi/2, pi/2), so no pole is near
    u_cap = 0.6 / (2.0 * ct * math.sqrt(consts.B))
    us = (low_discrepancy(FIELD_SAMPLES, SEED + 17)[:, 0] - 0.5) * 2.0 * u_cap

    def derivative(f):
        return np.imag(f(us + 1j * CSTEP, consts, params)) / CSTEP

    lam = lambda_field(us, consts, params)
    a, b = ab_coefficients(us, consts, params)
    ap, bp = derivative(ab_coefficients)
    n = FIELD_SAMPLES
    return {
        "lambda_ode": (np.abs(derivative(lambda_field) + lam * lam * ct
                              + 4.0 * (eps * eps - 1.0) * ct ** 3 + 4.0 * ct), n),
        "ab_system": ([np.abs(ap + 2.0 * eps * b * ct), np.abs(bp - b * lam * ct)], n),
        "ab_unit_identity": (np.abs(consts.B / eps ** 2 * a * a + b * b - 1.0), n),
        "phi_slope": (np.abs(derivative(phi_field) + 2.0 * consts.B / eps), n),
    }


def _first_order_system(surface, config):
    c = fit_phase_constant(surface)
    us = surface.u_domain[0] + low_discrepancy(100, SEED + 5)[:, 0] \
        * (surface.u_domain[1] - surface.u_domain[0])
    return {"first_order_system": (
        first_order_system_residual(surface, us, surface.v_domain[0], c), us.size)}


def _gram(surface, config):
    """The recovered coefficient vectors are orthogonal with squared norms
    g11, g11, g33, g33, at seven v across the domain."""
    c = surface.consts
    vs = np.linspace(surface.v_domain[0], surface.v_domain[1], 7)
    g = recover_coefficient_fields(surface, vs)
    G = g @ np.swapaxes(g, -1, -2)
    return {
        "gram_off_diagonal": (np.abs(G * (1.0 - np.eye(4))), vs.size),
        "gram_diagonal": (np.abs(np.diagonal(G, axis1=-2, axis2=-1)
                                 - [c.g11, c.g11, c.g33, c.g33]), vs.size),
    }


def _gauss_curvature(surface, config):
    """Numeric intrinsic curvature against 4 (1 - eps^2) cos^2(th)."""
    pts = _interior_points(surface)
    K = gauss_curvature_numeric(surface, pts[:, 0], pts[:, 1])
    return {"gauss_curvature": (np.abs(K - surface.consts.gauss_k), len(pts))}


def _shape_operator(surface, config):
    """Entries of the shape operator against [[0, -eps], [-eps, lambda]].

    The (2,2) entry is the measured lambda and is reported in a note,
    never asserted (its eta(v) gauge is free).
    """
    pts = _interior_points(surface)
    S = shape_operator_matrix(surface, pts[:, 0], pts[:, 1])
    eps = surface.params.epsilon
    resid = np.abs(np.stack([S[:, 0, 0], S[:, 0, 1] + eps, S[:, 1, 0] + eps], -1))
    resid[~np.isfinite(resid)] = math.inf
    out = (resid, len(pts))
    regular = np.all(np.isfinite(S), axis=(-2, -1))
    if np.any(regular):
        lam = S[np.argmax(regular), 1, 1]
        out += (f"measured shape-operator trace at first probe point: {lam:.12g}",)
    return {"shape_operator": out}


@dataclass(frozen=True)
class Check:
    """A registered check.  fn(surface, config) returns, per entry name,
    (residual, samples) plus optional notes; the residual is a number or
    an array of per-sample residuals.  helix_only checks are skipped on a
    Hopf tube."""

    name: str
    fn: Callable[[HelixSurface, VerifyConfig], dict]
    helix_only: bool = False


CHECKS: Tuple[Check, ...] = (
    Check("family", _family),
    Check("profile_constraint", _profile_constraint, helix_only=True),
    Check("angle_sweep", _angle_sweep),
    Check("separable_vs_direct", _separable_vs_direct),
    Check("fourth_order_ode", _fourth_order_ode),
    Check("product_table", _product_table),
    Check("j1_products", _j1_products),
    Check("normal_closed_form", _normal_closed_form),
    Check("fields", _fields),
    Check("first_order_system", _first_order_system, helix_only=True),
    Check("gram", _gram, helix_only=True),
    Check("gauss_curvature", _gauss_curvature, helix_only=True),
    Check("shape_operator", _shape_operator, helix_only=True),
)


def run_all(surface: HelixSurface, config: Optional[VerifyConfig] = None) -> CheckReport:
    """Execute the whole certification suite and collect the report.

    Checks never abort the suite; each contributes its own entries.  On a
    Hopf-tube (degenerate) profile the angle target switches to pi/2 and
    the helix-only checks are skipped with a note.
    """
    if config is None:
        config = VerifyConfig()
    hopf_tube, diag = surface.profile.hopf_tube
    report = CheckReport(notes=[PHASE_READING_NOTE], degenerate_hopf_tube=hopf_tube)
    if hopf_tube:
        report.notes.append(f"degenerate: Hopf tube ({diag})")

    for check in CHECKS:
        if hopf_tube and check.helix_only:
            continue
        for name, (residual, samples, *notes) in check.fn(surface, config).items():
            r = np.asarray(residual, dtype=float)
            # np.max keeps a NaN, so a NaN residual fails its entry
            report.add(name, float(np.max(r)) if r.size else math.inf,
                       config.tol(name), samples)
            report.notes.extend(notes)

    if hopf_tube:
        report.notes.append("skipped helix-only checks: " + ", ".join(
            c.name for c in CHECKS if c.helix_only))
    return report.finalize()
