"""Numerical certification of every checkable identity of a helix surface.

The checks form one registry, CHECKS.  Each maps a run, the surface and
VerifyConfig of one run_all call, to named residuals with their sample
counts.  The run makes each evaluation once, on first use, and drops it
with the call: the grid axes, the family A(v) on them, and one pass of
the separable kernel surface.map_blocks over the whole nu x nv grid;
then three evaluations of which each check reads its own slice.  One
tangent_data call covers every real point set, flattened and
concatenated: the nudge candidates of the nine interior points, a
subgrid of at most 21 x 21 grid points, the samples of
normal_closed_form and first_order_system and the domain corner of
fit_phase_constant.  One complex-step jet at the interior points serves
the curvature and the shape operator.  One beta jet and one assemble at
the 1000 sample points of fourth_order_ode serve it and, through their
first 32 rows, the u-products.  The sweep reduces each block of u rows
in the map_blocks worker that computed it, up to two threads (no
full-grid array is held; arccos is taken at its extreme cosines alone),
and keeps its samples on the subgrid, which separable_vs_direct
compares with tangent_data.  Every entry measures the
surface: the one shape-operator evaluation at the interior points gives
both its entries against [[0, -eps], [-eps, lambda]] and lambda_measured,
the spread along each v-line of the gauge eta(v) of the Riccati solution
lambda = 2 sqrt(B) tan(eta(v) - 2 cos(th) sqrt(B) u).  And every entry
but angle_constancy, the property the paper defines, is the only one to
fail for some fault: the tests pin one such witness per entry.
run_all is a loop over the registry: it skips the helix-only checks on a
Hopf tube, looks up each tolerance, reduces every residual with a
NaN-propagating max (so a NaN fails its entry) and collects the entries
in a CheckReport.
Sample points come from a deterministic low-discrepancy sequence, so two
runs with the same configuration produce byte-identical reports.

Every derivative a check takes is a complex step Im f(x + ih) / h with
h = surface.CSTEP, exact to rounding, with no step to tune per surface.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .ambient import J1, connection_table, frame_components
from .errors import ConfigError, as_array, check_grid_size
from .family import assemble
from .surface import (
    CSTEP,
    GRAM_DET_TOL,
    NON_FINITE,
    HelixSurface,
    TangentData,
    _angles,
    _apply,
    _beta_jet,
    _dot,
    _family_jet,
    _tangent_tail,
    first_fundamental_form,
    first_order_system_residual,
    fit_phase_constant,
    grid_axes,
    map_blocks,
    tangent_data,
)

DEFAULT_TOLERANCES: Dict[str, float] = {
    "angle_constancy": 1e-8,
    "family_j1_commutation": 1e-12,
    "family_orthogonality": 1e-12,
    "first_order_system": 1e-7,
    "fourth_order_ode": 1e-10,
    "gauss_curvature": 1e-3,
    "j1_products": 1e-9,
    "lambda_measured": 1e-7,
    "normal_closed_form": 1e-8,
    "product_table": 1e-9,
    "profile_constraint": 1e-8,
    "separable_vs_direct": 1e-10,
    "shape_operator": 1e-4,
}

SUBGRID_SIDE = 21     # points per axis that separable_vs_direct compares
SEED = 0
ODE_SAMPLES = 1000    # sample points of fourth_order_ode
PRODUCT_SAMPLES = 32  # the first of them, which the u-products read


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
            "checks": [dict(dataclasses.asdict(e), residual=_json_number(e.residual),
                            tolerance=_json_number(e.tolerance)) for e in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)


def _json_number(x: float) -> Optional[float]:
    """x, or None (JSON null) for NaN and the infinities, which strict JSON
    cannot write."""
    return x if math.isfinite(x) else None


@dataclass(frozen=True)
class VerifyConfig:
    """Grid size of the angle sweep, at least 2 x 2, and tolerance
    overrides."""

    nu: int = 81
    nv: int = 81
    tolerances: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        check_grid_size(self.nu, self.nv, ConfigError)
        unknown = sorted(set(self.tolerances) - set(DEFAULT_TOLERANCES))
        if unknown:
            raise ConfigError(f"unknown tolerance names {unknown}; known names: "
                              + ", ".join(sorted(DEFAULT_TOLERANCES)))
        for name, value in self.tolerances.items():
            # NaN fails the comparison; inf, which passes any residual but NaN, is
            # allowed; bool is an int, but True is no tolerance
            if isinstance(value, bool) or not (isinstance(value, numbers.Real) and value >= 0):
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


def _complex_jet(surface: HelixSurface, u, v):
    """The complex-step jet at (u, v), read by the curvature and the shape
    operator: (td, F_uu, F_uv) at the points of _complex_steps, td their
    TangentData, F_uu = A beta'' and F_uv = A' beta'.  One _beta_jet and one
    assemble give them all, and td ends in tangent_data's own
    _tangent_tail, so it equals tangent_data at those points bit for bit."""
    us, vs = _complex_steps(u, v)
    b, bu, buu = _beta_jet(us, surface.consts, 0, 1, 2)
    A, dA = assemble(surface.profile, vs, 1)
    td = _tangent_tail(surface, _apply(A, b), _apply(A, bu), _apply(dA, b))
    return td, _apply(A, buu), _apply(dA, bu)


# --------------------------------------------------------------------------
# differential probes
# --------------------------------------------------------------------------

def gauss_curvature_numeric(surface: HelixSurface, jet):
    """Intrinsic curvature from the first fundamental form alone, at the
    points of jet, the _complex_jet there.

    The two-determinant formula det(M1) - det(M2) over (EG - F^2)^2, with
    the metric a dot product of the jet's frame components (nothing
    cancels).  Complex steps of it give the first derivatives; E_vv, F_uv
    and G_uu are complex steps of the exact E_v, F_u and G_u, from the
    jet's F_uu = A beta'' and F_uv = A' beta'.  Where EG - F^2 falls below
    GRAM_DET_TOL the metric is singular and K reads inf.
    """
    td, Puu, Puv = jet
    P, Pu, Pv, cu, cv = td.F, td.fu, td.fv, td.cu, td.cv

    def c(p, X):
        """Frame components of X at p, bilinear in (p, X)."""
        return frame_components(surface.params, p, X)

    # the exact derivatives of cu and cv, by the product rule
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


def _nudge_candidates(surface: HelixSurface) -> Tuple[np.ndarray, np.ndarray]:
    """(us, v): the nine interior points, the 3 x 3 grid at the quarters
    of the domain, v of shape (9,), and us (16, 9), the u of each point
    followed by its 15 steps in u."""
    u0, u1 = surface.u_domain
    v0, v1 = surface.v_domain
    fracs = np.array([1.0, 2.0, 3.0]) / 4.0
    us = [u0 + np.repeat(fracs, 3) * (u1 - u0)]
    v = v0 + np.tile(fracs, 3) * (v1 - v0)
    for _ in range(15):
        us.append(u0 + (us[-1] - u0 + (u1 - u0) / 7.3) % (u1 - u0))
    return np.stack(us), v


def _interior_points(surface: HelixSurface, candidates, td: TangentData) -> np.ndarray:
    """Nine interior points as (u, v) rows, nudged off near-singular
    parameter lines.

    The curvature divides by the square of EG - F^2 and the shape operator
    by a basis as degenerate as the tangent plane, so a point steps in u,
    up to 15 times, until the relative determinant (EG - F^2) / EG is
    healthy, above 0.05 (a NaN one is not).  The steps do not depend on the
    metric: candidates is _nudge_candidates, td the tangent_data at them,
    and one first_fundamental_form call reads them all; each point takes
    its first healthy candidate or else the one of largest relative
    determinant, a NaN counting as least.
    """
    us, v = candidates
    E, Fc, G = first_fundamental_form(surface, td)
    det = E * G - Fc * Fc
    with np.errstate(divide="ignore", invalid="ignore"):
        score = np.where(det > 0.05 * E * G, math.inf, det / (E * G))
    # fmax turns NaN into -inf; argmax takes the first of equal maxima
    pick = np.argmax(np.fmax(score, -math.inf), axis=0)
    return np.stack([us[pick, np.arange(v.size)], v], axis=-1)


def shape_operator_matrix(surface: HelixSurface, td: TangentData) -> np.ndarray:
    """The shape operator in the orthonormal tangent basis (T, JT)/sin(th).

    td is the TangentData of a _complex_jet, at the points of
    _complex_steps.  The unit normal is differentiated along both
    coordinate directions by complex steps of its frame components and
    corrected by the ambient connection; the operator is then expressed in
    the basis made of the normalized tangent F_u and its quarter-turn.
    Batched over the jet's points; NaN where the tangent plane degenerates
    or a value is not finite.
    """
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

        N1 = (alpha1 - alpha2) sqrt(g11 g33)
             * [xi1' cos(psi) + (1/2) sin(2 xi1) (xi2' + xi3') sin(psi)],
        psi = (alpha1 - alpha2) u + xi2 - xi3.

    Read R^4 as C^2, so J1 = i and <X, J3 p> + i <X, J2 p> = det(p, X);
    then N1 = Im(det(F, F_u) conj(det(F, F_v))).  A is unitary, so
    det(A p, A X) = det(A) det(p, X), and N1 = Im(det(beta, beta')
    conj(det(beta, M beta))) with M = A* A'.  Only M's off-diagonal entry
    conj(a) b' - b conj(a)' survives, (a, b) the first complex row of A:
    it gives the xi1' term and the (xi2' + xi3') term, and xi, which only
    sets the phase of det A, drops out.  The sign matches the
    cross-product orientation of tangent_data.
    """
    c = surface.consts
    u = np.asarray(u, dtype=float)
    (x1, d1), (x2, d2), (x3, d3) = surface.profile.jets(v, 1)
    psi = (c.alpha1 - c.alpha2) * u + x2 - x3
    return (c.alpha1 - c.alpha2) * math.sqrt(c.g11 * c.g33) \
        * (d1 * np.cos(psi) + 0.5 * np.sin(2.0 * x1) * (d2 + d3) * np.sin(psi))


# --------------------------------------------------------------------------
# the run of one run_all call, and the registry:
# fn(run) -> {entry: (residual, samples)}
# --------------------------------------------------------------------------

class _Run:
    """The surface and config of one run_all call, and the evaluations
    that several checks share, each made on first use.  A run lives for
    one call, so nothing is kept between calls.

    Beside the grid's axes, family jet and sweep there are three shared
    evaluations, and each check reads its own slice of one of them:
    real, one tangent_data call on every real point set; jet, one
    _complex_jet at the interior points; and samples, one beta jet and one
    assemble at the sample points of fourth_order_ode, whose first rows
    are those of the u-products.
    """

    def __init__(self, surface: HelixSurface, config: VerifyConfig):
        self.surface, self.config = surface, config

    @cached_property
    def axes(self) -> Tuple[np.ndarray, np.ndarray]:
        """The axes (us, vs) of the nu x nv grid."""
        return grid_axes(self.surface, self.config.nu, self.config.nv)

    @cached_property
    def family_jet(self):
        """(A, dA/dv) on the grid's vs, as _family_jet gives them."""
        return _family_jet(self.surface, self.axes[1], lambda D: D)

    @cached_property
    def subgrid(self) -> Tuple[np.ndarray, np.ndarray]:
        """The indices, per axis, of at most SUBGRID_SIDE evenly spread
        grid points, where separable_vs_direct compares the kernels."""
        return tuple(np.linspace(0, axis.size - 1, min(axis.size, SUBGRID_SIDE)).round().astype(int)
                     for axis in self.axes)

    @cached_property
    def candidates(self) -> Tuple[np.ndarray, np.ndarray]:
        """The nudge candidates of the interior points, _nudge_candidates."""
        return _nudge_candidates(self.surface)

    @cached_property
    def real(self) -> Dict[str, Tuple[np.ndarray, np.ndarray, TangentData]]:
        """Per real point set, (u, v, td): the set's points as its check
        gives them and tangent_data at their broadcast shape.  One
        tangent_data call evaluates all the sets, flattened and
        concatenated, and each td is a slice of it: the kernel works point
        by point, so the slice equals tangent_data on the set alone bit for
        bit."""
        surface = self.surface
        (us, vs), (iu, iv), (cand, cand_v) = self.axes, self.subgrid, self.candidates
        u0, v0 = surface.u_domain[0], surface.v_domain[0]
        sets = {
            "interior": (cand, cand_v),
            "subgrid": (us[iu, None], vs[None, iv]),
            "normal": _sample_points(surface, 100, SEED),
            "first_order": (_sample_points(surface, 100, SEED + 5)[0], v0),
            "corner": (u0, v0),
        }
        shapes = [np.broadcast_shapes(np.shape(u), np.shape(v)) for u, v in sets.values()]
        flat = [np.concatenate([np.broadcast_to(p[k], shape).ravel()
                                for p, shape in zip(sets.values(), shapes)]) for k in (0, 1)]
        td = tangent_data(surface, *flat)
        out, start = {}, 0
        for (name, (u, v)), shape in zip(sets.items(), shapes):
            stop = start + math.prod(shape)
            out[name] = u, v, TangentData(*(
                getattr(td, f.name)[start:stop].reshape(shape + getattr(td, f.name).shape[1:])
                for f in dataclasses.fields(TangentData)))
            start = stop
        return out

    @cached_property
    def interior(self) -> np.ndarray:
        """The interior points of the curvature and the shape operator."""
        return _interior_points(self.surface, self.candidates, self.real["interior"][2])

    @cached_property
    def jet(self):
        """The _complex_jet at the interior points."""
        return _complex_jet(self.surface, self.interior[:, 0], self.interior[:, 1])

    @cached_property
    def samples(self):
        """(us, vs, jet, A) at the ODE_SAMPLES sample points: jet beta and
        its first four u-derivatives from one cos/sin pass, A the family at
        vs.  Their first PRODUCT_SAMPLES rows are the points of
        _sample_points(surface, PRODUCT_SAMPLES, SEED), those of the
        u-products."""
        surface = self.surface
        us, vs = _sample_points(surface, ODE_SAMPLES, SEED)
        A, = assemble(surface.profile, vs)
        return us, vs, _beta_jet(us, surface.consts, 0, 1, 2, 3, 4), A

    @cached_property
    def sweep(self):
        """One map_blocks over the grid, on family_jet, as
        (peaks, counted, angle, defect).

        Each block is reduced to the peak and count of angle_constancy in
        the worker that computed it, so no full-grid array is held: its
        NaN-propagating extremes are exact, so the entry equals that of the
        whole grid bit for bit.  A block whose extreme cosines are finite
        counts every sample, and its largest |angle - target| is read from
        the angles of those two cosines alone, since arccos is
        non-increasing; only a block with a NaN or an infinity goes through
        the per-sample masks.  angle and defect hold the samples at the
        subgrid, copied from the blocks that hold them and gathered in
        block order.
        """
        surface = self.surface
        target = math.pi / 2 if surface.profile.hopf_tube[0] else surface.params.theta
        (us, vs), (iu, iv) = self.axes, self.subgrid

        def reduce(block, start):
            # runs in a map_blocks worker: no traced (public) call here
            cosine, defect = block.cosine, block.defect
            pick = np.ix_(iu[(start <= iu) & (iu < start + cosine.shape[0])] - start, iv)
            low, high = np.min(cosine), np.max(cosine)
            if math.isfinite(low) and math.isfinite(high):
                top, bottom = _angles(np.array([low, high]))
                return max(top - target, target - bottom), cosine.size, cosine[pick], defect[pick]
            kept = ~np.isnan(cosine) | (defect == NON_FINITE)
            n = int(np.count_nonzero(kept))
            peak = np.max(np.abs(_angles(cosine[kept]) - target)) if n else None
            return peak, n, cosine[pick], defect[pick]

        peaks, counts, cosines, defects = zip(*map_blocks(surface, us, vs, reduce,
                                                          self.family_jet))
        return ([p for p in peaks if p is not None], sum(counts),
                _angles(np.concatenate(cosines)), np.concatenate(defects))


def _family(run):
    vs, (A, _) = run.axes[1], run.family_jet
    return {
        "family_orthogonality": (np.abs(np.einsum('kij,kil->kjl', A, A) - np.eye(4)), vs.size),
        "family_j1_commutation": (np.abs(A @ J1 - J1 @ A), vs.size),
    }


def _profile_constraint(run):
    vs = run.axes[1]
    return {"profile_constraint": (run.surface.profile.constraint_residual(vs), vs.size)}


def _angle_sweep(run):
    """The constant angle over the nu x nv grid (pi/2 on a Hopf tube),
    counting non-finite samples so that they fail it, from the run's sweep
    of the separable kernel.  The residual is the list of block maxima,
    empty (inf) when no sample counts."""
    peaks, counted, _, _ = run.sweep
    return {"angle_constancy": (peaks, counted)}


def _separable_vs_direct(run):
    """The sweep's separable kernel against tangent_data on its subgrid,
    the very samples angle_constancy reduced: inf where the defect codes
    differ, else the largest angle difference over usable samples."""
    _, _, angle, defect = run.sweep
    direct = run.real["subgrid"][2]
    diff = np.where(direct.defect == 0, np.abs(angle - direct.angle), 0.0)
    return {"separable_vs_direct": (np.where(defect == direct.defect, diff, math.inf),
                                    diff.size)}


def _fourth_order_ode(run):
    """Residual of F_uuuu + (b~^2 - 2 a~) F_uu + a~^2 F = 0, each component
    divided by max(1, |A| (|beta_uuuu| + |b~^2 - 2 a~| |beta_uu| + a~^2 |beta|)),
    the size of its terms: they reach about alpha1^4 at small eps, where
    their rounding alone would exceed an absolute tolerance."""
    us, _, (b0, _, b2, _, b4), A = run.samples
    c = run.surface.consts
    k2, k0 = c.b_tilde ** 2 - 2.0 * c.a_tilde, c.a_tilde ** 2
    comb = np.einsum('kij,kj->ki', A, b4 + k2 * b2 + k0 * b0)
    size = np.einsum('kij,kj->ki', np.abs(A), np.abs(b4) + abs(k2) * np.abs(b2) + k0 * np.abs(b0))
    return {"fourth_order_ode": (np.abs(comb) / np.maximum(1.0, size), us.size)}


def _product_table(run):
    """The ten euclidean products of F and its first three u-derivatives,
    at the first PRODUCT_SAMPLES sample points.

    The products are v-independent (the family acts orthogonally), so
    sampling runs along u at the first v of the domain.  Each residual
    is divided by |d^i F| |d^j F|, the Cauchy-Schwarz size of its product,
    so it stays relative however small the target: e_const reaches 1e-8
    at small eps and theta.
    """
    surface = run.surface
    jet = run.samples[2]
    c = surface.consts
    A, = assemble(surface.profile, surface.v_domain[0])
    ders = [(A @ b[:PRODUCT_SAMPLES].T).T for b in jet[:4]]
    norms = [np.linalg.norm(d, axis=-1) for d in ders]
    return {"product_table": ([np.abs(np.sum(ders[i] * ders[j], axis=-1) - target)
                               / (norms[i] * norms[j])
                               for (i, j), target in product_table_targets(c).items()],
                              PRODUCT_SAMPLES)}


def _j1_products(run):
    """Products mixing J1 with the u-derivatives of F, at the first
    PRODUCT_SAMPLES sample points.

    <J1 F, F_u> = sin^2(th)/eps, <J1 F, F_uu> = 0,
    <F_u, J1 F_uu> = i_const, <J1 F_u, F_uuu> = 0.
    """
    surface = run.surface
    _, _, jet, A = run.samples
    c = surface.consts
    eps = surface.params.epsilon
    th = surface.params.theta
    d = [np.einsum('kij,kj->ki', A[:PRODUCT_SAMPLES], b[:PRODUCT_SAMPLES]) for b in jet[:4]]
    j1 = [x @ J1.T for x in d]
    return {"j1_products": ([
        np.abs(np.sum(j1[0] * d[1], -1) - math.sin(th) ** 2 / eps),
        np.abs(np.sum(j1[0] * d[2], -1)),
        np.abs(np.sum(d[1] * j1[2], -1) - c.i_const) / max(1.0, abs(c.i_const)),
        np.abs(np.sum(j1[1] * d[3], -1)),
    ], PRODUCT_SAMPLES)}


def _normal_closed_form(run):
    """Numeric N1 from the cross product against the closed form."""
    us, vs, td = run.real["normal"]
    n1 = td.normal[:, 0]
    return {"normal_closed_form": (np.abs(n1 - normal_closed_form_n1(run.surface, us, vs)),
                                   us.size)}


def _first_order_system(run):
    surface = run.surface
    c = fit_phase_constant(surface, run.real["corner"][2])
    us, _, td = run.real["first_order"]
    return {"first_order_system": (first_order_system_residual(surface, us, td, c), us.size)}


def _gauss_curvature(run):
    """Numeric intrinsic curvature against 4 (1 - eps^2) cos^2(th)."""
    K = gauss_curvature_numeric(run.surface, run.jet)
    return {"gauss_curvature": (np.abs(K - run.surface.consts.gauss_k), len(run.interior))}


def _shape_operator(run):
    """Entries of the shape operator against [[0, -eps], [-eps, lambda]],
    and its lambda against the Riccati solution
    lambda = 2 sqrt(B) tan(eta(v) - 2 cos(th) sqrt(B) u).

    eta = atan(lambda / (2 sqrt B)) + 2 cos(th) sqrt(B) u is then constant
    mod pi along each v-line, whatever the free gauge eta(v).  The nudge of
    _interior_points moves only u, so each column of the 3 x 3 block of
    points is one v-line; lambda_measured is the spread of eta mod pi
    across it, an angle with no poles.
    """
    surface, pts = run.surface, run.interior
    S = shape_operator_matrix(surface, run.jet[0])
    eps = surface.params.epsilon
    resid = np.abs(np.stack([S[:, 0, 0], S[:, 0, 1] + eps, S[:, 1, 0] + eps], -1))
    resid[~np.isfinite(resid)] = math.inf
    sB, ct = math.sqrt(surface.consts.B), math.cos(surface.params.theta)
    eta = (np.arctan(S[:, 1, 1] / (2.0 * sB)) + 2.0 * ct * sB * pts[:, 0]).reshape(3, 3)
    turn = (eta - eta[0] + math.pi / 2) % math.pi - math.pi / 2
    return {"shape_operator": (resid, len(pts)),
            "lambda_measured": (np.ptp(turn, axis=0), len(pts))}


@dataclass(frozen=True)
class Check:
    """A registered check.  fn(run), run the _Run of one run_all call,
    returns, per entry name, (residual, samples); the residual is a number
    or an array of per-sample residuals.  helix_only checks are skipped on
    a Hopf tube."""

    name: str
    fn: Callable[[_Run], dict]
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
    Check("first_order_system", _first_order_system, helix_only=True),
    Check("gauss_curvature", _gauss_curvature, helix_only=True),
    Check("shape_operator", _shape_operator, helix_only=True),
)


def run_all(surface: HelixSurface, config: Optional[VerifyConfig] = None) -> CheckReport:
    """Execute the whole certification suite and collect the report.

    Checks never abort the suite; each contributes its own entries.  On a
    Hopf-tube (degenerate) profile the angle target switches to pi/2 and
    the helix-only checks are skipped with a note.  The checks share one
    _Run, so each of its evaluations is made at most once per call.
    """
    if config is None:
        config = VerifyConfig()
    hopf_tube, diag = surface.profile.hopf_tube
    report = CheckReport(degenerate_hopf_tube=hopf_tube)
    if hopf_tube:
        report.notes.append(f"degenerate: Hopf tube ({diag})")

    run = _Run(surface, config)
    for check in CHECKS:
        if hopf_tube and check.helix_only:
            continue
        for name, (residual, samples) in check.fn(run).items():
            r = np.asarray(residual, dtype=float)
            # np.max keeps a NaN, so a NaN residual fails its entry
            report.add(name, float(np.max(r)) if r.size else math.inf,
                       config.tol(name), samples)

    if hopf_tube:
        report.notes.append("skipped helix-only checks: " + ", ".join(
            c.name for c in CHECKS if c.helix_only))
    return report.finalize()
