"""The torus geodesic, the mapped surface F(u, v) = A(v) beta(u), and its
differential data.

One batched kernel, tangent_data, evaluates F, F_u, F_v, the normal and the
Gram determinant at any (u, v) that broadcast against each other: a point,
matched arrays, or us[:, None] against vs[None, :] for a grid, where A is
built once per distinct v.  position, partials, normal_components,
measured_angle, first_fundamental_form and sample_grid are views of it.
Samples the kernel cannot use carry one of three defect kinds:
out_of_domain (the finite-difference stencil of F_v leaves the profile
domain), non_finite (some value is NaN or infinite) and
degenerate_tangent_plane (the Gram determinant of (F_u, F_v) is below
GRAM_DET_TOL).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .ambient import J1, J2, J3, BergerParams, frame_components
from .constants import HelixConstants, compute_constants
from .errors import DegenerateTangentPlane, OutOfDomain, check_range
from .family import XiProfile, assemble, assemble_derivative

GRAM_DET_TOL = 1e-12
FD_STEP_V = 1e-5

# defect codes of TangentData.defect: 0 marks a usable sample, code k + 1 the
# kind DEFECT_KINDS[k]; a sample gets the first kind that applies
DEFECT_KINDS = ("out_of_domain", "non_finite", "degenerate_tangent_plane")
OUT_OF_DOMAIN, NON_FINITE, DEGENERATE = 1, 2, 3


def beta(u, consts: HelixConstants) -> np.ndarray:
    """The torus geodesic (sqrt(g11) e^{i alpha1 u}, sqrt(g33) e^{i alpha2 u}).

    Accepts scalar or array u; output shape is u.shape + (4,).  Lies on
    the unit sphere because g11 + g33 = 1.
    """
    return beta_derivatives(u, consts, order=0)


def beta_derivatives(u, consts: HelixConstants, order: int = 1) -> np.ndarray:
    """Exact u-derivative of order up to four: each derivative scales by
    the frequency and permutes (cos, sin) -> (-sin, cos) without phase
    arithmetic, so exact zeros stay exact."""
    if order not in (0, 1, 2, 3, 4):
        raise OutOfDomain(f"derivative order must be in 0..4, got {order}")
    u = np.asarray(u, dtype=float)
    a1, a2 = consts.alpha1, consts.alpha2
    r1, r3 = math.sqrt(consts.g11), math.sqrt(consts.g33)
    c1, s1 = np.cos(a1 * u), np.sin(a1 * u)
    c2, s2 = np.cos(a2 * u), np.sin(a2 * u)
    k = order % 4
    if k == 0:
        pair1, pair2 = (c1, s1), (c2, s2)
    elif k == 1:
        pair1, pair2 = (-s1, c1), (-s2, c2)
    elif k == 2:
        pair1, pair2 = (-c1, -s1), (-c2, -s2)
    else:
        pair1, pair2 = (s1, -c1), (s2, -c2)
    w1, w2 = r1 * a1 ** order, r3 * a2 ** order
    return np.stack([w1 * pair1[0], w1 * pair1[1],
                     w2 * pair2[0], w2 * pair2[1]], axis=-1)


@dataclass(frozen=True)
class HelixSurface:
    """A concrete parametrized surface: parameters, constants, family.

    fv_method selects how F_v is produced: "analytic" applies dA/dv,
    "fd" differentiates F in v by central differences with one level of
    Richardson extrapolation (step FD_STEP_V).
    """

    params: BergerParams
    consts: HelixConstants
    profile: XiProfile
    u_domain: Tuple[float, float]
    v_domain: Tuple[float, float]
    fv_method: str = "analytic"

    def __post_init__(self):
        if self.fv_method not in ("analytic", "fd"):
            raise OutOfDomain(f"fv_method must be 'analytic' or 'fd', got {self.fv_method}")

    def check_domain(self, u, v):
        return check_range(u, *self.u_domain, "u"), check_range(v, *self.v_domain, "v")


def make_surface(params: BergerParams, profile: XiProfile,
                 consts: Optional[HelixConstants] = None,
                 u_domain: Optional[Tuple[float, float]] = None,
                 v_domain: Optional[Tuple[float, float]] = None,
                 fv_method: Optional[str] = None) -> HelixSurface:
    """Assemble a surface with the default domains.

    The u-domain covers one full period of the slow circle phase,
    [0, 2 pi / alpha2]; the v-domain is the profile's.  fv_method
    defaults to "analytic" when the profile advertises exact
    derivatives, "fd" otherwise.
    """
    if consts is None:
        consts = compute_constants(params)
    if u_domain is None:
        u_domain = (0.0, 2.0 * math.pi / consts.alpha2)
    if v_domain is None:
        v_domain = (profile.v_min, profile.v_max)
    if fv_method is None:
        fv_method = "analytic" if profile.exact_derivatives else "fd"
    return HelixSurface(params=params, consts=consts, profile=profile,
                        u_domain=u_domain, v_domain=v_domain, fv_method=fv_method)


@dataclass
class TangentData:
    """F and its differential data at the broadcast shape S of (u, v).

    F, fu, fv are (S, 4); cu, cv are the frame components of F_u and F_v
    and normal their cross product, (S, 3); gram, angle and defect are S.
    angle is arccos(|N1| / |N|), NaN wherever defect is nonzero; F_v is
    NaN on out_of_domain samples.
    """

    F: np.ndarray
    fu: np.ndarray
    fv: np.ndarray
    cu: np.ndarray
    cv: np.ndarray
    normal: np.ndarray
    gram: np.ndarray
    angle: np.ndarray
    defect: np.ndarray


def _apply(A, x):
    return np.einsum('...ij,...j->...i', A, x)


def _dot(a, b):
    """Dot product over the last axis, with the same rounding as a @ b on
    single vectors."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def tangent_data(surface: HelixSurface, u, v) -> TangentData:
    """Evaluate F = A(v) beta(u), its partials and the normal data.

    u and v broadcast against each other; A is assembled on v as given
    and beta on u, so a grid passed as (us[:, None], vs[None, :]) builds
    each A(v) once.  F_v is dA/dv beta(u), or with fv_method "fd" the
    Richardson central difference (4 D(h/2) - D(h)) / 3 of step
    FD_STEP_V, whose stencil must fit in the profile domain.  The domain
    of (u, v) is not checked here; the pointwise views check it.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    prof = surface.profile
    b = beta(u, surface.consts)
    A = assemble(prof, v)
    F = _apply(A, b)
    fu = _apply(A, beta_derivatives(u, surface.consts, 1))
    if surface.fv_method == "analytic":
        fv = _apply(assemble_derivative(prof, v), b)
        fv_ok = np.ones(v.shape, dtype=bool)
    else:
        h = FD_STEP_V
        fv_ok = (v - h >= prof.v_min - 1e-15) & (v + h <= prof.v_max + 1e-15)
        fv = np.full(F.shape, np.nan)
        if np.any(fv_ok):
            # stencils that do not fit are evaluated at the domain midpoint
            # and then discarded
            vin = np.where(fv_ok, v, 0.5 * (prof.v_min + prof.v_max))

            def diff(step):
                Ad = assemble(prof, vin + step) - assemble(prof, vin - step)
                return _apply(Ad, b) / (2.0 * step)

            fv = (4.0 * diff(h / 2) - diff(h)) / 3.0
            fv[~np.broadcast_to(fv_ok, fv.shape[:-1])] = np.nan

    cu = frame_components(surface.params, F, fu)
    cv = frame_components(surface.params, F, fv)
    normal = np.cross(cu, cv)
    gram = np.sum(fu * fu, -1) * np.sum(fv * fv, -1) - np.sum(fu * fv, -1) ** 2

    finite = np.isfinite(gram) & np.all(np.isfinite(normal), axis=-1)
    with np.errstate(invalid="ignore"):
        flat = gram < GRAM_DET_TOL
    defect = np.select([~np.broadcast_to(fv_ok, gram.shape), ~finite, flat],
                       [OUT_OF_DOMAIN, NON_FINITE, DEGENERATE], 0).astype(np.int8)
    good = defect == 0
    norm = np.linalg.norm(normal, axis=-1)
    angle = np.full(gram.shape, np.nan)
    angle[good] = np.arccos(np.clip(np.abs(normal[good, 0]) / norm[good], 0.0, 1.0))
    return TangentData(F=F, fu=fu, fv=fv, cu=cu, cv=cv, normal=normal, gram=gram,
                       angle=angle, defect=defect)


def _view(surface: HelixSurface, u, v, *refused: int) -> TangentData:
    """The kernel at (u, v) inside the surface domain, raising on any
    sample with one of the refused defect codes."""
    td = tangent_data(surface, *surface.check_domain(u, v))
    if OUT_OF_DOMAIN in refused and np.any(td.defect == OUT_OF_DOMAIN):
        lo, hi = surface.profile.v_min, surface.profile.v_max
        raise OutOfDomain(f"finite-difference F_v needs [v-{FD_STEP_V}, v+{FD_STEP_V}] "
                          f"inside [{lo}, {hi}]")
    if DEGENERATE in refused and np.any(td.defect == DEGENERATE):
        raise DegenerateTangentPlane(
            f"Gram determinant {np.min(td.gram):.3e} below {GRAM_DET_TOL} at (u={u}, v={v})")
    return td


def position(surface: HelixSurface, u, v) -> np.ndarray:
    """F(u, v) = A(v) beta(u); u and v broadcast against each other."""
    return _view(surface, u, v).F


def partials(surface: HelixSurface, u, v):
    """(F_u, F_v) at (u, v); both tangent to the sphere at F(u, v)."""
    td = _view(surface, u, v, OUT_OF_DOMAIN)
    return td.fu, td.fv


def normal_components(surface: HelixSurface, u, v):
    """Frame components (N1, N2, N3) of the (unnormalized) normal.

    The cross product of the frame components of F_u and F_v is
    g-orthogonal to both.  Raises DegenerateTangentPlane when the
    euclidean Gram determinant of (F_u, F_v) falls below GRAM_DET_TOL.
    """
    n1, n2, n3 = np.moveaxis(_view(surface, u, v, OUT_OF_DOMAIN, DEGENERATE).normal, -1, 0)
    return n1[()], n2[()], n3[()]


def measured_angle(surface: HelixSurface, u, v):
    """arccos(|N1| / |N|) in [0, pi/2]: the angle the unit normal makes
    with the fiber direction E1."""
    return _view(surface, u, v, OUT_OF_DOMAIN, DEGENERATE).angle[()]


def first_fundamental_form(surface: HelixSurface, u, v):
    """(E, F, G) of the induced metric at (u, v), in the ambient metric."""
    td = _view(surface, u, v, OUT_OF_DOMAIN)
    eps = surface.params.epsilon
    j1F = td.F @ J1.T

    def g(X, Y):
        return (_dot(X, Y) + (eps * eps - 1.0) * _dot(X, j1F) * _dot(Y, j1F))[()]

    return g(td.fu, td.fu), g(td.fu, td.fv), g(td.fv, td.fv)


@dataclass
class SurfaceGrid:
    """Uniform samples of a surface with per-sample differential data.

    Arrays are indexed [i, j] for (us[i], vs[j]).  Samples the kernel
    cannot use (see DEFECT_KINDS) are listed in defects and carry NaN
    normals and angles.
    """

    us: np.ndarray
    vs: np.ndarray
    positions: np.ndarray          # (nu, nv, 4)
    fu: np.ndarray                 # (nu, nv, 4)
    fv: np.ndarray                 # (nu, nv, 4)
    normals: np.ndarray            # (nu, nv, 3) frame components
    angles: np.ndarray             # (nu, nv)
    fv_method: str
    defects: List[Tuple[int, int, str]] = field(default_factory=list)

    @property
    def shape(self):
        return self.positions.shape[:2]


def sample_grid(surface: HelixSurface, nu: int, nv: int) -> SurfaceGrid:
    """Evaluate the surface on a uniform nu x nv grid.

    One kernel call; defective samples are recorded, not fatal.
    """
    if nu < 2 or nv < 2:
        raise OutOfDomain(f"grid needs nu, nv >= 2, got ({nu}, {nv})")
    us = np.linspace(surface.u_domain[0], surface.u_domain[1], nu)
    vs = np.linspace(surface.v_domain[0], surface.v_domain[1], nv)
    td = tangent_data(surface, us[:, None], vs[None, :])
    td.normal[td.defect != 0] = np.nan
    defects = [(int(i), int(j), DEFECT_KINDS[td.defect[i, j] - 1])
               for i, j in zip(*np.nonzero(td.defect))]
    return SurfaceGrid(us=us, vs=vs, positions=td.F, fu=td.fu, fv=td.fv,
                       normals=td.normal, angles=td.angle,
                       fv_method=surface.fv_method, defects=defects)


# --------------------------------------------------------------------------
# structure probes used by the certification suite and tests
# --------------------------------------------------------------------------

def fit_phase_constant(surface: HelixSurface, u: Optional[float] = None,
                       v: Optional[float] = None) -> float:
    """Fit the integration constant of the normal-rotation phase.

    The tangent field F_u expands as sin(th)[sin(th)/eps J1 F
    - cos(th) cos(phi) J2 F - cos(th) sin(phi) J3 F], so phi is read off
    the projections of F_u on J2 F and J3 F.  Evaluated at the domain
    corner by default.
    """
    if u is None:
        u = surface.u_domain[0]
    if v is None:
        v = surface.v_domain[0]
    # only F_u enters, so an fd F_v that cannot be formed at the corner is harmless
    td = _view(surface, u, v)
    p2, p3 = float(td.fu @ (J2 @ td.F)), float(td.fu @ (J3 @ td.F))
    phi = math.atan2(-p3, -p2)
    return phi + 2.0 * surface.consts.B / surface.params.epsilon * float(u)


def first_order_system_residual(surface: HelixSurface, u, v, c: float):
    """Max componentwise residual of the first-order position system,
    per point of the broadcast (u, v).

    With phi(u) = -2 B u / eps + c the system reads
    F_u = sin(th)[sin(th)/eps J1 F - cos(th) cos(phi) J2 F
    - cos(th) sin(phi) J3 F].
    """
    th = surface.params.theta
    eps = surface.params.epsilon
    td = tangent_data(surface, u, v)
    F = td.F
    phi = (-2.0 * surface.consts.B / eps * np.asarray(u, dtype=float) + c)[..., None]
    rhs = math.sin(th) * (
        math.sin(th) / eps * (F @ J1.T)
        - math.cos(th) * np.cos(phi) * (F @ J2.T)
        - math.cos(th) * np.sin(phi) * (F @ J3.T)
    )
    return np.max(np.abs(td.fu - rhs), axis=-1)[()]


def recover_coefficient_fields(surface: HelixSurface, v,
                               us: Optional[np.ndarray] = None) -> np.ndarray:
    """Solve for the four vector coefficients of the trig expansion of
    F(., v) from samples along u.

    Returns an array of shape v.shape + (4, 4) whose rows are the
    recovered vectors multiplying cos(a1 u), sin(a1 u), cos(a2 u),
    sin(a2 u).  Default sample nodes: u in {0, pi/(4 a1), pi/(4 a2), 1, 2}.
    """
    a1, a2 = surface.consts.alpha1, surface.consts.alpha2
    if us is None:
        us = np.array([0.0, math.pi / (4 * a1), math.pi / (4 * a2), 1.0, 2.0])
    us = np.asarray(us, dtype=float)
    v = np.asarray(v, dtype=float)
    M = np.stack([np.cos(a1 * us), np.sin(a1 * us),
                  np.cos(a2 * us), np.sin(a2 * us)], axis=-1)
    Fs = tangent_data(surface, us.reshape(us.shape + (1,) * v.ndim), v).F
    g, *_ = np.linalg.lstsq(M, Fs.reshape(us.size, -1), rcond=None)
    return np.moveaxis(g.reshape((4,) + v.shape + (4,)), 0, -2)
