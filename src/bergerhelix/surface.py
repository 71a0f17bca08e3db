"""The torus geodesic, the mapped surface F(u, v) = A(v) beta(u), and its
differential data.

One batched kernel, tangent_data, evaluates F, F_u, F_v, the normal and the
Gram determinant at any (u, v) that broadcast against each other: a point,
matched arrays, or us[:, None] against vs[None, :] for a grid, where A is
built once per distinct v.  position, partials, normal_components,
measured_angle, first_fundamental_form and sample_grid (and through it the
exports) are views of it.

verify's angle sweep has its own grid kernel, sweep_grid.  All of the
u-dependence of F sits in b = beta(u), and beta' = K b for a constant
block rotation K, so every product the sweep needs is a quadratic form
b^T Q(v) b: a (rows x 10) @ (10 x nv) product over the monomials b_i b_j,
i <= j, for each block of u rows, and no (nu, nv, 4) array is built.

F_v is dA/dv beta(u) from the profile jets, or with fv_method "fd" from a
complex step of A's value code.  tangent_data keeps complex (u, v) complex.

Samples a kernel cannot use carry one of two defect kinds, by one rule
for both kernels: non_finite (some value is NaN or infinite) and
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
from .errors import DegenerateTangentPlane, OutOfDomain, as_array, check_range
from .family import XiProfile, assemble

GRAM_DET_TOL = 1e-12
# complex step: f'(x) = Im f(x + i CSTEP) / CSTEP has no subtraction, so it
# is exact to rounding, and CSTEP^2 vanishes beside any double
CSTEP = 1e-200
SWEEP_BLOCK = 1 << 15    # grid samples per block of u rows in sweep_grid

# defect codes of TangentData.defect: 0 marks a usable sample, code k + 1 the
# kind DEFECT_KINDS[k]; a sample gets the first kind that applies
DEFECT_KINDS = ("non_finite", "degenerate_tangent_plane")
NON_FINITE, DEGENERATE = 1, 2


def beta(u, consts: HelixConstants) -> np.ndarray:
    """The torus geodesic (sqrt(g11) e^{i alpha1 u}, sqrt(g33) e^{i alpha2 u}).

    Accepts scalar or array u; output shape is u.shape + (4,).  Lies on
    the unit sphere because g11 + g33 = 1.
    """
    return beta_derivatives(u, consts, order=0)


def beta_derivatives(u, consts: HelixConstants, order: int = 1) -> np.ndarray:
    """Exact u-derivative of order up to four: each derivative scales by
    the frequency and permutes (cos, sin) -> (-sin, cos) without phase
    arithmetic, so exact zeros stay exact.  Complex u stays complex."""
    return _beta_jet(u, consts, order)[0]


def _beta_jet(u, consts: HelixConstants, *orders: int) -> List[np.ndarray]:
    """beta_derivatives(u, consts, k) for each k of orders, from one
    cos/sin pass."""
    for order in orders:
        if order not in (0, 1, 2, 3, 4):
            raise OutOfDomain(f"derivative order must be in 0..4, got {order}")
    u = as_array(u)
    a1, a2 = consts.alpha1, consts.alpha2
    r1, r3 = math.sqrt(consts.g11), math.sqrt(consts.g33)
    x1, x2 = a1 * u, a2 * u
    c1, s1 = np.cos(x1), np.sin(x1)
    c2, s2 = np.cos(x2), np.sin(x2)
    jet = []
    for order in orders:
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
        d = np.empty(u.shape + (4,), u.dtype)
        d[..., 0], d[..., 1] = w1 * pair1[0], w1 * pair1[1]
        d[..., 2], d[..., 3] = w2 * pair2[0], w2 * pair2[1]
        jet.append(d)
    return jet


@dataclass(frozen=True)
class HelixSurface:
    """A concrete parametrized surface: parameters, constants, family.

    fv_method selects how F_v is produced: "analytic" applies dA/dv from
    the profile jets, "fd" differentiates the value code of A by a complex
    step (CSTEP), independently of the hand-written jets.
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
                 fv_method: Optional[str] = None) -> HelixSurface:
    """Assemble a surface over one full period of the slow circle phase,
    u in [0, 2 pi / alpha2], and the profile's v-domain.

    consts defaults to compute_constants(params); a caller passes other
    constants to build a faulty surface.  fv_method defaults to
    "analytic": every profile function has an exact jet.
    """
    if consts is None:
        consts = compute_constants(params)
    return HelixSurface(params=params, consts=consts, profile=profile,
                        u_domain=(0.0, 2.0 * math.pi / consts.alpha2),
                        v_domain=(profile.v_min, profile.v_max),
                        fv_method="analytic" if fv_method is None else fv_method)


@dataclass
class TangentData:
    """F and its differential data at the broadcast shape S of (u, v).

    F, fu, fv are (S, 4); cu, cv are the frame components of F_u and F_v
    and normal their cross product, (S, 3); gram, angle and defect are S.
    angle is arccos(|N1| / |N|), NaN wherever defect is nonzero.  For
    complex (u, v) every array but angle and defect is complex, and those
    two are read from the real parts.
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


def _family_jet(surface: HelixSurface, v, apply):
    """(A(v), F_v), the one F_v recipe of both kernels: F_v is
    apply(dA/dv) from one assemble, where dA/dv is the jets' derivative,
    or with fv_method "fd" Im A(v + i CSTEP) / CSTEP.  A complex v is a
    probe's own complex step, which fd's step cannot nest in, so it always
    takes the jets.
    """
    if surface.fv_method == "analytic" or np.iscomplexobj(v):
        A, dA = assemble(surface.profile, v, 1)
        return A, apply(dA)
    A, = assemble(surface.profile, v + 1j * CSTEP)
    # a contiguous copy: einsum sums a strided view in another order
    return np.ascontiguousarray(A.real), apply(A.imag / CSTEP)


def tangent_data(surface: HelixSurface, u, v) -> TangentData:
    """Evaluate F = A(v) beta(u), its partials and the normal data.

    u and v broadcast against each other; A is assembled on v as given
    and beta on u, so a grid passed as (us[:, None], vs[None, :]) builds
    each A(v) once, and beta and beta' share one cos/sin pass.  F_v comes
    from _family_jet.  The normal is the cross product of the frame
    components, written out as np.cross computes it.  Complex (u, v) stay
    complex.  The domain of (u, v) is not checked here; the pointwise
    views check it.
    """
    u = as_array(u)
    v = as_array(v)
    b, bu = _beta_jet(u, surface.consts, 0, 1)
    A, fv = _family_jet(surface, v, lambda D: _apply(D, b))
    F = _apply(A, b)
    fu = _apply(A, bu)
    cu = frame_components(surface.params, F, fu)
    cv = frame_components(surface.params, F, fv)
    normal = np.empty(cu.shape, np.result_type(cu, cv))
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        normal[..., k] = cu[..., i] * cv[..., j] - cu[..., j] * cv[..., i]
    gram = np.sum(fu * fu, -1) * np.sum(fv * fv, -1) - np.sum(fu * fv, -1) ** 2
    defect, angle = _classify(gram, normal[..., 0], normal[..., 1], normal[..., 2])
    return TangentData(F=F, fu=fu, fv=fv, cu=cu, cv=cv, normal=normal, gram=gram,
                       angle=angle, defect=defect)


def _classify(gram, n1, n2, n3):
    """Defect codes and angles of both kernels from the real parts of the
    Gram determinant and of the normal's frame components.

    A sample gets the first defect kind that applies; the angle
    arccos(|N1| / |N|) is NaN wherever the code is nonzero.
    """
    gram, n1, n2, n3 = gram.real, n1.real, n2.real, n3.real
    finite = np.isfinite(gram) & np.isfinite(n1) & np.isfinite(n2) & np.isfinite(n3)
    # the angle is evaluated on defective samples too and discarded there
    with np.errstate(invalid="ignore", divide="ignore"):
        defect = np.where(finite, np.where(gram < GRAM_DET_TOL, DEGENERATE, 0),
                          NON_FINITE).astype(np.int8)
        ratio = np.abs(n1) / np.sqrt(n1 * n1 + n2 * n2 + n3 * n3)   # >= 0 where it is a number
        angle = np.where(defect == 0, np.arccos(np.minimum(ratio, 1.0)), np.nan)
    return defect, angle


def _view(surface: HelixSurface, u, v, regular: bool = False) -> TangentData:
    """The kernel at (u, v) inside the surface domain; with regular, raising
    on any degenerate sample."""
    td = tangent_data(surface, *surface.check_domain(u, v))
    if regular and np.any(td.defect == DEGENERATE):
        raise DegenerateTangentPlane(
            f"Gram determinant {np.min(td.gram):.3e} below {GRAM_DET_TOL} at (u={u}, v={v})")
    return td


def position(surface: HelixSurface, u, v) -> np.ndarray:
    """F(u, v) = A(v) beta(u); u and v broadcast against each other."""
    return _view(surface, u, v).F


def partials(surface: HelixSurface, u, v):
    """(F_u, F_v) at (u, v); both tangent to the sphere at F(u, v)."""
    td = _view(surface, u, v)
    return td.fu, td.fv


def normal_components(surface: HelixSurface, u, v):
    """Frame components (N1, N2, N3) of the (unnormalized) normal.

    The cross product of the frame components of F_u and F_v is
    g-orthogonal to both.  Raises DegenerateTangentPlane when the
    euclidean Gram determinant of (F_u, F_v) falls below GRAM_DET_TOL.
    """
    n1, n2, n3 = np.moveaxis(_view(surface, u, v, regular=True).normal, -1, 0)
    return n1[()], n2[()], n3[()]


def measured_angle(surface: HelixSurface, u, v):
    """arccos(|N1| / |N|) in [0, pi/2]: the angle the unit normal makes
    with the fiber direction E1."""
    return _view(surface, u, v, regular=True).angle[()]


def first_fundamental_form(surface: HelixSurface, u, v):
    """(E, F, G) of the induced metric at (u, v), in the ambient metric."""
    td = _view(surface, u, v)
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


def grid_axes(surface: HelixSurface, nu: int, nv: int):
    """The axes (us, vs) of the uniform nu x nv grid over the surface domain."""
    if nu < 2 or nv < 2:
        raise OutOfDomain(f"grid needs nu, nv >= 2, got ({nu}, {nv})")
    return (np.linspace(surface.u_domain[0], surface.u_domain[1], nu),
            np.linspace(surface.v_domain[0], surface.v_domain[1], nv))


def sample_grid(surface: HelixSurface, nu: int, nv: int) -> SurfaceGrid:
    """Evaluate the surface on a uniform nu x nv grid.

    One tangent_data call; defective samples are recorded, not fatal.
    """
    us, vs = grid_axes(surface, nu, nv)
    td = tangent_data(surface, us[:, None], vs[None, :])
    td.normal[td.defect != 0] = np.nan
    defects = [(int(i), int(j), DEFECT_KINDS[td.defect[i, j] - 1])
               for i, j in zip(*np.nonzero(td.defect))]
    return SurfaceGrid(us=us, vs=vs, positions=td.F, fu=td.fu, fv=td.fv,
                       normals=td.normal, angles=td.angle,
                       fv_method=surface.fv_method, defects=defects)


# the ten monomials b_i b_j, i <= j, of the sweep's quadratic forms
_ROW, _COL = np.triu_indices(4)


@dataclass
class SweepData:
    """The angle sweep on an nu x nv grid, indexed [i, j] for (us[i], vs[j]).

    angle and defect are as in TangentData; fv_euclidean and fv_berger
    are |F_v|^2 in the euclidean and the Berger metric.
    """

    angle: np.ndarray
    defect: np.ndarray
    fv_euclidean: np.ndarray
    fv_berger: np.ndarray


def _sweep_forms(surface: HelixSurface, vs: np.ndarray):
    """Monomial coefficients of the sweep's nine quadratic forms in b.

    Returns C, (9, 10, nv), holding per v the coefficients of
    <F_u, J_k F> (k = 1, 2, 3), <F_v, J_k F> (k = 1, 2, 3), |F_u|^2,
    |F_v|^2 and <F_u, F_v>, with F = A b, F_u = A K b and F_v = D b; D is
    the matrix of _family_jet.  Every Q(v) is built from the assembled
    matrices, so the sweep leans on no identity of the family (orthogonality, A J1 = J1 A)
    that the family checks certify.
    """
    c = surface.consts
    A, D = _family_jet(surface, vs, lambda D: D)
    # beta' = K beta: K turns each complex coordinate of beta at its frequency
    K = np.zeros((4, 4))
    K[1, 0], K[3, 2] = c.alpha1, c.alpha2
    K -= K.T
    AK, JA = A @ K, [J @ A for J in (J1, J2, J3)]
    AKt, Dt = np.swapaxes(AK, -1, -2), np.swapaxes(D, -1, -2)
    Q = np.stack([AKt @ M for M in JA] + [Dt @ M for M in JA]
                 + [AKt @ AK, Dt @ D, AKt @ D])
    # b^T Q b = sum over i <= j of (Q + Q^T)_ij b_i b_j, halved on the diagonal
    S = (Q + np.swapaxes(Q, -1, -2))[..., _ROW, _COL]
    S[..., _ROW == _COL] *= 0.5
    return np.ascontiguousarray(np.swapaxes(S, -1, -2))


def sweep_grid(surface: HelixSurface, us, vs) -> SweepData:
    """The angle, defect code and |F_v|^2 of the surface on the grid
    us x vs, from the separable quadratic forms of _sweep_forms.

    The products run over blocks of about SWEEP_BLOCK samples (whole u
    rows), so every temporary stays small however large the grid.  Agrees
    with tangent_data(surface, us[:, None], vs[None, :]) in every defect
    code and to rounding in every value; the domain is not checked.
    """
    us = np.asarray(us, dtype=float)
    vs = np.asarray(vs, dtype=float)
    C = _sweep_forms(surface, vs)
    b = beta(us, surface.consts)
    monomials = b[:, _ROW] * b[:, _COL]
    eps = surface.params.epsilon
    out = SweepData(*(np.empty((us.size, vs.size), dtype)
                      for dtype in (float, np.int8, float, float)))
    rows = max(1, SWEEP_BLOCK // max(vs.size, 1))
    for i in range(0, us.size, rows):
        block = slice(i, i + rows)
        j1_fu, cu2, cu3, j1_fv, cv2, cv3, fuu, fvv, fuv = (monomials[block] @ Ck for Ck in C)
        cu1, cv1 = eps * j1_fu, eps * j1_fv
        out.defect[block], out.angle[block] = _classify(
            fuu * fvv - fuv ** 2,
            cu2 * cv3 - cu3 * cv2, cu3 * cv1 - cu1 * cv3, cu1 * cv2 - cu2 * cv1)
        out.fv_euclidean[block] = fvv
        out.fv_berger[block] = fvv + (eps * eps - 1.0) * j1_fv ** 2
    return out


# --------------------------------------------------------------------------
# structure probes used by the certification suite and tests
# --------------------------------------------------------------------------

def fit_phase_constant(surface: HelixSurface) -> float:
    """Fit the integration constant of the normal-rotation phase.

    The tangent field F_u expands as sin(th)[sin(th)/eps J1 F
    - cos(th) cos(phi) J2 F - cos(th) sin(phi) J3 F], so phi is read off
    the projections of F_u on J2 F and J3 F at the domain corner
    (u_min, v_min).
    """
    u, v = surface.u_domain[0], surface.v_domain[0]
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


def recover_coefficient_fields(surface: HelixSurface, v) -> np.ndarray:
    """Solve for the four vector coefficients of the trig expansion of
    F(., v) by least squares on the five samples u in {0, pi/(4 a1),
    pi/(4 a2), 1, 2}.

    Returns an array of shape v.shape + (4, 4) whose rows are the
    recovered vectors multiplying cos(a1 u), sin(a1 u), cos(a2 u),
    sin(a2 u).
    """
    a1, a2 = surface.consts.alpha1, surface.consts.alpha2
    us = np.array([0.0, math.pi / (4 * a1), math.pi / (4 * a2), 1.0, 2.0])
    v = np.asarray(v, dtype=float)
    M = np.stack([np.cos(a1 * us), np.sin(a1 * us),
                  np.cos(a2 * us), np.sin(a2 * us)], axis=-1)
    Fs = tangent_data(surface, us.reshape(us.shape + (1,) * v.ndim), v).F
    g, *_ = np.linalg.lstsq(M, Fs.reshape(us.size, -1), rcond=None)
    return np.moveaxis(g.reshape((4,) + v.shape + (4,)), 0, -2)
