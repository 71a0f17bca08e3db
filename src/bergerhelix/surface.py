"""The torus geodesic, the mapped surface F(u, v) = A(v) beta(u), and its
differential data.

The pointwise kernel, tangent_data, evaluates F, F_u, F_v, the normal and
the Gram determinant at any (u, v) that broadcast against each other: a
point, matched arrays, or us[:, None] against vs[None, :] for a grid, where
A is built once per distinct v.  position, partials, normal_components
and measured_angle are views of it.  first_fundamental_form and the
structure probes at the end of this module read a TangentData their
caller evaluated, so that verify can evaluate all of its real point sets
in one tangent_data call.

The grid kernel, map_blocks, serves verify's angle sweep and
sample_grid (and through it the exports).  All of the u-dependence of F
sits in b = beta(u), and beta' = K b for a constant block rotation K, so
every product the normal needs is a quadratic form b^T Q(v) b: a
(rows x 10) @ (10 x nv) product over the monomials b_i b_j, i <= j, for
each block of u rows, and no (nu, nv, 4) array is built.  The blocks are
independent of each other, so map_blocks spreads them over up to
SWEEP_WORKERS threads, and hands each block's normal, cosine
|N1| / |N| and defect codes to the caller's fn inside the thread that
computed it: verify reduces each block there and takes arccos only where
it needs an angle, and sweep_grid writes each block, its cosines as
angles, into preallocated whole-grid arrays.  A worker computes every
block it takes in the same ten float buffers and one int8 buffer, so a
block is valid only during its fn call.  sample_grid takes its normals,
angles and defect codes from sweep_grid, and its positions from the
einsum of tangent_data, so they equal tangent_data's F bit for bit.

F_v is dA/dv beta(u) from the profile jets, or with fv_method "fd" from a
complex step of A's value code.  tangent_data keeps complex (u, v) complex.

Samples a kernel cannot use carry one of two defect kinds, by one rule
for both kernels: non_finite (some value is NaN or infinite) and
degenerate_tangent_plane (the Gram determinant of (F_u, F_v) is below
GRAM_DET_TOL).  A healthy set of samples, the usual case, is recognised by
its extremes (a finite largest |N|^2 and Gram determinant, a large enough
smallest one) and skips the per-sample masks.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .ambient import J1, J2, J3, BergerParams, frame_components
from .constants import HelixConstants, compute_constants, phi_field
from .errors import DegenerateTangentPlane, OutOfDomain, as_array, check_grid_size, check_range
from .family import XiProfile, assemble

GRAM_DET_TOL = 1e-12
# complex step: f'(x) = Im f(x + i CSTEP) / CSTEP has no subtraction, so it
# is exact to rounding, and CSTEP^2 vanishes beside any double
CSTEP = 1e-200
SWEEP_BLOCK = 1 << 15    # grid samples per block of u rows in map_blocks
# the most workers map_blocks uses: the count whose gain was measured (on two
# CPUs); each worker holds 10 floats per sample of a block, 2.6 MB
SWEEP_WORKERS = 2

# defect codes of TangentData.defect: 0 marks a usable sample, code k + 1 the
# kind DEFECT_KINDS[k]; a sample gets the first kind that applies
DEFECT_KINDS = ("non_finite", "degenerate_tangent_plane")
NON_FINITE, DEGENERATE = 1, 2


def beta(u, consts: HelixConstants) -> np.ndarray:
    """The torus geodesic (sqrt(g11) e^{i alpha1 u}, sqrt(g33) e^{i alpha2 u}).

    Accepts scalar or array u; output shape is u.shape + (4,).  Lies on
    the unit sphere because g11 + g33 = 1.
    """
    return _beta_jet(u, consts, 0)[0]


def _beta_jet(u, consts: HelixConstants, *orders: int) -> List[np.ndarray]:
    """The exact u-derivative of beta of each order in orders (0..4), from
    one cos/sin pass: each derivative scales by the frequency and permutes
    (cos, sin) -> (-sin, cos) without phase arithmetic, so exact zeros stay
    exact.  Complex u stays complex."""
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

    u and v broadcast against each other; A is assembled once per
    distinct v (by bit pattern, so -0.0 and 0.0 stay apart) and gathered,
    so a grid passed as (us[:, None], vs[None, :]) or a point set that
    repeats its v builds each A(v) once, and beta and beta' share one
    cos/sin pass.  F_v comes from _family_jet.  The normal is the cross
    product of the frame components, written out as np.cross computes it.
    Complex (u, v) stay complex.  The domain of (u, v) is not checked here;
    the pointwise views check it.
    """
    u = as_array(u)
    v = as_array(v)
    b, bu = _beta_jet(u, surface.consts, 0, 1)
    flat = v.reshape(-1)
    # int64 keys sort faster than the bytes of a void view, which complex v needs
    bits = flat.view(np.int64 if flat.dtype == np.float64 else f"V{flat.itemsize}")
    _, first, back = np.unique(bits, return_index=True, return_inverse=True)
    back = back.reshape(v.shape)
    A, fv = _family_jet(surface, flat[first], lambda D: _apply(D[back], b))
    A = A[back]
    return _tangent_tail(surface, _apply(A, b), _apply(A, bu), fv)


def _tangent_tail(surface: HelixSurface, F, fu, fv) -> TangentData:
    """The TangentData of F and its partials fu, fv: their frame
    components, the normal, the Gram determinant, _classify's codes and the
    angles of its cosines.  tangent_data and verify's complex-step jet both
    end here."""
    cu = frame_components(surface.params, F, fu)
    cv = frame_components(surface.params, F, fv)
    normal = np.empty(cu.shape, np.result_type(cu, cv))
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        normal[..., k] = cu[..., i] * cv[..., j] - cu[..., j] * cv[..., i]
    # ufuncs: a point's sums are numpy scalars, whose own arithmetic rounds
    # a complex square unlike the array loops
    fuv = np.sum(fu * fv, -1)
    gram = np.subtract(np.multiply(np.sum(fu * fu, -1), np.sum(fv * fv, -1)),
                       np.multiply(fuv, fuv))
    defect, cosine = _classify(gram, normal[..., 0], normal[..., 1], normal[..., 2])
    return TangentData(F=F, fu=fu, fv=fv, cu=cu, cv=cv, normal=normal, gram=gram,
                       angle=_angles(cosine, cosine), defect=defect)


def _classify(gram, n1, n2, n3, out=None):
    """Defect codes and cosines |N1| / |N| of both kernels from the real
    parts of the Gram determinant and of the normal's frame components.

    A sample gets the first defect kind that applies; its cosine is NaN
    wherever the code is nonzero.  out, if given, is (defect, cosine, work):
    an int8 and two float arrays of the samples' shape.  A healthy set of
    samples, every |N|^2 finite and every Gram determinant finite and at
    least GRAM_DET_TOL, is told apart by its extremes and gets zero codes
    without per-sample masks.
    """
    gram, n1, n2, n3 = gram.real, n1.real, n2.real, n3.real
    if out is None:
        out = np.empty(gram.shape, np.int8), np.empty(gram.shape), np.empty(gram.shape)
    defect, cosine, work = out
    # the cosine is evaluated on defective samples too and overwritten there
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        np.multiply(n1, n1, out=cosine)
        cosine += np.multiply(n2, n2, out=work)
        cosine += np.multiply(n3, n3, out=work)       # |N|^2
        # a NaN extreme fails its comparison
        healthy = (np.max(cosine, initial=-math.inf) < math.inf
                   and np.min(gram, initial=math.inf) >= GRAM_DET_TOL
                   and np.max(gram, initial=-math.inf) < math.inf)
        if healthy:
            defect.fill(0)
        else:
            finite = np.isfinite(gram) & np.isfinite(n1) & np.isfinite(n2) & np.isfinite(n3)
            defect[...] = np.where(finite, np.where(gram < GRAM_DET_TOL, DEGENERATE, 0),
                                   NON_FINITE)
        np.divide(np.abs(n1, out=work), np.sqrt(cosine, out=cosine), out=cosine)
    if not healthy:
        cosine[defect != 0] = np.nan
    return defect, cosine


def _angles(cosine, out=None):
    """arccos(min(cosine, 1)), non-increasing in the cosine, into out if
    given (cosine itself may be out); NaN where the cosine is NaN, written
    after numpy's arccos, which may flip the sign of a NaN."""
    angle = np.arccos(np.minimum(cosine, 1.0, out=out), out=out)
    if math.isnan(np.max(angle, initial=0.0)):
        angle[np.isnan(angle)] = np.nan
    return angle


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


def first_fundamental_form(surface: HelixSurface, td: TangentData):
    """(E, F, G) of the induced metric, in the ambient metric, at the
    points of td, the tangent_data there."""
    eps = surface.params.epsilon
    j1F = td.F @ J1.T

    def g(X, Y):
        return (_dot(X, Y) + (eps * eps - 1.0) * _dot(X, j1F) * _dot(Y, j1F))[()]

    return g(td.fu, td.fu), g(td.fu, td.fv), g(td.fv, td.fv)


@dataclass
class SurfaceGrid:
    """Uniform samples of a surface: positions, normals and angles.

    Arrays are indexed [i, j] for (us[i], vs[j]).  Samples the kernel
    cannot use (see DEFECT_KINDS) are listed in defects and carry NaN
    normals and angles.
    """

    us: np.ndarray
    vs: np.ndarray
    positions: np.ndarray          # (nu, nv, 4)
    normals: np.ndarray            # (nu, nv, 3) frame components
    angles: np.ndarray             # (nu, nv)
    fv_method: str
    defects: List[Tuple[int, int, str]] = field(default_factory=list)

    @property
    def shape(self):
        return self.positions.shape[:2]


def grid_axes(surface: HelixSurface, nu: int, nv: int):
    """The axes (us, vs) of the uniform nu x nv grid over the surface domain."""
    check_grid_size(nu, nv, OutOfDomain)
    return (np.linspace(surface.u_domain[0], surface.u_domain[1], nu),
            np.linspace(surface.v_domain[0], surface.v_domain[1], nv))


def sample_grid(surface: HelixSurface, nu: int, nv: int) -> SurfaceGrid:
    """Evaluate the surface on a uniform nu x nv grid.

    The normals (its own array), angles and defect codes are those of
    sweep_grid.  The positions A(v) beta(u) are tangent_data's, by the
    same einsum, so they equal its F bit for bit.  One _family_jet serves
    both, so the profile is assembled once.  Defective samples are
    recorded, not fatal.
    """
    us, vs = grid_axes(surface, nu, nv)
    jet = _family_jet(surface, vs, lambda D: D)
    positions = _apply(jet[0], beta(us, surface.consts)[:, None])
    sweep = sweep_grid(surface, us, vs, jet)
    normals = sweep.normals
    normals[sweep.defect != 0] = np.nan
    defects = [(int(i), int(j), DEFECT_KINDS[sweep.defect[i, j] - 1])
               for i, j in zip(*np.nonzero(sweep.defect))]
    return SurfaceGrid(us=us, vs=vs, positions=positions, normals=normals,
                       angles=sweep.angle, fv_method=surface.fv_method, defects=defects)


# the ten monomials b_i b_j, i <= j, of the sweep's quadratic forms
_ROW, _COL = np.triu_indices(4)


@dataclass
class SweepBlock:
    """One block of map_blocks: u rows start, start + 1, ... of the grid,
    indexed [i, j] for (us[start + i], vs[j]).

    defect is as in TangentData, n1, n2, n3 are the frame components of
    its normal and cosine is |N1| / |N| (NaN wherever defect is nonzero).
    """

    defect: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    n3: np.ndarray
    cosine: np.ndarray


@dataclass
class SweepData:
    """The separable kernel on a whole nu x nv grid, indexed [i, j] for
    (us[i], vs[j]): defect as in TangentData, the frame components of the
    normal in normals[i, j] and the measured angle (NaN wherever defect
    is nonzero)."""

    defect: np.ndarray
    normals: np.ndarray     # (nu, nv, 3)
    angle: np.ndarray


def _sweep_forms(surface: HelixSurface, vs: np.ndarray, jet=None):
    """Monomial coefficients of the sweep's nine quadratic forms in b.

    Returns C, (9, 10, nv), holding per v the coefficients of
    <F_u, J_k F> (k = 1, 2, 3), <F_v, J_k F> (k = 1, 2, 3), |F_u|^2,
    |F_v|^2 and <F_u, F_v>, with F = A b, F_u = A K b and F_v = D b.
    jet is (A, D), _family_jet on vs with D its matrix, assembled here if
    not given.  Every Q(v) is built from the assembled matrices, so the
    sweep leans on no identity of the family (orthogonality, A J1 = J1 A)
    that the family checks certify.
    """
    c = surface.consts
    A, D = _family_jet(surface, vs, lambda D: D) if jet is None else jet
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


def _products_minus(a, b, c, d, out, work):
    """a * b - c * d into out, with work for c * d."""
    np.multiply(a, b, out=out)
    return np.subtract(out, np.multiply(c, d, out=work), out=out)


def _block_rows(nv: int) -> int:
    """The u rows of a block of map_blocks on nv columns."""
    return max(1, SWEEP_BLOCK // max(nv, 1))


def _workers() -> int:
    """The most threads map_blocks uses: SWEEP_WORKERS, or the CPUs this
    process may run on where they are fewer."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return min(SWEEP_WORKERS, cpus)


def map_blocks(surface: HelixSurface, us, vs, fn: Callable[[SweepBlock, int], object],
               jet=None) -> list:
    """[fn(block, start), ...] over the blocks of whole u rows of the grid
    us x vs, in block order, where block is a SweepBlock of the cosine
    |N1| / |N|, defect code and normal of rows start, start + 1, ... from
    the separable quadratic forms of _sweep_forms (given jet).

    A block holds about SWEEP_BLOCK samples.  The blocks go to
    W = min(_workers(), blocks) workers: the calling thread and W - 1
    threads, each taking the next block index from one shared iterator,
    and a single block runs in the calling thread alone.  fn runs in the
    worker that computed the block, so it must call no traced (public)
    function of the package.  The buffers are allocated here, in the
    calling thread: per worker one (9, rows, nv) product buffer, one work
    buffer and one int8 defect buffer, 10 floats per sample of a block, in
    which the worker computes every block it takes.  A block is therefore
    valid only during its fn call; fn returns copies of what it keeps.
    Every block is computed by the same operations whichever worker takes
    it, so the results do not depend on W.  An exception in any worker
    stops the others taking blocks and reaches the caller once every
    thread has ended.  Agrees with tangent_data(surface, us[:, None],
    vs[None, :]) in every defect code and to rounding in every value; the
    domain is not checked.
    """
    us = np.asarray(us, dtype=float)
    vs = np.asarray(vs, dtype=float)
    C = _sweep_forms(surface, vs, jet)
    b = beta(us, surface.consts)
    monomials = b[:, _ROW] * b[:, _COL]
    eps = surface.params.epsilon
    rows = _block_rows(vs.size)
    n = -(-us.size // rows)
    workers = min(_workers(), n)
    shape = (min(rows, us.size), vs.size)
    products = np.empty((workers, 9) + shape)
    work = np.empty((workers,) + shape)
    defect = np.empty((workers,) + shape, np.int8)
    out = [None] * n
    blocks = iter(range(n))
    errors = []

    def worker(w):
        try:
            for k in blocks:
                if errors:
                    break
                start = k * rows
                m = monomials[start:start + rows]
                r = m.shape[0]
                P = np.matmul(m, C, out=products[w, :, :r])
                j1_fu, cu2, cu3, j1_fv, cv2, cv3, fuu, fvv, fuv = P
                # eps j1, fuu fvv - fuv^2 and the cross product of the frame
                # components, each operation in the order of these formulas;
                # the slots of fvv, fuv and cu3 then take N1, N2 and N3, and
                # that of cu1 the cosine
                wk = work[w, :r]
                cu1, cv1 = np.multiply(eps, j1_fu, out=j1_fu), np.multiply(eps, j1_fv, out=j1_fv)
                gram = _products_minus(fuu, fvv, fuv, fuv, fuu, wk)
                N1 = _products_minus(cu2, cv3, cu3, cv2, fvv, wk)
                N2 = _products_minus(cu3, cv1, cu1, cv3, fuv, wk)
                N3 = _products_minus(cu1, cv2, cu2, cv1, cu3, wk)
                codes, cosines = _classify(gram, N1, N2, N3, (defect[w, :r], cu1, wk))
                out[k] = fn(SweepBlock(defect=codes, n1=N1, n2=N2, n3=N3, cosine=cosines), start)
        except BaseException as exc:    # re-raised in the calling thread
            errors.append(exc)

    threads = []
    try:
        for w in range(1, workers):
            t = threading.Thread(target=worker, args=(w,))
            t.start()
            threads.append(t)
        worker(0)
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    return out


def sweep_grid(surface: HelixSurface, us, vs, jet=None) -> SweepData:
    """The blocks of map_blocks written into whole (nu, nv) arrays, each
    block's cosines as angles and its normal into one (nu, nv, 3) array."""
    shape = (np.size(us), np.size(vs))
    # angle first: allocated last, it left glibc's heap to fault in about 600
    # more pages per 251 x 251 sample_grid
    angle, defect, normals = np.empty(shape), np.empty(shape, np.int8), np.empty(shape + (3,))

    def write(block, start):
        rows = slice(start, start + block.defect.shape[0])
        defect[rows] = block.defect
        for k, n in enumerate((block.n1, block.n2, block.n3)):
            normals[rows, :, k] = n
        _angles(block.cosine, angle[rows])

    map_blocks(surface, us, vs, write, jet)
    return SweepData(defect=defect, normals=normals, angle=angle)


# --------------------------------------------------------------------------
# structure probes used by the certification suite and tests
# --------------------------------------------------------------------------

def fit_phase_constant(surface: HelixSurface, td: TangentData) -> float:
    """Fit the integration constant of the normal-rotation phase.

    The tangent field F_u expands as sin(th)[sin(th)/eps J1 F
    - cos(th) cos(phi) J2 F - cos(th) sin(phi) J3 F], so phi is read off
    the projections of F_u on J2 F and J3 F at the domain corner
    (u_min, v_min); td is the tangent_data there.
    """
    u = surface.u_domain[0]
    p2, p3 = float(td.fu @ (J2 @ td.F)), float(td.fu @ (J3 @ td.F))
    return math.atan2(-p3, -p2) - float(phi_field(u, surface.consts, surface.params))


def first_order_system_residual(surface: HelixSurface, u, td: TangentData, c: float):
    """Max componentwise residual of the first-order position system,
    per point of td, the tangent_data at points whose u-coordinates u
    broadcast to td's shape.

    With phi(u) = -2 B u / eps + c the system reads
    F_u = sin(th)[sin(th)/eps J1 F - cos(th) cos(phi) J2 F
    - cos(th) sin(phi) J3 F].
    """
    th = surface.params.theta
    eps = surface.params.epsilon
    F = td.F
    phi = phi_field(np.asarray(u, dtype=float), surface.consts, surface.params, c)[..., None]
    rhs = math.sin(th) * (
        math.sin(th) / eps * (F @ J1.T)
        - math.cos(th) * np.cos(phi) * (F @ J2.T)
        - math.cos(th) * np.sin(phi) * (F @ J3.T)
    )
    return np.max(np.abs(td.fu - rhs), axis=-1)[()]


def _coefficient_samples(consts: HelixConstants) -> np.ndarray:
    """The five u of recover_coefficient_fields: 0, pi/(4 a1), pi/(4 a2),
    1 and 2."""
    return np.array([0.0, math.pi / (4 * consts.alpha1), math.pi / (4 * consts.alpha2), 1.0, 2.0])


def recover_coefficient_fields(surface: HelixSurface, td: TangentData) -> np.ndarray:
    """The four vector coefficients of the trig expansion of F(., v), by
    least squares on the five samples of _coefficient_samples.  Their Gram
    matrix is D A^T A D, D^2 = diag(g11, g11, g33, g33): verify checks A.

    td is tangent_data at (us, v), us.reshape(us.shape + (1,) * v.ndim)
    with us the five samples.  Returns shape v.shape + (4, 4), rows the
    vectors multiplying cos(a1 u), sin(a1 u), cos(a2 u), sin(a2 u).
    """
    a1, a2 = surface.consts.alpha1, surface.consts.alpha2
    us = _coefficient_samples(surface.consts)
    M = np.stack([np.cos(a1 * us), np.sin(a1 * us),
                  np.cos(a2 * us), np.sin(a2 * us)], axis=-1)
    shape = td.F.shape[1:-1]
    g, *_ = np.linalg.lstsq(M, td.F.reshape(us.size, -1), rcond=None)
    return np.moveaxis(g.reshape((4,) + shape + (4,)), 0, -2)
