"""Stereographic projection and deterministic mesh / table emission.

All text output is ASCII with LF line endings and %.17g floats, so a
re-export of the same data is byte-identical and every printed value
parses back to the same double.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .errors import OutOfDomain
from .surface import SurfaceGrid

POLE_TOL = 1e-9


def _pole_index(pole: int) -> int:
    """The 0-based coordinate of a 1-based pole axis."""
    if pole not in (1, 2, 3, 4):
        raise OutOfDomain(f"pole axis must be in 1..4, got {pole}")
    return pole - 1


def stereographic(p, pole: int = 4) -> np.ndarray:
    """Project a point of S^3 to R^3 from the pole on the given axis.

    sigma(x) = (x_i)_{i != pole} / (1 - x_pole).  pole is 1-based.
    """
    k = _pole_index(pole)
    p = np.asarray(p, dtype=float)
    denom = 1.0 - p[k]
    if abs(denom) < POLE_TOL:
        raise OutOfDomain(f"point lies within {POLE_TOL} of the projection pole")
    return np.delete(p, k) / denom


def stereographic_inverse(y, pole: int = 4) -> np.ndarray:
    """Inverse of stereographic: R^3 back to the unit 3-sphere."""
    k = _pole_index(pole)
    y = np.asarray(y, dtype=float)
    s = float(y @ y)
    return np.insert(2.0 * y / (s + 1.0), k, (s - 1.0) / (s + 1.0))


@dataclass
class ProjectedMesh:
    """Projected grid vertices plus the triangulation.

    vertices is (nu*nv, 3) in row-major grid order; faces is an
    (n_faces, 3) int64 array of 0-based vertex triples (export_obj also
    takes a list of triples).  Defect vertices (pole hits and samples whose
    position is not finite) keep a zero placeholder so indexing stays
    dense, are listed in defects as (i, j), and no face touches them.
    """

    nu: int
    nv: int
    vertices: np.ndarray
    faces: np.ndarray
    defects: List[Tuple[int, int]] = field(default_factory=list)


def project_grid(grid: SurfaceGrid, pole: int = 4) -> ProjectedMesh:
    """Stereographically project every grid sample and triangulate.

    Each quad contributes the triangles (a, c, d) and (a, d, b), quads in
    row-major order; a quad with a defect corner is dropped.
    """
    k = _pole_index(pole)
    nu, nv = grid.shape
    P = grid.positions.reshape(nu * nv, 4)
    denom = 1.0 - P[:, k]
    bad = (np.abs(denom) < POLE_TOL) | ~np.all(np.isfinite(P), axis=1)
    verts = np.zeros((nu * nv, 3))
    rest = np.delete(P, k, axis=1)
    verts[~bad] = rest[~bad] / denom[~bad, None]

    bad = bad.reshape(nu, nv)
    defects = [(int(i), int(j)) for i, j in zip(*np.nonzero(bad))]
    keep = ~(bad[:-1, :-1] | bad[1:, :-1] | bad[:-1, 1:] | bad[1:, 1:])
    a = (np.arange(nu - 1, dtype=np.int64)[:, None] * nv
         + np.arange(nv - 1, dtype=np.int64)[None, :])[keep]
    c = a + nv
    faces = np.stack([a, c, c + 1, a, c + 1, a + 1], axis=1).reshape(-1, 3)
    return ProjectedMesh(nu=nu, nv=nv, vertices=verts, faces=faces, defects=defects)


# Lines per % call in _format_lines: bounds the temporary Python floats.
_BLOCK_LINES = 1024


def _format_lines(line: bytes, rows: np.ndarray) -> List[bytes]:
    """Format each row of a 2-D array with one printf-style line template,
    one % per block of rows."""
    out = []
    for start in range(0, len(rows), _BLOCK_LINES):
        block = rows[start:start + _BLOCK_LINES]
        out.append(line * len(block) % tuple(block.ravel().tolist()))
    return out


def export_obj(mesh: ProjectedMesh) -> bytes:
    """Serialize a projected mesh as OBJ text (1-based face indices)."""
    if mesh.vertices.size == 0:
        raise OutOfDomain("no vertices to export")
    faces = np.asarray(mesh.faces, dtype=np.int64).reshape(-1, 3) + 1
    return b"".join(_format_lines(b"v %.17g %.17g %.17g\n", mesh.vertices)
                    + _format_lines(b"f %d %d %d\n", faces))


CSV_COLUMNS = ("u", "v", "x1", "y1", "x2", "y2", "N1", "N2", "N3", "angle")


def export_csv(grid: SurfaceGrid) -> bytes:
    """Serialize a sampled grid as CSV with the fixed column order.

    One block per grid row i: the row's u and every v are formatted once,
    and the 8 per-sample columns fill one template with a single %.
    """
    nu, nv = grid.shape
    if nu == 0 or nv == 0:
        raise OutOfDomain("no samples to export")
    tail = b",%.17g" * 8 + b"\n"
    # u_text.join(pieces) is the template of row i: b"u,v_j,%.17g...\n" per j
    pieces = [b""] + [b",%.17g" % v + tail for v in grid.vs.tolist()]
    cols = np.concatenate([grid.positions, grid.normals, grid.angles[..., None]], axis=2)
    blocks = [",".join(CSV_COLUMNS).encode("ascii") + b"\n"]
    for u, row in zip(grid.us.tolist(), cols.reshape(nu, nv * 8)):
        blocks.append((b"%.17g" % u).join(pieces) % tuple(row.tolist()))
    return b"".join(blocks)
