"""Stereographic projection and deterministic mesh / table emission.

All text output is ASCII with LF line endings, %.17g floats and %d face
indices, so a re-export of the same data is byte-identical and every
printed value parses back to the same double.

One formatter, _fields, writes that text for a block of values in numpy,
byte for byte as Python's % would.  Its fast path covers 1e-29 <= |x| <
1e17 (and integers 1..1e17 - 1): the 17 significant digits come from a
double-double product with exact powers of ten, exact enough to certify
the rounding unless the scaled value lies within 2**-30 of a tie.  Every
value it cannot certify (zeros, NaN, infinities, values outside the range,
near-ties) is formatted by % itself.  Both exports format about
_BLOCK_VALUES values at a time, the CSV in whole grid rows.
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


# ------------------------------------------------------------ %.17g in numpy
#
# _fields lays out the text of each value in six little-endian uint64 words,
# NUL-padded: [sign, "0.000" prefix, d0, "."], four words of (digit, "." or
# NUL) pairs for d1..d16, and [exponent, NUL..., separator].  Deleting the
# NULs leaves b"%.17g" % x (or b"%d" % i).  The digits are Loitsch's plan
# ("Printing floating-point numbers quickly and accurately with integers",
# PLDI 2010): a fast path for what it can prove correct, here with Dekker's
# exact split and two-product (1971, no FMA), and % for the rest.

_U = np.uint64
_SPLIT = 134217729.0                        # 2**27 + 1
_E16, _E17 = 10 ** 16, 10 ** 17
_TIE = 2.0 ** -30                           # closer to a tie than this: fall back
_K_LO, _K_HI = -29, 17                      # decimal exponents the fast path writes
_POW10 = [10 ** q for q in range(46)]       # 10**q == _P_HI[q] + _P_LO[q] exactly
_P_HI = np.array([float(p) for p in _POW10])
_P_LO = np.array([float(p - int(h)) for p, h in zip(_POW10, _P_HI.tolist())])
_INT_POW = np.array(_POW10[:18], dtype=np.int64)


def _split(a):
    """Dekker's split: a == hi + lo exactly, each with at most 26 bits."""
    hi = a * _SPLIT
    hi -= hi - a
    return hi, a - hi


_PH_HI, _PH_LO = _split(_P_HI)


def _scaled(a, k):
    """floor(a * 10**(16 - k)) as int64 and the fraction beyond it, with an
    absolute error below 1e-14; 16 - k must lie in 0..45."""
    q = 16 - k
    ph_hi, ph_lo = _PH_HI[q], _PH_LO[q]
    p = a * _P_HI[q]
    a_hi, a_lo = _split(a)
    t = (a_hi * ph_hi - p) + a_hi * ph_lo + a_lo * ph_hi + a_lo * ph_lo + a * _P_LO[q]
    p_int = np.floor(p)
    r = p - p_int + t
    r_int = np.floor(r)
    return p_int.astype(np.int64) + r_int.astype(np.int64), r - r_int


def _float_digits(x):
    """(negative, N, k, ok): |x| rounds to N * 10**(k - 16) with N of 17
    digits wherever ok; k stays in _K_LO.._K_HI."""
    a = np.abs(x)
    ok = (a >= 1e-29) & (a < 1e17)
    np.copyto(a, 1.0, where=~ok)
    k = np.clip(np.floor(np.log10(a)), _K_LO, 16).astype(np.int64)
    n, frac = _scaled(a, k)
    # log10 can miss k by one next to a power of ten: re-derive it once
    off = (n < _E16).astype(np.int64) - (n >= _E17)
    redo = np.nonzero(off)
    if redo[0].size:
        want = k[redo] - off[redo]
        k[redo] = np.clip(want, _K_LO, 16)
        n[redo], frac[redo] = _scaled(a[redo], k[redo])
        ok[redo] &= (k[redo] == want) & (n[redo] >= _E16) & (n[redo] < _E17)
    ok &= np.abs(frac - 0.5) >= _TIE
    n += frac > 0.5
    top = n == _E17                         # 99999999999999999.5 rounds to 1e17
    n -= top * (_E17 - _E16)
    k += top
    return np.signbit(x), n, k, ok


def _int_digits(i):
    """(negative, N, k, ok) of integers, as _float_digits; ok for 1..1e17 - 1."""
    ok = (i > 0) & (i < _E17)
    i = np.where(ok, i, 1)
    k = np.searchsorted(_INT_POW, i, side="right") - 1
    return np.zeros(i.shape, bool), i * _INT_POW[16 - k], k, ok


# 4-digit chunks c = 100 a + b as (digit, ".") byte pairs, and for chunk w
# of d1..d16 the significant length of N when w is its last non-zero chunk
# (1 if c is 0).
_P = np.arange(100)
_PAIR = (_P // 10 + ord("0")) | ord(".") << 8 | (_P % 10 + ord("0")) << 16 | ord(".") << 24
_CHUNK = (_PAIR[:, None] | _PAIR << 32).astype(_U).ravel()
_PAIR_LEN = (_P > 0).astype(np.int8) + (_P % 10 > 0)     # significant digits of b
_SIG = np.where(_P > 0, 2 + _PAIR_LEN, _PAIR_LEN[:, None]).ravel()    # ... of c
_CHUNK_LEN = [np.where(_SIG > 0, _SIG + np.int8(4 * w + 1), np.int8(1)) for w in range(4)]

# Words 0-4 keyed by (k - _K_LO) * 18 + L, L the significant length of N
# (1..17): the "0.000" prefix, 0xFF over the digits d1.. kept and "." over
# the dot.  Byte 6 + 2 i holds digit d_i and byte 7 + 2 i the dot after it.
# %.17g is fixed notation for -4 <= k <= 16 (integer digits are kept, and a
# dot follows digit k when digits remain) and scientific otherwise.
_K = np.arange(_K_LO, _K_HI + 1)[:, None]
_B = np.arange(40)
_FIXED = (_K >= 0) & (_K <= 16)
_LENGTH = np.maximum(np.arange(18), np.where(_FIXED, _K + 1, 0))
_DOT_AT = np.where(_FIXED, _K, np.where((_K < 0) & (_K >= -4), 17, 0))
_DOT_AT = np.where(_LENGTH > _DOT_AT + 1, _DOT_AT, 17)       # 17: no dot


def _byte_words(table) -> np.ndarray:
    """Rows of 40 bytes as rows of 5 little-endian words."""
    return table.astype("u1").view("<u8").astype(_U)


_PREFIX = _byte_words(((_K < 0) & (_K >= -4) & (_B >= 1) & (_B <= 1 - _K))
                      * np.where(_B == 2, ord("."), ord("0")))
_KEEP = _byte_words(((_B >= 8) & (_B % 2 == 0) & ((_B - 6) // 2 < np.arange(18)[:, None])) * 0xFF)
_DOT = _byte_words(((_B % 2 == 1) & ((_B - 7) // 2 == np.arange(18)[:, None])) * ord("."))
_TABLE = (_PREFIX[:, None] | _KEEP[_LENGTH] | _DOT[_DOT_AT]).reshape(-1, 5)
_TABLE = [np.ascontiguousarray(_TABLE[:, w]) for w in range(5)]
_EXPONENT = np.frombuffer(b"".join((b"" if -4 <= k <= 16 else b"e%+03d" % k).ljust(8, b"\0")
                                   for k in range(_K_LO, _K_HI + 1)), dtype="<u8").astype(_U)
del _P, _PAIR, _PAIR_LEN, _SIG, _K, _B, _FIXED, _LENGTH, _DOT_AT, _PREFIX, _KEEP, _DOT


def _fields(values: np.ndarray, out: np.ndarray) -> None:
    """Write the text of each value, b"%.17g" % x for floats and b"%d" % i
    for integers, into out (values.shape + (6,) uint64 words), leaving the
    top byte of each field's last word zero for a separator."""
    floats = values.dtype.kind == "f"
    if floats:
        neg, n, k, ok = _float_digits(values.astype(np.float64, copy=False))
    else:
        neg, n, k, ok = _int_digits(values.astype(np.int64, copy=False))
    hi = n // 10 ** 8
    lo = n - hi * 10 ** 8
    c01, c3 = hi // 10 ** 4, lo // 10 ** 4
    d0 = c01 // 10 ** 4
    chunks = (c01 - d0 * 10 ** 4, hi - c01 * 10 ** 4, c3, lo - c3 * 10 ** 4)
    k -= _K_LO
    key = k * 18 + np.maximum(np.maximum(_CHUNK_LEN[0][chunks[0]], _CHUNK_LEN[1][chunks[1]]),
                              np.maximum(_CHUNK_LEN[2][chunks[2]], _CHUNK_LEN[3][chunks[3]]))
    out[..., 0] = _TABLE[0][key] | neg * _U(ord("-")) | (d0 + 48).astype(_U) << _U(48)
    for w, c in enumerate(chunks):
        out[..., w + 1] = _CHUNK[c] & _TABLE[w + 1][key]
    out[..., 5] = _EXPONENT[k]
    bad = np.nonzero(~ok)
    if bad[0].size:
        spec = b"%.17g" if floats else b"%d"
        text = b"".join((spec % x).ljust(40, b"\0") for x in values[bad].tolist())
        out[bad + (slice(0, 5),)] = np.frombuffer(text, dtype="<u8").reshape(-1, 5)
        out[bad + (5,)] = 0


def _text(words: np.ndarray, fields: np.ndarray, sep: bytes) -> bytes:
    """The text of words, whose fields (..., c, 6) _fields wrote: sep after
    each field of a line, LF after its last."""
    fields[..., :-1, 5] |= _U(ord(sep)) << _U(56)
    fields[..., -1, 5] |= _U(ord("\n")) << _U(56)
    return words.astype("<u8", copy=False).tobytes().translate(None, b"\0")


# Values formatted at a time.  8192 (64 KiB per temporary array) ran faster
# than 4096 or 16384 on a 251 x 251 export, and unlike 16384 kept the
# process's peak RSS where % left it.
_BLOCK_VALUES = 8192


def _obj_lines(lead: bytes, rows: np.ndarray) -> List[bytes]:
    """lead + the row's values separated by spaces, one line per row."""
    m, c = rows.shape
    step = max(1, _BLOCK_VALUES // c)
    out = []
    for start in range(0, m, step):
        block = rows[start:start + step]
        words = np.empty((len(block), 1 + 6 * c), dtype=_U)
        words[:, 0] = int.from_bytes(lead, "little")
        fields = words[:, 1:].reshape(len(block), c, 6)
        _fields(block, fields)
        out.append(_text(words, fields, b" "))
    return out


def export_obj(mesh: ProjectedMesh) -> bytes:
    """Serialize a projected mesh as OBJ text (1-based face indices)."""
    if mesh.vertices.size == 0:
        raise OutOfDomain("no vertices to export")
    faces = np.asarray(mesh.faces, dtype=np.int64).reshape(-1, 3) + 1
    return b"".join(_obj_lines(b"v ", np.asarray(mesh.vertices, dtype=float))
                    + _obj_lines(b"f ", faces))


CSV_COLUMNS = ("u", "v", "x1", "y1", "x2", "y2", "N1", "N2", "N3", "angle")


def export_csv(grid: SurfaceGrid) -> bytes:
    """Serialize a sampled grid as CSV with the fixed column order.

    Formats whole grid rows at a time, about _BLOCK_VALUES values; every u
    and v is formatted once.
    """
    nu, nv = grid.shape
    if nu == 0 or nv == 0:
        raise OutOfDomain("no samples to export")
    u_words, v_words = np.empty((nu, 6), dtype=_U), np.empty((nv, 6), dtype=_U)
    _fields(grid.us, u_words)
    _fields(grid.vs, v_words)
    step = max(1, _BLOCK_VALUES // (8 * nv))
    blocks = [",".join(CSV_COLUMNS).encode("ascii") + b"\n"]
    for start in range(0, nu, step):
        rows = slice(start, start + step)
        cols = np.concatenate([grid.positions[rows], grid.normals[rows],
                               grid.angles[rows, :, None]], axis=2)
        words = np.empty(cols.shape[:2] + (10, 6), dtype=_U)
        words[:, :, 0] = u_words[rows, None]
        words[:, :, 1] = v_words
        _fields(cols, words[:, :, 2:])
        blocks.append(_text(words, words, b","))
    return b"".join(blocks)
