"""Stereographic projection and deterministic mesh / table emission.

All text output is ASCII with LF line endings, %.17g floats and %d face
indices, so a re-export of the same data is byte-identical and every
printed value parses back to the same double.

Numpy writes that text, byte for byte as Python's % would.  The floats go
through _fields, whose fast path covers 1e-29 <= |x| < 1e17: the 17
significant digits come from a double-double product with exact powers of
ten, exact enough to certify the rounding unless the scaled value lies
within 2**-30 of a tie.  Every value it cannot certify (zeros, NaN,
infinities, values outside the range, near-ties) is formatted by % itself.
Each value's text, the separator before it first, is laid out as one run
of bytes in four NUL-padded uint64 words, its digits packed side by side
(the dot of a fixed-notation value with |x| >= 10 among them), and a numpy
mask over the words' bytes drops the padding; the mask compacts one run a
field about twice as fast as the same bytes in three or four runs.  A line
starts with the LF that ends the line before it.  The face indices of
export_obj are formatted once per vertex: the text " 1".." n" is built once
per call and gathered for every face, and an index outside the mesh is
refused.  Both exports format about _BLOCK_VALUES values at a time, the CSV
in whole grid rows, on the sweep's workers (surface._run_blocks): numpy
formats and compacts a block mostly without holding the GIL, so two blocks
overlap.  Each block's text, a uint8 array, joins the output in block
order, so the bytes do not depend on the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Tuple

import numpy as np

from . import surface
from .errors import OutOfDomain
from .surface import SurfaceGrid

POLE_TOL = 1e-9


def _pole_index(pole: int) -> int:
    """The 0-based coordinate of a 1-based pole axis, an int or numpy
    integer (not a bool) in 1..4."""
    if isinstance(pole, bool) or not isinstance(pole, (int, np.integer)) or not 1 <= pole <= 4:
        raise OutOfDomain(f"pole axis must be an integer in 1..4, got {pole!r}")
    return int(pole) - 1


@dataclass
class ProjectedMesh:
    """Projected grid vertices plus the triangulation.

    vertices is (nu*nv, 3) in row-major grid order; faces is an
    (n_faces, 3) int64 array of 0-based vertex triples (export_obj also
    takes a list of triples).  Defect vertices (pole hits and samples whose
    position is not finite) keep a zero placeholder so indexing stays
    dense, are listed in defects as (i, j), and no face touches them.
    """

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
    np.divide(np.delete(P, k, axis=1), denom[:, None], out=verts, where=~bad[:, None])

    bad = bad.reshape(nu, nv)
    defects = [(int(i), int(j)) for i, j in zip(*np.nonzero(bad))]
    keep = ~(bad[:-1, :-1] | bad[1:, :-1] | bad[:-1, 1:] | bad[1:, 1:])
    a = (np.arange(nu - 1, dtype=np.int64)[:, None] * nv
         + np.arange(nv - 1, dtype=np.int64)[None, :])[keep]
    c = a + nv
    faces = np.stack([a, c, c + 1, a, c + 1, a + 1], axis=1).reshape(-1, 3)
    return ProjectedMesh(vertices=verts, faces=faces, defects=defects)


# ------------------------------------------------------------ %.17g in numpy
#
# _fields lays out the text of each value, its separator first, in _WORDS = 4
# little-endian uint64 words, NUL-padded so that the text is one run of
# bytes, which the mask of _text compacts fastest.  Word 0 ends at byte 7
# with [separator, sign, "0.000" prefix, d0, "."]: d0 at byte 6 when a dot
# follows it, at byte 7 otherwise.  Words 1-2 hold the digits d1..d16 side by
# side, byte 7 + i holding d_i, and word 3 the exponent.  Where fixed
# notation puts the dot after a digit d_k, 1 <= k <= 15, the digits after d_k
# move one byte right behind the dot and d16 spills into word 3, which fixed
# notation leaves empty.  Only a scientific value of fewer than 17 digits
# breaks the run, before its exponent.  Deleting the NULs leaves
# sep + b"%.17g" % x.  The digits are Loitsch's plan ("Printing
# floating-point numbers quickly and accurately with integers", PLDI 2010): a
# fast path for what it can prove correct, here with Dekker's exact split and
# two-product (1971, no FMA), and % for the rest.  The arithmetic reuses its
# temporaries, each operation with the operands and the order of the formula.

_U = np.uint64
_SPLIT = 134217729.0                        # 2**27 + 1
_E16, _E17 = 10 ** 16, 10 ** 17
_TIE = 2.0 ** -30                           # closer to a tie than this: fall back
_K_LO, _K_HI = -29, 17                      # decimal exponents the fast path writes
_POW10 = [10 ** q for q in range(46)]       # 10**q == _P_HI[q] + _P_LO[q] exactly
_P_HI = np.array([float(p) for p in _POW10])
_P_LO = np.array([float(p - int(h)) for p, h in zip(_POW10, _P_HI.tolist())])


def _split(a):
    """Dekker's split: a == hi + lo exactly, each with at most 26 bits."""
    hi = a * _SPLIT
    lo = hi - a
    hi -= lo
    np.subtract(a, hi, out=lo)
    return hi, lo


_PH_HI, _PH_LO = _split(_P_HI)


def _scaled(a, k):
    """floor(a * 10**(16 - k)) as int64 and the fraction beyond it, with an
    absolute error below 1e-14; 16 - k must lie in 0..45."""
    q = 16 - k
    p = _P_HI.take(q)
    p *= a
    a_hi, a_lo = _split(a)
    ph_hi, ph_lo = _PH_HI.take(q), _PH_LO.take(q)
    # t = (a_hi ph_hi - p) + a_hi ph_lo + a_lo ph_hi + a_lo ph_lo + a p_lo,
    # each product made in the place of an operand that is no longer needed
    t = a_hi * ph_hi
    t -= p
    for product, factor in ((a_hi, ph_lo), (ph_hi, a_lo), (ph_lo, a_lo), (_P_LO.take(q), a)):
        product *= factor
        t += product
    p_int = np.floor(p)
    p -= p_int
    p += t                                  # r = p - p_int + t
    r_int = np.floor(p, out=t)
    p -= r_int
    n = p_int.astype(np.int64)
    n += r_int.astype(np.int64)
    return n, p


def _float_digits(x):
    """(negative, N, k, ok): |x| rounds to N * 10**(k - 16) with N of 17
    digits wherever ok; k stays in _K_LO.._K_HI."""
    a = np.abs(x)
    ok = a >= 1e-29
    ok &= a < 1e17
    np.copyto(a, 1.0, where=~ok)
    k = np.log10(a)
    np.floor(k, out=k)
    k = np.clip(k, _K_LO, 16, out=k).astype(np.int64)
    n, frac = _scaled(a, k)
    # log10 can miss k by one next to a power of ten: re-derive it once
    if n.min(initial=_E16) < _E16 or n.max(initial=0) >= _E17:
        off = (n < _E16).astype(np.int64) - (n >= _E17)
        redo = np.nonzero(off)
        want = k[redo] - off[redo]
        k[redo] = np.clip(want, _K_LO, 16)
        n[redo], frac[redo] = _scaled(a[redo], k[redo])
        ok[redo] &= (k[redo] == want) & (n[redo] >= _E16) & (n[redo] < _E17)
    up = frac > 0.5
    frac -= 0.5
    ok &= np.abs(frac, out=frac) >= _TIE
    n += up
    top = n == _E17                         # 99999999999999999.5 rounds to 1e17
    n -= top * (_E17 - _E16)
    k += top
    return np.signbit(x), n, k, ok


_WORDS = 4

# 4-digit chunks c as ASCII in the low and in the high half of a word, and
# for chunk w of d1..d16 the significant length of N when w is its last
# non-zero chunk (1 if c is 0).  The chunks 0..9999 are the choices of four
# digits in order, so each table is a broadcast over one axis per digit.
_DIGIT = np.arange(10, dtype=_U)
_QUAD_LO = (_DIGIT[:, None, None, None] | _DIGIT[:, None, None] << _U(8)
            | _DIGIT[:, None] << _U(16) | _DIGIT << _U(24)).ravel() + _U(0x30303030)
_QUAD_HI = _QUAD_LO << _U(32)
_NZ = (_DIGIT > 0).astype(np.int8)
_SIG = np.maximum(np.maximum(_NZ[:, None, None, None], 2 * _NZ[:, None, None]),
                  np.maximum(3 * _NZ[:, None], 4 * _NZ)).ravel()
_CHUNK_LEN = [np.where(_SIG > 0, _SIG + (4 * w + 1), 1).astype(np.int8) for w in range(4)]

# Tables keyed by ((k - _K_LO) * 2 + negative) * 18 + L, L the significant
# length of N (1..17).  %.17g is fixed notation for -4 <= k <= 16 (integer
# digits are kept, and a dot follows digit k when digits remain) and
# scientific otherwise.  _HEAD is word 0 but for the separator, at the place
# value _SEP_AT, and d0, _D0_SHIFT bits up; _DIGITS keeps the digit bytes of
# words 1-2.  _DOT_IN_DIGITS is the k of a dot after d_k, 1 <= k <= 15, else
# 0; _LOW and _POINT, indexed by that k, mask the digit bytes before the dot
# and place the dot in words 1-2.
_K = np.arange(_K_LO, _K_HI + 1)[:, None, None]
_NEG = np.arange(2)[:, None]
_FIXED = (_K >= 0) & (_K <= 16)
_LENGTH = np.maximum(np.arange(18), np.where(_FIXED, _K + 1, 0)) + 0 * _NEG   # both signs
_DOT_AT = np.where(_FIXED, _K, np.where((_K < 0) & (_K >= -4), 17, 0))
_DOT_AT = np.where(_LENGTH > _DOT_AT + 1, _DOT_AT, 17)       # 17: no dot
_ZEROS = np.where((_K < 0) & (_K >= -4), 1 - _K, 0)         # len("0.000")
_D0 = 7 - (_DOT_AT == 0)                                     # d0's byte
_SEP = _D0 - _ZEROS - _NEG - 1                               # the separator's byte
_HEAD = (np.array([int.from_bytes(b"0.000"[:z].rjust(7, b"\0"), "little")
                   for z in _ZEROS.ravel().tolist()], dtype=_U)[:, None, None]
         | (_NEG > 0) * (_U(ord("-")) << (8 * _SEP + 8).astype(_U))
         | (_DOT_AT == 0) * _U(ord(".") << 56)).ravel()
_SEP_AT = (_U(1) << (8 * _SEP).astype(_U)).ravel()
_D0_SHIFT = (8 * _D0).astype(_U).ravel()
_FILL = np.array([(1 << 8 * i) - 1 for i in range(9)], dtype=_U)   # the low i bytes
_BELOW = _FILL[np.clip(np.arange(17)[:, None] - [0, 8], 0, 8)]      # bytes 0..i-1 of 16
_DIGITS = [_BELOW[_LENGTH - 1, w].ravel() for w in (0, 1)]
_DOT_IN_DIGITS = np.where(_DOT_AT <= 15, _DOT_AT, 0).astype(np.int8).ravel()
_LOW = _BELOW[:16]
_POINT = (_BELOW[1:] ^ _LOW) & _U(int.from_bytes(b"." * 8, "little"))
_EXPONENT = np.frombuffer(b"".join((b"" if -4 <= k <= 16 else b"e%+03d" % k).ljust(8, b"\0")
                                   for k in range(_K_LO, _K_HI + 1)), dtype="<u8").astype(_U)
del _DIGIT, _NZ, _SIG, _K, _NEG, _FIXED, _LENGTH, _DOT_AT, _ZEROS, _D0, _SEP, _FILL, _BELOW


def _printf(values: np.ndarray, sep: bytes) -> np.ndarray:
    """sep + b"%.17g" % x of each value as a row of _WORDS words, NUL-padded:
    the values the fast path cannot certify."""
    text = b"".join((sep + b"%.17g" % x).ljust(8 * _WORDS, b"\0") for x in values.tolist())
    return np.frombuffer(text, dtype="<u8").reshape(-1, _WORDS)


def _fields(values: np.ndarray, out: np.ndarray, sep: bytes) -> None:
    """Write sep + b"%.17g" % x of each float value into out (values.shape +
    (_WORDS,) uint64 words); sep is one byte."""
    neg, n, k, ok = _float_digits(values.astype(np.float64, copy=False))
    # N is d0 and the 4-digit chunks c0..c3; // by a constant is faster
    # than np.divmod
    c1 = n // 10 ** 8
    n -= c1 * 10 ** 8
    c0 = c1 // 10 ** 4
    c1 -= c0 * 10 ** 4
    c2 = n // 10 ** 4
    n -= c2 * 10 ** 4
    d0 = c0 // 10 ** 4
    c0 -= d0 * 10 ** 4
    chunks = (c0, c1, c2, n)
    k -= _K_LO
    key = k * 2
    key += neg
    key *= 18
    length = np.maximum(_CHUNK_LEN[0].take(c0), _CHUNK_LEN[1].take(c1))
    for w in (2, 3):
        np.maximum(length, _CHUNK_LEN[w].take(chunks[w]), out=length)
    key += length
    d0 += ord("0")
    d0 = d0.view(_U)
    d0 <<= _D0_SHIFT.take(key)
    np.bitwise_or(d0, (_HEAD | _SEP_AT * _U(sep[0])).take(key), out=out[..., 0])
    for w in (1, 2):
        digits = _QUAD_LO.take(chunks[2 * w - 2])
        digits |= _QUAD_HI.take(chunks[2 * w - 1])
        np.bitwise_and(digits, _DIGITS[w - 1].take(key), out=out[..., w])
    out[..., 3] = _EXPONENT.take(k)
    if k.max(initial=0) > -_K_LO:           # some |x| >= 10: a dot among the digits?
        dot = _DOT_IN_DIGITS.take(key)
        at = np.nonzero(dot)
        dot = dot[at]
        digits = out[at + (slice(1, 3),)]
        low = _LOW[dot]
        moved = digits & ~low
        digits = digits & low | moved << _U(8) | _POINT[dot]
        digits[:, 1] |= moved[:, 0] >> _U(56)
        out[at + (slice(1, 3),)] = digits
        out[at + (3,)] = moved[:, 1] >> _U(56)
    if not ok.all():
        bad = np.nonzero(~ok)
        out[bad] = _printf(values[bad], sep)


def _text(words: np.ndarray) -> np.ndarray:
    """The text of NUL-padded words as uint8.  The NULs are dropped by a
    mask, which numpy compacts without holding the GIL."""
    flat = words.astype("<u8", copy=False).view(np.uint8).reshape(-1)
    return flat[flat != 0]


def _index_words(n: int, n_words: int) -> np.ndarray:
    """b" %d" % i of i = 0..n in row i of n_words little-endian uint64
    words: the text left-aligned, then NUL padding.  The values of one
    digit count are a run of rows, and each digit place of a run is one
    column."""
    text = np.zeros((n + 1, 8 * n_words), dtype=np.uint8)
    text[:, 0] = ord(" ")
    text[0, 1] = ord("0")
    for d in range(1, len(str(n)) + 1):
        run = slice(10 ** (d - 1), min(10 ** d, n + 1))
        q = np.arange(run.start, run.stop)
        for pos in range(d, 0, -1):
            next_q = q // 10
            text[run, pos] = q - next_q * 10 + ord("0")
            q = next_q
    return text.view("<u8").astype(_U, copy=False)


# Values formatted at a time: 192 KiB per temporary array, 768 KiB of words.
# On two workers, mesh_export (251 x 251) ran 4% faster than at 12288, for
# 3 MB more peak RSS: the other worker's heap keeps one block's temporaries,
# 5.2 MB here against 2.9 MB at 12288.
_BLOCK_VALUES = 24576


def _map_rows(task: Callable[[slice], np.ndarray], m: int, step: int) -> List[np.ndarray]:
    """[task(rows), ...] over the slices of step rows of 0..m - 1, in row
    order, on the sweep's workers (surface._run_blocks).

    The calling thread copies each text another worker formatted, between
    its own blocks: an allocator such as glibc's keeps what a thread
    allocated in that thread's own heap, where half the output would
    otherwise stay resident after the call, unusable by the calling thread.
    """
    n = -(-m // step)
    texts, pending = [None] * n, []

    def run(w, k):
        text = task(slice(k * step, (k + 1) * step))
        if w:
            pending.append((k, text))
            return
        texts[k] = text
        while pending:                  # only this thread pops
            j, other = pending.pop()
            texts[j] = other.copy()

    surface._run_blocks(run, n, min(surface._workers(), n))
    for j, other in pending:
        texts[j] = other.copy()
    return texts


# Each OBJ line starts with the top bytes of its first word: LF, then v or f.
_LINE_V, _LINE_F = (int.from_bytes(b"\0" * 6 + b"\n" + kind, "little") for kind in (b"v", b"f"))


def _vertex_lines(vertices: np.ndarray) -> List[np.ndarray]:
    """The lines "v x y z" of float vertices, one per row, each led by
    its LF."""
    m, c = vertices.shape

    def lines(rows):
        block = vertices[rows]
        words = np.empty((len(block), 1 + _WORDS * c), dtype=_U)
        words[:, 0] = _LINE_V
        _fields(block, words[:, 1:].reshape(len(block), c, _WORDS), b" ")
        return _text(words)

    return _map_rows(lines, m, max(1, _BLOCK_VALUES // c))


def _face_lines(faces: np.ndarray, n: int) -> List[np.ndarray]:
    """The lines "f a b c" of 1-based int64 faces over n vertices, each led
    by its LF, every value in 1..n: the text of 1..n is formatted once and
    gathered."""
    n_words = -(-len(b" %d" % n) // 8)
    table = _index_words(n, n_words)

    def lines(rows):
        block = faces[rows]
        words = np.empty((len(block), 1 + 3 * n_words), dtype=_U)
        words[:, 0] = _LINE_F
        words[:, 1:].reshape(len(block), 3, n_words)[:] = table.take(block, axis=0)
        return _text(words)

    return _map_rows(lines, len(faces), _BLOCK_VALUES // 3)


def export_obj(mesh: ProjectedMesh) -> bytes:
    """Serialize a projected mesh as OBJ text (1-based face indices).

    OutOfDomain when the mesh has no vertices or a face index lies outside
    0..n-1 for its n vertices: OBJ has no vertex 0, and reads a negative
    index relative to the last vertex.
    """
    n = len(mesh.vertices)
    if mesh.vertices.size == 0:
        raise OutOfDomain("no vertices to export")
    faces = np.asarray(mesh.faces, dtype=np.int64).reshape(-1, 3)
    if faces.size and (faces.min() < 0 or faces.max() >= n):
        raise OutOfDomain(f"face index outside the {n} vertices 0..{n - 1}")
    texts = _vertex_lines(np.asarray(mesh.vertices, dtype=float)) + _face_lines(faces + 1, n)
    texts[0] = texts[0][1:]                 # the first line's LF
    return b"".join(texts + [b"\n"])


CSV_COLUMNS = ("u", "v", "x1", "y1", "x2", "y2", "N1", "N2", "N3", "angle")


def export_csv(grid: SurfaceGrid) -> bytes:
    """Serialize a sampled grid as CSV with the fixed column order.

    Formats whole grid rows at a time, about _BLOCK_VALUES values; every u
    and v is formatted once.  Each line starts with the LF that ends the
    line before it, carried by the u column.
    """
    nu, nv = grid.shape
    if nu == 0 or nv == 0:
        raise OutOfDomain("no samples to export")
    u_words, v_words = np.empty((nu, _WORDS), dtype=_U), np.empty((nv, _WORDS), dtype=_U)
    _fields(grid.us, u_words, b"\n")
    _fields(grid.vs, v_words, b",")

    def lines(rows):
        cols = np.concatenate([grid.positions[rows], grid.normals[rows],
                               grid.angles[rows, :, None]], axis=2)
        words = np.empty(cols.shape[:2] + (10, _WORDS), dtype=_U)
        words[:, :, 0] = u_words[rows, None]
        words[:, :, 1] = v_words
        _fields(cols, words[:, :, 2:], b",")
        return _text(words)

    header = ",".join(CSV_COLUMNS).encode("ascii")
    return b"".join([header] + _map_rows(lines, nu, max(1, _BLOCK_VALUES // (8 * nv))) + [b"\n"])
