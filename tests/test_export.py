import dataclasses
import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergerhelix import export, surface
from bergerhelix.ambient import BergerParams
from bergerhelix.errors import OutOfDomain
from bergerhelix.export import (
    _P_HI,
    _P_LO,
    _WORDS,
    CSV_COLUMNS,
    POLE_TOL,
    ProjectedMesh,
    _face_lines,
    _fields,
    _index_words,
    export_csv,
    export_obj,
    project_grid,
)
from bergerhelix.family import example_profile
from bergerhelix.surface import SurfaceGrid, make_surface, sample_grid
from test_verify import nan_tail_surface

P_REF = BergerParams(1.0, math.pi / 4)


def ref_grid(nu=6, nv=5):
    return sample_grid(make_surface(P_REF, example_profile()), nu, nv)


# Per-value formatters of the original emitters: the byte-level reference.

def csv_reference(grid):
    nu, nv = grid.shape
    lines = [",".join(CSV_COLUMNS)]
    for i in range(nu):
        for j in range(nv):
            x1, y1, x2, y2 = grid.positions[i, j]
            n1, n2, n3 = grid.normals[i, j]
            row = (grid.us[i], grid.vs[j], x1, y1, x2, y2, n1, n2, n3, grid.angles[i, j])
            lines.append(",".join(f"{val:.17g}" for val in row))
    return ("\n".join(lines) + "\n").encode("ascii")


def obj_reference(mesh):
    lines = []
    for x, y, z in mesh.vertices:
        lines.append(f"v {x:.17g} {y:.17g} {z:.17g}")
    for a, b, c in mesh.faces:
        lines.append(f"f {a + 1} {b + 1} {c + 1}")
    return ("\n".join(lines) + "\n").encode("ascii")


def faces_reference(nu, nv, defects):
    faces = []
    for i in range(nu - 1):
        for j in range(nv - 1):
            a = i * nv + j
            b, c = a + 1, a + nv
            d = c + 1
            if defects.intersection((a, b, c, d)):
                continue
            faces += [(a, c, d), (a, d, b)]
    return faces


def project_reference(grid, pole):
    """Vertices and defect mask of project_grid as a boolean gather and
    scatter, the formula np.divide(..., where=) replaced."""
    k = pole - 1
    nu, nv = grid.shape
    P = grid.positions.reshape(nu * nv, 4)
    denom = 1.0 - P[:, k]
    bad = (np.abs(denom) < POLE_TOL) | ~np.all(np.isfinite(P), axis=1)
    verts = np.zeros((nu * nv, 3))
    rest = np.delete(P, k, axis=1)
    verts[~bad] = rest[~bad] / denom[~bad, None]
    return verts, bad.reshape(nu, nv)


def planted_pole_grid():
    g = ref_grid(9, 7)
    g.positions[3, 4] = [0.0, 0.0, 0.0, 1.0]
    g.positions[0, 0] = [0.0, 0.0, 0.0, 1.0]
    return g


BYTE_GRIDS = {
    "analytic": lambda: sample_grid(make_surface(P_REF, example_profile()), 17, 13),
    "fd": lambda: sample_grid(make_surface(BergerParams(0.8, math.pi / 3), example_profile(),
                                           fv_method="fd"), 17, 13),
    "degenerate_u0": lambda: ref_grid(21, 21),
    "planted_pole": planted_pole_grid,
    "nu_ne_nv": lambda: ref_grid(5, 31),
    "two_by_two": lambda: ref_grid(2, 2),
    "non_finite": lambda: sample_grid(nan_tail_surface(), 11, 11),
    "large": lambda: sample_grid(make_surface(BergerParams(1.5, math.pi / 6),
                                              example_profile()), 101, 103),
}


# ------------------------------------------------------------- stereographic

def positions_grid(positions):
    """A grid carrying only the given (nu, nv, 4) positions."""
    positions = np.array(positions, dtype=float)
    nu, nv = positions.shape[:2]
    return SurfaceGrid(us=np.arange(nu, dtype=float), vs=np.arange(nv, dtype=float),
                       positions=positions, normals=np.zeros((nu, nv, 3)),
                       angles=np.zeros((nu, nv)))


def test_stereographic_axis_points():
    e = np.eye(4)
    mesh = project_grid(positions_grid([[e[0], -e[3]], [e[1], e[2]]]))
    assert mesh.vertices.tolist() == [[1, 0, 0], [0, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert mesh.defects == [] and len(mesh.faces) == 2


def test_stereographic_pole_error():
    # the pole is a defect with a zero placeholder vertex, never an error
    e = np.eye(4)
    for pole in (1, 2, 3, 4):
        g = positions_grid([[e[pole % 4], e[pole - 1]], [-e[pole - 1], e[pole % 4]]])
        mesh = project_grid(g, pole)
        assert mesh.defects == [(0, 1)]
        assert mesh.vertices[1].tolist() == [0, 0, 0] and len(mesh.faces) == 0


@pytest.mark.parametrize("pole", [0, 5, 2.0, 1.5, True, False, np.True_, "2"])
def test_project_grid_refuses_a_pole_outside_the_axes(pole):
    # a float 2.0 used to index with a float, and True to project from axis 1
    with pytest.raises(OutOfDomain, match="pole axis must be an integer in 1..4"):
        project_grid(ref_grid(2, 2), pole)


def test_project_grid_takes_numpy_integer_poles():
    g = ref_grid(5, 4)
    for pole in (np.int64(2), np.uint8(3), np.int32(4)):
        assert np.array_equal(project_grid(g, pole).vertices, project_grid(g, int(pole)).vertices)


def test_stereographic_roundtrip():
    g = ref_grid(13, 11)
    p = g.positions.reshape(-1, 4)
    for pole in (1, 2, 3, 4):
        k = pole - 1
        y = project_grid(g, pole).vertices
        s = np.sum(y * y, axis=-1, keepdims=True)
        q = np.insert(2.0 * y / (s + 1.0), k, (s[:, 0] - 1.0) / (s[:, 0] + 1.0), axis=1)
        far = np.abs(1.0 - p[:, k]) > 1e-6      # the inverse is ill-conditioned at the pole
        assert far.sum() > 100
        assert np.max(np.abs(q - p)[far]) < 1e-9


# ----------------------------------------------------------------------- OBJ

def test_obj_two_by_two_grid():
    mesh = project_grid(ref_grid(2, 2))
    data = export_obj(mesh).decode("ascii")
    lines = data.strip().split("\n")
    assert sum(1 for ln in lines if ln.startswith("v ")) == 4
    assert sum(1 for ln in lines if ln.startswith("f ")) == 2
    assert data.endswith("\n") and "\r" not in data


def test_obj_deterministic():
    g = ref_grid(7, 9)
    assert export_obj(project_grid(g)) == export_obj(project_grid(g))


def test_obj_vertices_finite_with_extent():
    g = sample_grid(make_surface(P_REF, example_profile()), 101, 101)
    mesh = project_grid(g)
    assert np.all(np.isfinite(mesh.vertices))
    extent = mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)
    assert np.linalg.norm(extent) > 0


def test_obj_faces_one_based_and_in_range():
    mesh = project_grid(ref_grid(4, 4))
    data = export_obj(mesh).decode("ascii")
    for ln in data.strip().split("\n"):
        if ln.startswith("f "):
            ids = [int(tok) for tok in ln.split()[1:]]
            assert all(1 <= i <= 16 for i in ids)


def test_projection_excludes_pole_hits_from_faces():
    g = ref_grid(3, 3)
    # plant an exact pole hit in one sample
    g.positions[1, 1] = np.array([0.0, 0.0, 0.0, 1.0])
    mesh = project_grid(g)
    assert (1, 1) in mesh.defects
    flat = 1 * 3 + 1
    assert all(flat not in face for face in mesh.faces)
    assert np.all(np.isfinite(mesh.vertices))


def test_projection_excludes_non_finite_positions():
    g = sample_grid(nan_tail_surface(), 11, 11)   # xi2 is NaN for v > 6: the j = 10 line
    mesh = project_grid(g)
    assert mesh.defects == [(i, 10) for i in range(11)]
    assert len(mesh.faces) == 180
    assert not np.any(mesh.faces % 11 == 10)
    assert np.all(np.isfinite(mesh.vertices))
    assert b"nan" not in export_obj(mesh)


def test_projection_keeps_degenerate_tangent_samples():
    g = ref_grid(9, 4)
    assert any(kind == "degenerate_tangent_plane" for _, _, kind in g.defects)
    mesh = project_grid(g)
    assert mesh.defects == [] and len(mesh.faces) == 2 * 8 * 3


@pytest.mark.parametrize("pole", [1, 2, 3, 4])
@pytest.mark.parametrize("name", ["degenerate_u0", "planted_pole", "nu_ne_nv"])
def test_faces_array_matches_loop_triangulation(name, pole):
    g = BYTE_GRIDS[name]()
    mesh = project_grid(g, pole)
    nu, nv = g.shape
    flat = {i * nv + j for i, j in mesh.defects}
    assert mesh.faces.dtype == np.int64 and mesh.faces.shape[1] == 3
    assert mesh.faces.tolist() == [list(f) for f in faces_reference(nu, nv, flat)]


@pytest.mark.parametrize("pole", [1, 2, 3, 4])
def test_projection_matches_gather_scatter_bit_for_bit(pole):
    g = sample_grid(nan_tail_surface(), 11, 9)         # the j = 8 line is not finite
    for axis in range(4):                              # an exact and a near hit on each pole
        g.positions[axis, axis] = np.eye(4)[axis]
        g.positions[axis + 4, axis + 1] = np.eye(4)[axis] * (1 - POLE_TOL / 2)
    g.positions[9, 2, 1] = np.inf
    verts, bad = project_reference(g, pole)
    mesh = project_grid(g, pole)
    nu, nv = g.shape
    assert np.array_equal(mesh.vertices.view(np.uint64), verts.view(np.uint64))
    assert mesh.defects == [(int(i), int(j)) for i, j in zip(*np.nonzero(bad))]
    assert len(mesh.defects) == 11 + 1 + 2    # the NaN line, the inf, this pole's two hits
    flat = {i * nv + j for i, j in mesh.defects}
    assert mesh.faces.tolist() == [list(f) for f in faces_reference(nu, nv, flat)]


def test_obj_faces_list_and_array_same_bytes():
    mesh = project_grid(planted_pole_grid())
    as_list = ProjectedMesh(vertices=mesh.vertices,
                            faces=[tuple(f) for f in mesh.faces.tolist()],
                            defects=mesh.defects)
    assert export_obj(as_list) == export_obj(mesh)


@pytest.mark.parametrize("faces", [[], np.zeros((0, 3), dtype=np.int64)], ids=["list", "array"])
def test_obj_without_faces_is_its_vertex_lines(faces):
    mesh = ProjectedMesh(vertices=np.arange(18.0).reshape(6, 3) / 7, faces=faces)
    assert export_obj(mesh) == obj_reference(mesh)
    assert b"f " not in export_obj(mesh)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 2_000).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), max_size=60))))
def test_obj_faces_match_per_value_reference(case):
    n, faces = case
    mesh = ProjectedMesh(vertices=np.linspace(-1.0, 1.0, 3 * n).reshape(n, 3),
                         faces=np.array(faces, dtype=np.int64).reshape(-1, 3))
    expected = obj_reference(mesh)
    assert export_obj(mesh) == expected
    assert export_obj(dataclasses.replace(mesh, faces=faces)) == expected


@pytest.mark.parametrize("bad", [-1, 6, -(2 ** 63), -(2 ** 63) + 1, 2 ** 63 - 2, 2 ** 63 - 1])
@pytest.mark.parametrize("kind", ["list", "array"])
def test_obj_refuses_faces_outside_the_mesh(kind, bad):
    # OBJ has no vertex 0, and reads a negative index from the last vertex
    faces = [(0, 1, 5), (5, bad, 4)]
    mesh = ProjectedMesh(vertices=np.arange(18.0).reshape(6, 3) / 7,
                         faces=faces if kind == "list" else np.array(faces, dtype=np.int64))
    with pytest.raises(OutOfDomain, match="face index outside the 6 vertices"):
        export_obj(mesh)


def test_obj_empty_mesh_rejected():
    empty = ProjectedMesh(vertices=np.zeros((0, 3)), faces=[])
    with pytest.raises(OutOfDomain, match="no vertices to export"):
        export_obj(empty)


# ----------------------------------------------------------------------- CSV

def test_csv_header_and_shape():
    g = ref_grid(3, 4)
    rows = export_csv(g).decode("ascii").strip().split("\n")
    assert rows[0] == ",".join(CSV_COLUMNS)
    assert len(rows) == 1 + 3 * 4


def test_csv_roundtrip_exact():
    g = ref_grid(5, 6)
    rows = export_csv(g).decode("ascii").strip().split("\n")[1:]
    k = 0
    for i in range(5):
        for j in range(6):
            vals = [float(tok) for tok in rows[k].split(",")]
            k += 1
            want = [g.us[i], g.vs[j], *g.positions[i, j], *g.normals[i, j],
                    g.angles[i, j]]
            for got, expect in zip(vals, want):
                if math.isnan(expect):
                    assert math.isnan(got)
                else:
                    assert got == expect   # %.17g round-trips doubles exactly


def test_csv_deterministic():
    g = ref_grid(4, 4)
    assert export_csv(g) == export_csv(g)


@pytest.mark.parametrize("name", sorted(BYTE_GRIDS))
def test_exports_match_per_value_reference(name):
    g = BYTE_GRIDS[name]()
    assert export_csv(g) == csv_reference(g)
    mesh = project_grid(g)
    assert export_obj(mesh) == obj_reference(mesh)


def test_csv_nan_for_defect_samples():
    g = ref_grid(9, 4)   # u = 0 column is degenerate for this profile
    assert g.defects
    i, j, _ = g.defects[0]
    row = export_csv(g).decode("ascii").strip().split("\n")[1 + i * 4 + j]
    assert "nan" in row


# ----------------------------------------------------------------- formatter

def formatted(values, sep=b","):
    """The text _fields lays out for each value, NULs removed: sep, which
    is checked and stripped, then the value."""
    values = np.asarray(values)
    out = np.empty(values.shape + (_WORDS,), dtype=np.uint64)
    _fields(values, out, sep)
    texts = [w.astype("<u8").tobytes().translate(None, b"\0") for w in out]
    assert all(t.startswith(sep) for t in texts)
    return [t[len(sep):] for t in texts]


def assert_like_printf(values):
    values = np.asarray(values, dtype=np.float64)
    assert formatted(values) == [b"%.17g" % x for x in values.tolist()]


def with_neighbours(x):
    """x, its negation and both of their neighbouring doubles."""
    x = np.asarray(x, dtype=float)
    x = np.concatenate([x, -x])
    return np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])


def test_powers_of_ten_are_exact_double_doubles():
    for q, (hi, lo) in enumerate(zip(_P_HI.tolist(), _P_LO.tolist())):
        assert int(hi) + int(lo) == 10 ** q


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_formatter_matches_printf_on_raw_bit_patterns(bits):
    assert_like_printf(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=64))
def test_formatter_matches_printf_on_floats(xs):
    assert_like_printf(np.array(xs, dtype=np.float64))


EDGES = {
    "specials": [0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf],
    "range-edges": with_neighbours([1e-29, 1e17, 1e-5, 1e-4, 1e16]),   # the fast path's edges
    "powers-of-ten": with_neighbours(10.0 ** np.arange(-300, 301)),
    "near-2**53": 2.0 ** 53 + np.arange(-300.0, 300.0),                # integers near 2**53
    "ties": [2.0 ** -25, 3 * 2.0 ** -25, 2.0 ** -26, 5 * 2.0 ** -30],  # exact 18-digit ties
    "eighths": np.arange(1, 4097) / 8.0,
}


@pytest.mark.parametrize("values", list(EDGES.values()), ids=list(EDGES))
def test_formatter_matches_printf_on_edges(values):
    assert_like_printf(np.asarray(values, dtype=np.float64))


def fixed_notation_values():
    """For each decimal exponent k = 0..17 and significant length n = 1..17,
    (x, k, n) with a double x whose %.17g text has exactly n significant
    digits and k + 1 before the dot: the digits 1234... times a power of
    ten, or an odd m / 2**j with its j = n - k - 1 decimals ending in 5."""
    cases = []
    for k in range(18):
        for n in range(1, 18):
            j = n - k - 1
            if j <= 0:
                x = float(int("12345678912345678"[:n]) * 10 ** -j)
            else:
                x = (12 * 10 ** (n - 2) // 5 ** j | 1) / 2 ** j
            cases.append((x, k, n))
    return cases


def test_fixed_notation_values_cover_every_dot_position_and_length():
    for x, k, n in fixed_notation_values():
        text = b"%.17g" % x
        if k <= 16:
            integer, _, fraction = text.partition(b".")
            assert (len(integer), len((integer + fraction).rstrip(b"0"))) == (k + 1, n), text
        else:
            assert text.startswith(b"1") and text.endswith(b"e+17"), text


def test_formatter_matches_printf_at_every_dot_position_and_length():
    assert_like_printf(with_neighbours([x for x, _, _ in fixed_notation_values()]))


@pytest.mark.parametrize("sep", [b",", b"\n", b" "])
def test_each_field_is_one_run_of_text_that_starts_with_its_separator(sep):
    """The mask of _text compacts a run of bytes faster than scattered
    bytes: each field's non-NUL bytes are one run, sep first, but for the
    one gap of a scientific value of fewer than 17 digits, before its
    exponent.  Over every edge set, every dot position and length, and both
    signs of each "0.000" prefix (k = -4..-1)."""
    values = np.concatenate([np.asarray(v, dtype=float) for v in EDGES.values()]
                            + [with_neighbours([x for x, _, _ in fixed_notation_values()])])
    out = np.empty(values.shape + (_WORDS,), dtype=np.uint64)
    _fields(values, out, sep)
    prefixes = set()
    for x, words in zip(values.tolist(), out):
        text = b"%.17g" % x
        runs = [r for r in words.astype("<u8").tobytes().split(b"\0") if r]
        mantissa, e, exponent = text.partition(b"e")
        if len(runs) == 2:
            assert runs == [sep + mantissa, e + exponent], (x, runs)
            assert len(mantissa.lstrip(b"-").replace(b".", b"")) < 17, (x, runs)
        else:
            assert runs == [sep + text], (x, runs)
        if text.lstrip(b"-").startswith(b"0.") and not e:
            prefixes.add(text[:len(text) - len(text.lstrip(b"-.0"))])
    assert prefixes == {sign + b"0." + b"0" * z for sign in (b"", b"-") for z in range(4)}


def distance_to_tie(x):
    """How far |x| * 10**(16 - k) lies from the nearest rounding tie (an
    odd multiple of 1/2), exactly; k is the decimal exponent of x, and
    1 <= |x| < 1e17."""
    a = Fraction(abs(x))
    scaled = a * 10 ** (17 - len(str(int(a))))
    return abs(scaled - math.floor(scaled) - Fraction(1, 2))


def test_fast_path_formats_values_from_ten_to_1e17_unless_near_a_tie(monkeypatch):
    # every |x| in [10, 1e17) leaves the fast path only within 2**-30 of a
    # tie, give or take the 1e-14 error of the scaled value
    fallback, wrapped = [], export._printf

    def printf(values, sep):
        fallback.extend(values.tolist())
        return wrapped(values, sep)

    monkeypatch.setattr(export, "_printf", printf)
    rng = np.random.default_rng(7)
    ties = np.array([10.0 ** a + 2.0 ** (a - 17) for a in range(1, 16)])   # 18 digits, the last 5
    values = np.concatenate([
        with_neighbours([x for x, k, _ in fixed_notation_values() if k <= 16]),
        with_neighbours(10.0 ** np.arange(1, 17)),
        rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(1, 17, 20_000),
        ties,
        np.nextafter(1e17, 0.0) - np.arange(0.0, 200.0, 16.0),
    ])
    assert_like_printf(values)
    assert set(ties.tolist()) <= set(fallback)
    for x in fallback:
        if 10 <= abs(x) < 1e17:
            assert distance_to_tie(x) < 2.0 ** -30 + 1e-14, x


def test_formatter_ties_round_to_even():
    assert formatted([2.0 ** -25, 3 * 2.0 ** -25]) == [b"2.9802322387695312e-08",
                                                       b"8.9406967163085938e-08"]


def test_formatter_matches_printf_on_integers():
    # the text of 1..n is the index table, gathered for every index
    n = 200_000
    edges = [1, 9, 10, 9_999, 10_000, n - 1, n]
    edges += [10 ** k + d for k in range(6) for d in (-1, 0, 1) if 1 <= 10 ** k + d <= n]
    values = edges + list(range(1, n + 1, 7))
    values += [n] * (-len(values) % 3)
    # shuffled, so that the edges fall in every block of faces
    faces = np.random.default_rng(3).permutation(np.array(values, dtype=np.int64)).reshape(-1, 3)
    assert b"".join(_face_lines(faces, n)) == b"".join(b"\nf %d %d %d" % tuple(f)
                                                       for f in faces.tolist())
    for n_words in (1, 3):
        rows = _index_words(n, n_words).astype("<u8")
        assert rows.shape == (n + 1, n_words)
        assert [r.tobytes().rstrip(b"\0") for r in rows] == [b" %d" % i for i in range(n + 1)]


def extreme_values(rng, shape):
    """Values over [1e-300, 1e300] in magnitude, with both zeros, NaN and
    both infinities planted."""
    x = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-300, 300, size=shape)
    x.flat[:6] = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324]
    rng.shuffle(x.reshape(-1))
    return x


def test_extreme_grid_matches_per_value_reference():
    rng = np.random.default_rng(31)
    nu, nv = 9, 7
    grid = SurfaceGrid(us=extreme_values(rng, nu), vs=extreme_values(rng, nv),
                       positions=extreme_values(rng, (nu, nv, 4)),
                       normals=extreme_values(rng, (nu, nv, 3)),
                       angles=extreme_values(rng, (nu, nv)))
    assert export_csv(grid) == csv_reference(grid)


def dot_among_digits_values(rng, shape):
    """Values of both signs over [10, 1e16] in magnitude, a third of them
    cut to at most two decimals: %.17g writes them in fixed notation with
    the dot after digit 1..15."""
    x = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(1, 16, size=shape)
    short = rng.random(shape) < 1 / 3
    x[short] = np.round(x[short], 2)
    return x


def test_dot_among_digits_grid_matches_per_value_reference():
    rng = np.random.default_rng(33)
    nu, nv = 9, 7
    grid = SurfaceGrid(us=dot_among_digits_values(rng, nu), vs=dot_among_digits_values(rng, nv),
                       positions=dot_among_digits_values(rng, (nu, nv, 4)),
                       normals=dot_among_digits_values(rng, (nu, nv, 3)),
                       angles=dot_among_digits_values(rng, (nu, nv)))
    assert export_csv(grid) == csv_reference(grid)


def test_dot_among_digits_mesh_matches_per_value_reference():
    rng = np.random.default_rng(34)
    faces = np.array([[8, 9, 10], [0, 39, 38], [10, 1, 0]], dtype=np.int64)
    mesh = ProjectedMesh(vertices=dot_among_digits_values(rng, (40, 3)), faces=faces)
    assert export_obj(mesh) == obj_reference(mesh)


def test_extreme_mesh_matches_per_value_reference():
    rng = np.random.default_rng(32)
    faces = np.array([[8, 9, 10], [0, 39, 38], [10, 1, 0]], dtype=np.int64)
    mesh = ProjectedMesh(vertices=extreme_values(rng, (40, 3)), faces=faces)
    assert export_obj(mesh) == obj_reference(mesh)


# ------------------------------------------------------------------ workers

def worker_grid():
    """23 x 5 samples of the reference surface: the u = 0 row degenerate,
    a NaN position (a projection defect), a normal of 5e-324 and a
    position of 1.5e20, which the fast path leaves to %."""
    g = ref_grid(23, 5)
    g.positions[7, 3, 0] = math.nan
    g.positions[13, 2, 1] = 1.5e20
    g.normals[11, 1, 2] = 5e-324
    return g


def test_exports_are_the_same_bytes_at_any_worker_count(monkeypatch):
    """Blocks of 2 CSV rows, 33 vertices and 33 faces, the last block of
    each ragged, on one to eight workers: the same bytes, equal to the
    per-value reference."""
    monkeypatch.setattr(export, "_BLOCK_VALUES", 100)
    g = worker_grid()
    mesh = project_grid(g)
    assert g.defects and mesh.defects
    assert 23 % 2 and len(mesh.vertices) % 33 and len(mesh.faces) % 33
    csv, obj = csv_reference(g), obj_reference(mesh)
    assert b"nan" in csv and b"4.9406564584124654e-324" in csv and b"e+20" in csv
    for workers in (1, 2, 3, 8):
        monkeypatch.setattr(surface, "_workers", lambda: workers)
        assert export_csv(g) == csv
        assert export_obj(mesh) == obj


def test_exports_are_the_same_bytes_under_frequent_thread_switches(monkeypatch):
    """Eight workers, more than the cores, on 101 one-row CSV blocks and
    13-row OBJ blocks, with the interpreter switching threads every
    microsecond: each block's text lands in its own place, once."""
    monkeypatch.setattr(export, "_BLOCK_VALUES", 40)
    monkeypatch.setattr(surface, "_workers", lambda: 8)
    g = ref_grid(101, 5)
    mesh = project_grid(g)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        csv, obj = export_csv(g), export_obj(mesh)
    finally:
        sys.setswitchinterval(interval)
    assert csv == csv_reference(g)
    assert obj == obj_reference(mesh)


def test_a_failing_block_reaches_the_caller_and_stops_the_other_worker(monkeypatch):
    """_fields raises on the third of 201 one-row blocks; a worker holding
    a later block waits for the raise, then takes at most that one block,
    not the rest of the 201."""
    monkeypatch.setattr(export, "_BLOCK_VALUES", 8 * 5)
    monkeypatch.setattr(surface, "_workers", lambda: 2)
    nu = 201
    g = positions_grid(np.arange(nu, dtype=float)[:, None, None] + np.zeros((nu, 5, 4)))
    real, raised, taken = export._fields, threading.Event(), []

    def fields(values, out, sep):
        if values.ndim == 3:                    # a block of grid rows, not an axis
            row = int(values[0, 0, 0])
            if row == 2:
                raised.set()
                raise RuntimeError("third block")
            if row > 2:
                assert raised.wait(timeout=30)
                taken.append(row)
        real(values, out, sep)

    monkeypatch.setattr(export, "_fields", fields)
    with pytest.raises(RuntimeError, match="third block"):
        export_csv(g)
    assert len(taken) <= 1


def test_export_csv_holds_its_output_twice_and_little_more():
    """The blocks' text and the joined copy of it, 12.1 MiB each at
    251 x 251: no worker holds more than its block."""
    g = ref_grid(251, 251)
    tracemalloc.start()
    try:
        text = export_csv(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * len(text), (peak, len(text))
