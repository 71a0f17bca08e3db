import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergerhelix.ambient import BergerParams
from bergerhelix.errors import OutOfDomain
from bergerhelix.export import (
    _P_HI,
    _P_LO,
    CSV_COLUMNS,
    ProjectedMesh,
    _fields,
    export_csv,
    export_obj,
    project_grid,
    stereographic,
    stereographic_inverse,
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

def test_stereographic_axis_points():
    assert np.allclose(stereographic([1, 0, 0, 0]), [1, 0, 0], atol=0)
    assert np.allclose(stereographic([0, 0, 0, -1]), [0, 0, 0], atol=0)


def test_stereographic_pole_error():
    with pytest.raises(OutOfDomain, match="of the projection pole"):
        stereographic([0, 0, 0, 1])


def test_stereographic_roundtrip():
    rng = np.random.default_rng(12)
    for pole in (1, 2, 3, 4):
        for _ in range(25):
            p = rng.normal(size=4)
            p /= np.linalg.norm(p)
            if abs(1 - p[pole - 1]) < 1e-6:
                continue
            q = stereographic_inverse(stereographic(p, pole), pole)
            assert np.max(np.abs(q - p)) < 1e-9


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


def test_obj_faces_list_and_array_same_bytes():
    mesh = project_grid(planted_pole_grid())
    as_list = ProjectedMesh(nu=mesh.nu, nv=mesh.nv, vertices=mesh.vertices,
                            faces=[tuple(f) for f in mesh.faces.tolist()],
                            defects=mesh.defects)
    assert export_obj(as_list) == export_obj(mesh)


def test_obj_empty_mesh_rejected():
    empty = ProjectedMesh(nu=0, nv=0, vertices=np.zeros((0, 3)), faces=[])
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

def formatted(values):
    """The text _fields lays out for each value, NULs removed."""
    values = np.asarray(values)
    out = np.empty(values.shape + (6,), dtype=np.uint64)
    _fields(values, out)
    return [w.astype("<u8").tobytes().translate(None, b"\0") for w in out]


def assert_like_printf(values):
    values = np.asarray(values)
    spec = b"%.17g" if values.dtype.kind == "f" else b"%d"
    assert formatted(values) == [spec % x for x in values.tolist()]


def with_neighbours(x):
    """x, its negation and both of their neighbouring doubles."""
    x = np.asarray(x, dtype=float)
    x = np.concatenate([x, -x])
    return np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])


def test_powers_of_ten_are_exact_double_doubles():
    for q, (hi, lo) in enumerate(zip(_P_HI.tolist(), _P_LO.tolist())):
        assert int(hi) + int(lo) == 10 ** q


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_formatter_matches_printf_on_raw_bit_patterns(bits):
    assert_like_printf(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=64))
def test_formatter_matches_printf_on_floats(xs):
    assert_like_printf(np.array(xs, dtype=np.float64))


@pytest.mark.parametrize("values", [
    [0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf],
    with_neighbours([1e-29, 1e17, 1e-5, 1e-4, 1e16]),           # the edges of the fast path
    with_neighbours(10.0 ** np.arange(-300, 301)),
    2.0 ** 53 + np.arange(-300.0, 300.0),                          # integers near 2**53
    [2.0 ** -25, 3 * 2.0 ** -25, 2.0 ** -26, 5 * 2.0 ** -30],     # exact 18-digit ties
    np.arange(1, 4097) / 8.0,
], ids=["specials", "range-edges", "powers-of-ten", "near-2**53", "ties", "eighths"])
def test_formatter_matches_printf_on_edges(values):
    assert_like_printf(np.asarray(values, dtype=np.float64))


def test_formatter_ties_round_to_even():
    assert formatted([2.0 ** -25, 3 * 2.0 ** -25]) == [b"2.9802322387695312e-08",
                                                       b"8.9406967163085938e-08"]


def test_formatter_matches_printf_on_integers():
    edges = [0, 1, 9, 10, 9_999, 10_000, 10 ** 8 - 1, 10 ** 8, 10 ** 16, 10 ** 17 - 1, 10 ** 17,
             2 ** 53 + 1, 2 ** 63 - 1, -1, -(2 ** 63)]
    assert_like_printf(np.array(edges + list(range(0, 200_000, 7)), dtype=np.int64))


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
                       fu=np.zeros((nu, nv, 4)), fv=np.zeros((nu, nv, 4)),
                       normals=extreme_values(rng, (nu, nv, 3)),
                       angles=extreme_values(rng, (nu, nv)), fv_method="analytic")
    assert export_csv(grid) == csv_reference(grid)


def test_extreme_mesh_matches_per_value_reference():
    rng = np.random.default_rng(32)
    faces = np.array([[10 ** 8 - 1, 10 ** 8, 10 ** 8 + 1], [0, 9_999, 2 ** 40],
                      [123_456_789, 10 ** 16 - 1, 10 ** 17 + 5]], dtype=np.int64)
    mesh = ProjectedMesh(nu=5, nv=8, vertices=extreme_values(rng, (40, 3)), faces=faces)
    assert export_obj(mesh) == obj_reference(mesh)
