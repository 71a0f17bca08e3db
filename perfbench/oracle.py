"""Correctness oracle: the expected verdict of every case and checks that
exported files parse back to what they claim.

Each check returns a list of problems, ``(kind, message)`` pairs; an
operation fails when the list is not empty.  Kinds are "verdict" (the
program answered, but not as expected), "output" (a file or report is
malformed or wrong) and "raised" (the operation raised).  Checks run outside
the timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

CSV_HEADER = b"u,v,x1,y1,x2,y2,N1,N2,N3,angle"
ON_SPHERE_TOL = 1e-12
ANGLE_TOL = {"analytic": 1e-8, "fd": 1e-5}
POLE_TOL = 1e-9


def check_report(case, report) -> list:
    """valid -> overall pass; fault -> fail; Hopf tube -> flagged degenerate."""
    failing = [e.name for e in report.entries if not e.passed]
    if case.expect == "degenerate":
        if not report.degenerate_hopf_tube:
            return [("verdict", "Hopf tube not flagged degenerate")]
        return []
    if report.degenerate_hopf_tube:
        return [("verdict", "helix surface flagged as a Hopf tube")]
    if case.expect == "fail" and report.overall_pass:
        return [("verdict", f"fault {case.fault} passed every check")]
    if case.expect == "pass" and not report.overall_pass:
        return [("verdict", "valid surface failed: " + ",".join(failing))]
    return []


def _floats(text: bytes) -> np.ndarray:
    return np.fromstring(text.strip().replace(b"\n", b",").replace(b" ", b",").decode("ascii"),
                         sep=",")


def check_csv(data: bytes, surface, nu: int, nv: int, n_defects: int):
    """Rows, grid columns, positions on S^3 and the constant angle.

    Returns (problems, positions) with positions of shape (nu * nv, 4).
    """
    header, _, body = data.partition(b"\n")
    if header != CSV_HEADER:
        return [("output", f"csv header {header[:80]!r}")], None
    vals = _floats(body)
    n_rows = body.count(b"\n")
    if vals.size != nu * nv * 10 or n_rows != nu * nv:
        return [("output", f"csv has {n_rows} rows, expected {nu * nv}")], None
    rows = vals.reshape(nu * nv, 10)
    problems = []
    us = np.repeat(np.linspace(*surface.u_domain, nu), nv)
    vs = np.tile(np.linspace(*surface.v_domain, nv), nu)
    if not (np.array_equal(rows[:, 0], us) and np.array_equal(rows[:, 1], vs)):
        problems.append(("output", "csv u, v columns are not the uniform grid"))
    pos = rows[:, 2:6]
    off = float(np.max(np.abs(np.linalg.norm(pos, axis=1) - 1.0)))
    if not off <= ON_SPHERE_TOL:
        problems.append(("output", f"csv position off S^3 by {off:.3e}"))
    angles = rows[:, 9]
    bad = np.isnan(angles)
    if int(bad.sum()) != n_defects:
        problems.append(("output", f"{int(bad.sum())} NaN angles for {n_defects} defects"))
    if not np.array_equal(bad, np.isnan(rows[:, 6])):
        problems.append(("output", "NaN normals and NaN angles disagree"))
    if np.any(~bad):
        dev = float(np.max(np.abs(angles[~bad] - surface.params.theta)))
        if not dev <= ANGLE_TOL[surface.fv_method]:
            problems.append(("output", f"csv angle off theta by {dev:.3e}"))
    return problems, pos


def check_obj(data: bytes, positions: np.ndarray, nu: int, nv: int) -> list:
    """Vertex and face counts, projected positions, and faces that avoid
    pole vertices (projection from the fourth axis)."""
    lines = data.split(b"\n")
    if lines[-1] != b"":
        return [("output", "obj does not end with a newline")]
    vlines = [ln[2:] for ln in lines if ln.startswith(b"v ")]
    flines = [ln[2:] for ln in lines if ln.startswith(b"f ")]
    if len(vlines) + len(flines) != len(lines) - 1:
        return [("output", "obj has lines other than v and f")]
    n = nu * nv
    if len(vlines) != n:
        return [("output", f"obj has {len(vlines)} vertices, expected {n}")]
    pole = np.abs(1.0 - positions[:, 3]) < POLE_TOL
    p = pole.reshape(nu, nv)
    quad_ok = ~(p[:-1, :-1] | p[1:, :-1] | p[:-1, 1:] | p[1:, 1:])
    problems = []
    if len(flines) != 2 * int(quad_ok.sum()):
        problems.append(("output", f"obj has {len(flines)} faces, expected "
                                   f"{2 * int(quad_ok.sum())}"))
    verts = _floats(b"\n".join(vlines)).reshape(n, 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = np.where(pole[:, None], 0.0, positions[:, :3] / (1.0 - positions[:, 3:4]))
    err = np.abs(verts - want) / np.maximum(1.0, np.abs(want))
    if not float(np.max(err)) <= 1e-12:
        problems.append(("output", f"obj vertex off its projection by {float(np.max(err)):.3e}"))
    if flines:
        faces = _floats(b"\n".join(flines)).astype(np.int64)
        if faces.min() < 1 or faces.max() > n or np.any(pole[faces - 1]):
            problems.append(("output", "obj face index out of range or on a pole vertex"))
    return problems


def check_mesh_export(case, output, n: int, seen: dict) -> list:
    """CSV and OBJ of one surface.  Export is deterministic, so output
    byte-identical to one already checked for the same case (``seen`` maps
    case id to digest and problems) gets that verdict without a re-parse."""
    grid, csv, obj = output
    digest = hashlib.sha256(csv)
    digest.update(obj)
    key = (digest.hexdigest(), len(grid.defects))
    if case.id in seen and seen[case.id][0] == key:
        return seen[case.id][1]
    problems, pos = check_csv(csv, case.surface, n, n, len(grid.defects))
    if pos is not None:
        problems += check_obj(obj, pos, n, n)
    seen[case.id] = (key, problems)
    return problems


def check_cli(case, code: int, stderr: bytes, n: int, grid_of) -> list:
    """Exit code against the expected 0, 1 or 2, then the written output.

    grid_of(surface) gives the library's grid of the same surface; it only
    supplies the defect count and positions the exported files must match.
    """
    problems = []
    if code != case.expect_code:
        problems.append(("verdict", f"exit {code}, expected {case.expect_code}: "
                                    f"{stderr.decode(errors='replace')[-200:]}"))
    if case.expect == "invalid":
        if b"error:" not in stderr:
            problems.append(("output", "invalid input gave no error message"))
        return problems
    if code not in (0, 1):
        return problems
    if not os.path.exists(case.output):
        return problems + [("output", "no output file written")]
    with open(case.output, "rb") as fh:
        data = fh.read()
    fmt = case.fmt
    if fmt == "constants":
        got = json.loads(data)
        B = 1.0 + (case.epsilon ** 2 - 1.0) * math.cos(case.theta) ** 2
        if abs(got["B"] - B) > 1e-12 * max(1.0, B) or abs(got["g11"] + got["g33"] - 1.0) > 1e-12:
            problems.append(("output", "constants differ from the closed form"))
    elif fmt == "report":
        report = json.loads(data)
        if report["overall_pass"] != (code == 0) or not report["checks"]:
            problems.append(("output", "report verdict disagrees with the exit code"))
    elif fmt == "csv":
        grid = grid_of(case.surface)
        problems += check_csv(data, case.surface, n, n, len(grid.defects))[0]
    elif fmt == "obj":
        grid = grid_of(case.surface)
        problems += check_obj(data, grid.positions.reshape(n * n, 4), n, n)
    return problems


def is_known(case, problems) -> bool:
    """A failure is a listed defect when a valid case carrying a D1 or D2
    label got a wrong verdict and nothing else went wrong."""
    return bool(case.known and case.expect == "pass" and problems
                and all(kind == "verdict" for kind, _ in problems))
