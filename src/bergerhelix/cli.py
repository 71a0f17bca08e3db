"""Command-line entry points.

Subcommands: constants (closed-form scalars as JSON), generate (sampled
grid as CSV or projected OBJ), verify (certification report as JSON,
exit 0 iff every check passes), project (projected OBJ, figure-style
output).  generate and project print the grid's defect counts by kind to
stderr, and for OBJ output the count of vertices the projection drops.
Exit codes: 0 success/pass, 1 verification failure, 2 invalid
input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Dict, Optional

from .ambient import BergerParams
from .constants import compute_constants
from .errors import GeometryError
from .export import export_csv, export_obj, project_grid
from .family import example_profile, profile_from_file
from .surface import DEFECT_KINDS, make_surface, sample_grid
from .verify import VerifyConfig, run_all


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergerhelix",
        description="Construct and certify constant-angle surfaces in Berger spheres.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--epsilon", type=float, default=1.0,
                       help="fiber deformation parameter (default 1.0)")
        p.add_argument("--theta", type=float, default=math.pi / 4,
                       help="constant angle in radians, in (0, pi/2) (default pi/4)")
        p.add_argument("--config", help="JSON profile config path (default: reference profile)")
        p.add_argument("--nu", type=int, default=101, help="u samples (default 101)")
        p.add_argument("--nv", type=int, default=101, help="v samples (default 101)")
        p.add_argument("--output", help="output path (default: stdout)")
        p.add_argument("--fv-method", choices=("analytic", "fd"), default=None,
                       help="how F_v is computed (default: analytic)")

    p_const = sub.add_parser("constants", help="print the closed-form constants as JSON")
    p_const.add_argument("--epsilon", type=float, default=1.0)
    p_const.add_argument("--theta", type=float, default=math.pi / 4)
    p_const.add_argument("--output")

    p_gen = sub.add_parser("generate", help="sample the surface and export it")
    common(p_gen)
    p_gen.add_argument("--format", choices=("obj", "csv"), default="csv",
                       help="output format (default csv)")

    p_ver = sub.add_parser("verify", help="run the certification suite")
    common(p_ver)
    p_ver.add_argument("--tolerance", action="append", default=[],
                       metavar="NAME=VALUE", help="override a check tolerance (repeatable)")

    p_proj = sub.add_parser("project", help="export the stereographic projection as OBJ")
    common(p_proj)
    for p in (p_gen, p_proj):
        p.add_argument("--pole", type=int, default=4, choices=(1, 2, 3, 4),
                       help="stereographic pole axis (default 4)")
    return parser


def _parse_tolerances(pairs) -> Dict[str, float]:
    out = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep:
            raise GeometryError(f"bad --tolerance {item!r}; expected NAME=VALUE")
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise GeometryError(f"bad --tolerance value in {item!r}") from exc
    return out


def _emit(data: bytes, output: Optional[str]):
    if output:
        with open(output, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _run(args) -> int:
    params = BergerParams(epsilon=args.epsilon, theta=args.theta)
    if args.command == "constants":
        text = json.dumps(dataclasses.asdict(compute_constants(params)),
                          indent=2, sort_keys=True) + "\n"
        _emit(text.encode("ascii"), args.output)
        return 0

    profile = profile_from_file(args.config) if args.config else example_profile()
    tolerances = _parse_tolerances(getattr(args, "tolerance", []))
    surface = make_surface(params, profile, fv_method=args.fv_method)

    if args.command == "verify":
        report = run_all(surface, VerifyConfig(nu=args.nu, nv=args.nv, tolerances=tolerances))
        _emit((report.to_json() + "\n").encode("ascii"), args.output)
        return 0 if report.overall_pass else 1

    grid = sample_grid(surface, args.nu, args.nv)
    kinds = [kind for _, _, kind in grid.defects]
    counts = " ".join(f"{kind}={kinds.count(kind)}" for kind in DEFECT_KINDS)
    if args.command == "generate" and args.format == "csv":
        _emit(export_csv(grid), args.output)
    else:
        mesh = project_grid(grid, pole=args.pole)
        counts += f" projection={len(mesh.defects)}"
        _emit(export_obj(mesh), args.output)
    print(f"defects: {counts}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _run(args)
    except (GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
