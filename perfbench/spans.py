"""Spans and counts recorded from outside the package.

``Tracer.install`` wraps the public functions of bergerhelix's modules, and
the private check functions that ``run_all`` calls, in every namespace that
binds them, so calls made through ``from .surface import partials`` are seen
too.  Each call becomes a span ``[name, start, end, parent, op]`` kept in
memory; ``summary`` reduces them to additive counts and self times, and
``layer_metrics`` maps those to the per-layer metrics.  A name the metrics
need but the package no longer has is listed in ``missing`` instead of
stopping the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

MODULES = ("ambient", "constants", "family", "surface", "verify", "export", "cli")
VERIFY_PRIVATE = ("_check_angle_sweep", "_check_fields", "_check_first_order_system",
                  "_check_gram", "_interior_points")
VERIFY_CHECKS = {
    "angle_sweep": "verify._check_angle_sweep",
    "fourth_order_ode": "verify.check_fourth_order_ode",
    "product_table": "verify.check_product_table",
    "j1_products": "verify.check_j1_products",
    "normal_closed_form": "verify.check_normal_closed_form",
    "fields": "verify._check_fields",
    "first_order_system": "verify._check_first_order_system",
    "gram": "verify._check_gram",
    "interior_points": "verify._interior_points",
    "gauss_curvature": "verify.gauss_curvature_numeric",
    "shape_operator": "verify.shape_operator_matrix",
}
POINTWISE = tuple("surface." + n for n in (
    "position", "partials", "normal_components", "measured_angle", "first_fundamental_form",
    "first_order_system_residual", "fit_phase_constant", "recover_coefficient_fields"))
FIELDS = ("constants.lambda_field", "constants.ab_coefficients", "constants.phi_field")
REQUIRED = frozenset((*VERIFY_CHECKS.values(), *POINTWISE, *FIELDS, "verify.run_all",
                      "surface.sample_grid", "ambient.frame_components",
                      "ambient.connection_table", "family.assemble", "family.derive_xi3",
                      "constants.compute_constants", "export.export_csv",
                      "export.export_obj", "export.project_grid", "cli.main"))

# name -> (unit, better); the order is the order of the output
PER_LAYER = {f"verify.{check}.self_s": ("s", "lower")
             for check in ("family", *VERIFY_CHECKS, "run_all")}
PER_LAYER.update({
    "surface.pointwise.calls": ("count", "lower"),
    "surface.pointwise.self_s": ("s", "lower"),
    "surface.sample_grid.calls": ("count", "lower"),
    "surface.sample_grid.self_s": ("s", "lower"),
    "surface.valid_sample_ratio": ("ratio", "higher"),
    "ambient.frame_components.calls": ("count", "lower"),
    "ambient.frame_components.self_s": ("s", "lower"),
    "ambient.connection_table.calls": ("count", "lower"),
    "family.assemble.calls": ("count", "lower"),
    "family.assemble.self_s": ("s", "lower"),
    "family.derive_xi3.self_s": ("s", "lower"),
    "constants.fields.calls": ("count", "lower"),
    "constants.fields.self_s": ("s", "lower"),
    "constants.compute_constants.calls": ("count", "lower"),
    "export.export_csv.self_s": ("s", "lower"),
    "export.export_obj.self_s": ("s", "lower"),
    "export.project_grid.self_s": ("s", "lower"),
    "export.bytes_out": ("bytes", "lower"),
    "export.faces": ("count", "higher"),
    "export.defects": ("count", "lower"),
    "cli.interpreter_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.import.numpy_s": ("s", "lower"),
    "cli.import.scipy_s": ("s", "lower"),
    "cli.import.bergerhelix_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.untraced_s": ("s", "lower"),
    "trace.traced_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.missing": ("count", "lower"),
})


def _observe_grid(obs, args, grid):
    nu, nv = grid.shape
    obs["samples"] += nu * nv
    obs["valid_samples"] += nu * nv - len(grid.defects)


def _observe_csv(obs, args, data):
    obs["bytes_out"] += len(data)
    obs["defects"] += len(args[0].defects)


def _observe_obj(obs, args, data):
    obs["bytes_out"] += len(data)


def _observe_mesh(obs, args, mesh):
    obs["faces"] += len(mesh.faces)
    obs["defects"] += len(mesh.defects)


OBSERVERS = {"surface.sample_grid": _observe_grid, "export.export_csv": _observe_csv,
             "export.export_obj": _observe_obj, "export.project_grid": _observe_mesh}


class Tracer:
    """Records spans while installed; ``op`` names the operation in flight."""

    def __init__(self):
        self.spans = []
        self.op = "setup"
        self.missing = []
        self.observed = {"samples": 0, "valid_samples": 0, "bytes_out": 0,
                         "faces": 0, "defects": 0}
        self._stack = []
        self._targets = {}
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, observe = self.spans, self._stack, OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                try:
                    observe(self.observed, args, result)
                except (AttributeError, IndexError, TypeError):
                    self.missing.append(f"observer {name}")
            return result

        return wrapper

    def _collect(self):
        found = set()
        for short in MODULES:
            modname = "bergerhelix." + short
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.missing.append(modname)
                continue
            names = [n for n, obj in vars(mod).items()
                     if inspect.isfunction(obj) and obj.__module__ == modname
                     and not n.startswith("_")]
            if short == "verify":
                names += [n for n in VERIFY_PRIVATE if inspect.isfunction(vars(mod).get(n))]
            for n in names:
                fn = getattr(mod, n)
                self._targets[id(fn)] = (fn, self._wrap(f"{short}.{n}", fn))
                found.add(f"{short}.{n}")
        self.missing += sorted(REQUIRED - found)

    def install(self, also=()):
        """Wrap in every bergerhelix module and in the modules passed in ``also``."""
        if not self._targets:
            self._collect()
        mods = [m for name, m in list(sys.modules.items())
                if name == "bergerhelix" or name.startswith("bergerhelix.")]
        for mod in (*mods, *also):
            for attr, val in list(vars(mod).items()):
                hit = self._targets.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    def summary(self) -> dict:
        return summarize(self.spans, self.observed, self.missing)


def summarize(spans, observed, missing) -> dict:
    """Additive reduction of spans: calls and self time per name.

    Self time is a span's duration minus that of its direct children.
    ``verify.family`` is the stretch of each ``run_all`` before its angle
    sweep starts, where it checks the family A(v) inline.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, op in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls, self_s = {}, {}
    sweep_start = {}
    for i, (name, t0, t1, parent, op) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child[i])
        if (name == VERIFY_CHECKS["angle_sweep"] and parent >= 0
                and spans[parent][0] == "verify.run_all"):
            sweep_start.setdefault(parent, t0)
    family = sum(start - spans[p][1] for p, start in sweep_start.items())
    for name, t0, t1, parent, op in spans:
        if parent in sweep_start and t1 <= sweep_start[parent]:
            family -= t1 - t0
    return {"calls": calls, "self_s": self_s, "family_self_s": family,
            "observed": dict(observed), "missing": sorted(set(missing)), "spans": len(spans)}


def merge(summaries) -> dict:
    """Sum summaries taken in separate processes."""
    out = {"calls": {}, "self_s": {}, "family_self_s": 0.0, "observed": {},
           "missing": [], "spans": 0}
    for s in summaries:
        for key in ("calls", "self_s", "observed"):
            for name, val in s[key].items():
                out[key][name] = out[key].get(name, 0) + val
        out["family_self_s"] += s["family_self_s"]
        out["missing"] = sorted(set(out["missing"]) | set(s["missing"]))
        out["spans"] += s["spans"]
    return out


def layer_metrics(s: dict) -> dict:
    """Per-layer values from a summary; layers that did not run read 0."""
    calls, self_s, obs = s["calls"], s["self_s"], s["observed"]

    def total(table, names):
        return sum(table.get(n, 0) for n in names)

    run_all_self = self_s.get("verify.run_all", 0.0) - s["family_self_s"]
    out = {"verify.family.self_s": s["family_self_s"]}
    out.update({f"verify.{check}.self_s": self_s.get(name, 0.0)
                for check, name in VERIFY_CHECKS.items()})
    samples = obs.get("samples", 0)
    out.update({
        "verify.run_all.self_s": run_all_self,
        "surface.pointwise.calls": total(calls, POINTWISE),
        "surface.pointwise.self_s": total(self_s, POINTWISE),
        "surface.sample_grid.calls": calls.get("surface.sample_grid", 0),
        "surface.sample_grid.self_s": self_s.get("surface.sample_grid", 0.0),
        "surface.valid_sample_ratio": obs.get("valid_samples", 0) / samples if samples else 0.0,
        "ambient.frame_components.calls": calls.get("ambient.frame_components", 0),
        "ambient.frame_components.self_s": self_s.get("ambient.frame_components", 0.0),
        "ambient.connection_table.calls": calls.get("ambient.connection_table", 0),
        "family.assemble.calls": calls.get("family.assemble", 0),
        "family.assemble.self_s": self_s.get("family.assemble", 0.0),
        "family.derive_xi3.self_s": self_s.get("family.derive_xi3", 0.0),
        "constants.fields.calls": total(calls, FIELDS),
        "constants.fields.self_s": total(self_s, FIELDS),
        "constants.compute_constants.calls": calls.get("constants.compute_constants", 0),
        "export.export_csv.self_s": self_s.get("export.export_csv", 0.0),
        "export.export_obj.self_s": self_s.get("export.export_obj", 0.0),
        "export.project_grid.self_s": self_s.get("export.project_grid", 0.0),
        "export.bytes_out": obs.get("bytes_out", 0),
        "export.faces": obs.get("faces", 0),
        "export.defects": obs.get("defects", 0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "trace.missing": len(s["missing"]),
    })
    return out
