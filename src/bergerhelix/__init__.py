"""Constant-angle (helix) surfaces in Berger spheres.

Construction of the explicit parametrization F(u, v) = A(v) beta(u),
numerical certification of its defining identities, and mesh export.
The top level re-exports what a caller of the pipeline needs; every
other name lives in its submodule.  A re-export is resolved the first
time it is used (PEP 562), so ``import bergerhelix`` loads no submodule
and the CLI loads only the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE = {
    "BergerParams": "ambient",
    "HelixConstants": "constants", "compute_constants": "constants",
    "Constant": "family", "Linear": "family", "Sinusoid": "family", "XiProfile": "family",
    "derive_xi3": "family", "example_profile": "family", "profile_from_config": "family",
    "HelixSurface": "surface", "SurfaceGrid": "surface", "make_surface": "surface",
    "sample_grid": "surface",
    "CheckReport": "verify", "VerifyConfig": "verify", "run_all": "verify",
    "ProjectedMesh": "export", "export_csv": "export", "export_obj": "export",
    "project_grid": "export",
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
