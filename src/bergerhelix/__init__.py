"""Constant-angle (helix) surfaces in Berger spheres.

Construction of the explicit parametrization F(u, v) = A(v) beta(u),
numerical certification of its defining identities, and mesh export.
The top level re-exports what a caller of the pipeline needs; every
other name lives in its submodule.
"""

from .ambient import BergerParams
from .constants import HelixConstants, compute_constants
from .family import (
    Constant,
    Linear,
    Sinusoid,
    XiProfile,
    derive_xi3,
    example_profile,
    profile_from_config,
)
from .surface import HelixSurface, SurfaceGrid, make_surface, sample_grid
from .verify import CheckReport, VerifyConfig, run_all
from .export import ProjectedMesh, export_csv, export_obj, project_grid

__version__ = "0.1.0"

__all__ = [
    "BergerParams", "CheckReport", "Constant", "HelixConstants", "HelixSurface",
    "Linear", "ProjectedMesh", "Sinusoid", "SurfaceGrid", "VerifyConfig",
    "XiProfile", "compute_constants", "derive_xi3", "example_profile",
    "export_csv", "export_obj", "make_surface", "profile_from_config",
    "project_grid", "run_all", "sample_grid",
]
