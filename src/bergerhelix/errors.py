"""Exception types shared across the package, its range and grid-size
checks and array cast."""

import numbers

import numpy as np


class GeometryError(ValueError):
    """Base class for all domain errors raised by this package."""


class InvalidAngle(GeometryError):
    """theta outside the admissible open interval (0, pi/2)."""


class OutOfDomain(GeometryError):
    """A value outside the domain where it is defined: a parameter, a pole
    of tan, a grid size, an empty grid, a face index outside its mesh or an
    unsupported derivative order."""


class DegenerateTangentPlane(GeometryError):
    """F_u and F_v are (numerically) linearly dependent at the sample."""


class ConfigError(GeometryError):
    """Malformed profile or run configuration, or a profile whose xi3
    cannot be derived."""


def as_array(x) -> np.ndarray:
    """x as a float array, or a complex one when x is complex, so that a
    complex step keeps the imaginary part a float cast would drop."""
    return np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)


def check_range(x, lo: float, hi: float, name: str) -> np.ndarray:
    """x as_array, raising OutOfDomain when the real part of a value lies
    more than 1e-12 outside [lo, hi].  A NaN is not outside: fmin and fmax
    skip it, where min and max would return it and hide a value beside it."""
    x = as_array(x)
    if (np.fmin.reduce(x.real, axis=None, initial=np.inf) < lo - 1e-12
            or np.fmax.reduce(x.real, axis=None, initial=-np.inf) > hi + 1e-12):
        raise OutOfDomain(f"{name} outside [{lo}, {hi}]")
    return x


def check_grid_size(nu, nv, error) -> None:
    """Raise error unless nu and nv are integers of at least 2, the sample
    counts of a grid's two axes."""
    if not all(isinstance(n, numbers.Integral) and n >= 2 for n in (nu, nv)):
        raise error(f"grid needs integers nu, nv >= 2, got ({nu}, {nv})")
