"""Exception types shared across the package, its range check and array cast."""

import numpy as np


class GeometryError(ValueError):
    """Base class for all domain errors raised by this package."""


class InvalidAngle(GeometryError):
    """theta outside the admissible open interval (0, pi/2)."""


class OutOfDomain(GeometryError):
    """A value outside the domain where it is defined: a parameter, a point
    off the sphere, a vector off its tangent space, a pole of a projection
    or of tan, an empty grid or an unsupported derivative order."""


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
    more than 1e-12 outside [lo, hi]."""
    x = as_array(x)
    if np.any(x.real < lo - 1e-12) or np.any(x.real > hi + 1e-12):
        raise OutOfDomain(f"{name} outside [{lo}, {hi}]")
    return x
