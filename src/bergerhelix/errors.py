"""Exception types shared across the package, and its one range check."""

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


def check_range(x, lo: float, hi: float, name: str) -> np.ndarray:
    """x as a float array, raising OutOfDomain when a value lies more than
    1e-12 outside [lo, hi]."""
    x = np.asarray(x, dtype=float)
    if np.any(x < lo - 1e-12) or np.any(x > hi + 1e-12):
        raise OutOfDomain(f"{name} outside [{lo}, {hi}]")
    return x
