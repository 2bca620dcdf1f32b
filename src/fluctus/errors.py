"""Exception types shared across the package.

Domain errors (singular separations, bad material files, non-converging
quadrature) are raised as subclasses of :class:`FluctusError` so callers
can distinguish them from programming mistakes.  Plain precondition
violations on arguments raise the usual ``ValueError``.

The package's argument and float-range rules live here too, unexported.
Every scalar argument of a public call is read once, by one of three
helpers, which convert it with ``float(x)`` (numpy scalars and numeric
strings become Python floats) and return it or refuse it by name with
ValueError: :func:`positive` (a speed, a frequency, a temperature, the
permittivity, a length, the distance to a wall or a plate, or a volume),
:func:`nonnegative` (a distance, a wavenumber, a polarization factor)
and :func:`real` (a time lag, a transverse distance, an angle).  Here
too are every refusal of a value outside the float range
(:func:`finite`), every value formed with its factors' exponents apart
(:func:`scaled`), and every largest deviation that a nan one must not
vanish from (:func:`largest`).
"""

import math
import sys

#: The smallest normal float; a product whose partials all stay above it scales exactly.
TINY = sys.float_info.min


class FluctusError(Exception):
    """Base class for all domain errors raised by this package."""


class MaterialError(FluctusError):
    """Problem with a material definition."""


class UnknownMaterialError(MaterialError):
    """Requested built-in material does not exist."""


class MaterialFileError(MaterialError):
    """Material file could not be parsed; message carries the line number."""


class MaterialValidationError(MaterialError):
    """Material parsed but violates one or more physical invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(f"{v} violated" for v in self.violations))


class SoundConeSingularityError(FluctusError):
    """Separation lies on the sound cone where the correlator diverges."""


class CoincidenceDivergenceError(FluctusError):
    """Both field points coincide; the vacuum variance is divergent."""


class BoundaryContactError(FluctusError):
    """Field point sits on the boundary (z = 0) where the shift diverges."""


class ConvergenceError(FluctusError):
    """Numerical evaluation failed to reach the requested tolerance.

    The achieved relative error estimate is carried so callers can report it.
    """

    def __init__(self, message, achieved):
        self.achieved = achieved
        super().__init__(f"{message} (achieved relative error estimate {achieved:.3e})")


class AliasingError(FluctusError):
    """Displacement too large for the periodic box (|dx| >= L/2)."""


class IllPosedStudyError(FluctusError):
    """Convergence study cannot be posed: a = L/N exceeds r/4, or the
    continuum value it compares against underflows to 0."""


class MissingPropertyError(MaterialError):
    """Operation needs an optional material property that is absent."""

    def __init__(self, field, material):
        self.field = field
        super().__init__(
            f"material '{material}' does not define '{field}', "
            f"which this operation requires"
        )


def positive(value, what: str) -> float:
    """``float(value)`` if positive and finite, else ValueError "<what> must be
    positive and finite, got <value>": the one refusal of a speed, a
    frequency, a temperature, a permittivity, a length (a distance to a
    wall or a plate among them) or a volume argument."""
    if 0.0 < (value := float(value)) < math.inf:
        return value
    raise ValueError(f"{what} must be positive and finite, got {value}")


def nonnegative(value, what: str) -> float:
    """``float(value)`` if finite and >= 0, else ValueError "<what> must be
    finite and >= 0, got <value>": the one refusal of a distance, a
    wavenumber or a polarization factor argument that may be 0."""
    if 0.0 <= (value := float(value)) < math.inf:
        return value
    raise ValueError(f"{what} must be finite and >= 0, got {value}")


def real(value, what: str) -> float:
    """``float(value)`` if finite, else ValueError "<what> must be finite,
    got <value>": the one refusal of a signed argument, a time lag, a
    transverse distance or an angle."""
    if (value := float(value)) - value == 0.0:  # false for inf and nan
        return value
    raise ValueError(f"{what} must be finite, got {value}")


def finite(value: float, what: str, *args) -> float:
    """``value`` if finite, else FluctusError "<what> is outside the float
    range", ``what`` naming the call: a ``str.format`` template when
    ``args`` are given, filled only on refusal."""
    if value - value == 0.0:  # false for inf and nan
        return value
    raise FluctusError(f"{what.format(*args) if args else what} is outside the float range")


def scaled(mantissa: float, exponent: int, what: str, *args) -> float:
    """``mantissa * 2**exponent``, refused by :func:`finite` unless finite.

    For products that leave the normal range part way (hbar * rho0 at
    rho0 = 1e-300): callers multiply the factors' ``math.frexp`` mantissas
    in the plain product's order, keeping its bits where it stays normal,
    and add the exponents, so one ``ldexp`` rounds the result alone."""
    try:
        value = math.ldexp(mantissa, exponent)
    except OverflowError:
        value = math.inf
    return finite(value, what, *args)


def largest(values) -> float:
    """The largest of ``values`` (an iterable of floats, read once), nan if
    any is nan, 0.0 if there are none.  The builtin ``max`` alone keeps its
    running maximum past a nan not first, so a nan deviation would vanish."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)
