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
and :func:`real` (a time lag, a transverse distance, an angle).

Every result has one range rule: a closed form is its plain product, and
it answers only where that product and each of its partial products is a
normal float, TINY <= |x| < inf (an exact 0 from a zero factor, such as
a crossed polarization or q = 0, stays 0).  Anywhere else, subnormal
results included, the call raises the FluctusError of
:func:`out_of_range`, "<the call and its inputs> is outside the float
range"; :func:`normal` is that refusal for a value alone, and
:func:`finite` for a value (an argument formed from others) that is inf
or nan.  Here too is every largest deviation that a nan one must not
vanish from (:func:`largest`).
"""

import math
import sys

#: The smallest normal float: a result or partial product below it in magnitude is refused.
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
    """Convergence study cannot be posed: a = L/N exceeds r/4."""


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


def out_of_range(what: str, *args) -> FluctusError:
    """FluctusError "<what> is outside the float range", ``what`` naming the call
    and its inputs: a ``str.format`` template when ``args`` are given, filled only
    here, on refusal."""
    return FluctusError(f"{what.format(*args) if args else what} is outside the float range")


def finite(value: float, what: str, *args) -> float:
    """``value`` if finite, else the :func:`out_of_range` refusal."""
    if value - value == 0.0:  # false for inf and nan
        return value
    raise out_of_range(what, *args)


def normal(value: float, what: str, *args) -> float:
    """``value`` if a normal float, TINY <= |value| < inf, else the :func:`out_of_range`
    refusal."""
    if TINY <= abs(value) < math.inf:
        return value
    raise out_of_range(what, *args)


def largest(values) -> float:
    """The largest of ``values`` (an iterable of floats, read once), nan if
    any is nan, 0.0 if there are none.  The builtin ``max`` alone keeps its
    running maximum past a nan not first, so a nan deviation would vanish."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)
