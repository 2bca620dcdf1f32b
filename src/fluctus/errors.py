"""Exception types shared across the package.

Domain errors (singular separations, bad material files, non-converging
quadrature) are raised as subclasses of :class:`FluctusError` so callers
can distinguish them from programming mistakes.  Plain precondition
violations on arguments raise the usual ``ValueError``.
"""


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
