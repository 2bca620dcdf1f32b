"""Closed-form phonon-vacuum density correlators.

For a fluid with linear phonon dispersion (frequency = cs * wavenumber)
the ground-state correlator of the density-deviation operator at spatial
distance r and time lag dt is

    <rho rho> = - (hbar rho0 / 2 pi^2 cs) (r^2 + 3 cs^2 dt^2)
                                          / (r^2 - cs^2 dt^2)^3 .

The denominator carries the *unrepeated* time term: this form is the one
the independent spectral quadrature (``fluctus.spectral``) confirms, it
reduces to the equal-time limit -hbar rho0 / (2 pi^2 cs r^4), and it
reproduces the sign structure (anticorrelation outside the sound cone,
positive correlation inside).  A variant with the numerator's factor of
3 repeated in the denominator circulates; the verification suite rejects
it at the >10% level (see ``fluctus.verify``).

Also here: the planar-boundary reduction of the local variance via an
image source (Neumann wall: vanishing normal density derivative), the
electromagnetic counterpart near a reflecting plate for side-by-side
display, the relativistic scalar-field analog obtained by swapping the
sound and light speeds, and the linear-in-q zero-point structure factor.

The closed form, its prefactor and its refusals are written once, in
the private ``_kernel``, which every correlator here, the planar wall
shift (the image term at r = 2z), the rejected variant in
``fluctus.verify`` and ``Separation.regime`` call.  Values on the sound
cone, at coincident points or outside the float range are errors, not
infinities; regulated evaluation lives in ``fluctus.spectral``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import (TINY, BoundaryContactError, CoincidenceDivergenceError, FluctusError,
                     SoundConeSingularityError, finite, nonnegative, positive, real, scaled)
from .medium import HBAR, FluidMedium

__all__ = [
    "Regime",
    "Separation",
    "CorrelatorValue",
    "SOUND_CONE_TOLERANCE",
    "correlator",
    "equal_time_correlator",
    "scalar_field_analog",
    "boundary_shift_planar",
    "boundary_image_term",
    "boundary_correlator",
    "em_vacuum_shift_plate",
    "zero_point_structure_factor",
]

#: Relative half-width of the band around r = cs*|dt| classified as
#: on-cone.  Inside this band the closed form loses digits to
#: cancellation and the physical value diverges, so evaluation refuses.
SOUND_CONE_TOLERANCE = 1e-4


class Regime(enum.Enum):
    """Position of a separation relative to the sound cone."""

    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    ON_CONE = "on-cone"
    COINCIDENT = "coincident"


@dataclass(frozen=True)
class Separation:
    """Spatial distance r >= 0 (m) and time lag dt (s) between two points.

    Both are stored as Python floats (``errors.nonnegative`` and
    ``errors.real`` convert numpy scalars and numeric strings with
    ``float(x)``) and must be finite, whatever their real type.  The
    regime tag is derived against a specific sound speed, since the cone
    position depends on the medium.
    """

    r: float
    dt: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "r", nonnegative(self.r, "separation distance r"))
        object.__setattr__(self, "dt", real(self.dt, "time lag dt"))

    def regime(self, cs: float) -> Regime:
        """Classify against the sound cone of speed cs > 0 by the correlators' refusals."""
        cs = positive(cs, "sound speed")
        try:  # only the refusals matter; f = 1 keeps lab-scale values on the plain path
            _kernel(1.0, cs, -1, self.r, self.dt)
        except CoincidenceDivergenceError:
            return Regime.COINCIDENT
        except SoundConeSingularityError:
            return Regime.ON_CONE
        except FluctusError:
            pass  # off the cone; only the unused value left the float range
        return Regime.SPACELIKE if self.r > cs * abs(self.dt) else Regime.TIMELIKE


@dataclass(frozen=True, init=False)
class CorrelatorValue:
    """A density-squared correlation (kg^2/m^6) with its formula identity.

    ``formula`` names the closed form that produced the number.
    """

    value: float
    formula: str

    def __init__(self, value: float, formula: str):
        # Stored through __dict__: the generated frozen __init__ calls
        # object.__setattr__ per field and takes about twice as long.
        d = self.__dict__
        d["value"] = value
        d["formula"] = formula


# hbar / (2 pi^2), folded once: the kernel's prefactor is this times f c**n.
_HBAR_2PI2 = HBAR / (2.0 * math.pi**2)
# The kernel's refusal of a value, or of a c|dt|, outside the float range.
_OUT_OF_RANGE = "correlator at r = {!r} m, c*|dt| = {!r} m"


def _kernel(f: float, c: float, n: int, r: float, dt: float, k: float = 1.0,
            e: int = 0) -> float:
    """-K 2**e (r^2 + 3 c^2 dt^2) / (r^2 - k c^2 dt^2)^3, K = hbar f c**n / 2 pi^2 (f = rho0,
    n = -1: the density correlators; f = 1, n = 3, as ((hbar / 2 pi^2 c) c) c: the analog;
    k = 1, or 3 for the rejected variant), scale-free as -K 2**e / rho^4 (a^2 + 3 beta^2)
    / (a^2 - k beta^2)^3, rho = max(r, c|dt|), a = r / rho, beta = c|dt| / rho.  Plain
    where e = 0 and hbar f / 2 pi^2, K, rho^2, K / rho^4 and the value are normal, else
    with the exponents of f, c and rho apart (``errors.scaled``), rho and its ratios formed
    from the parts of r and of c|dt| (c's and dt's mantissas and exponents): one range
    decision per call.  Coincident means r = dt = 0, not a c|dt| rounded to 0.  Raises
    CoincidenceDivergenceError there, SoundConeSingularityError in the SOUND_CONE_TOLERANCE
    band, FluctusError outside the float range, an overflowed c|dt| included."""
    b = c * abs(dt)
    # max(r, b) for every float pair, nan and -0.0 included, without the builtin's ~0.2 us call
    rho = b if b > r else r
    # "not >" and "!=" let in, with the cone band, a non-finite r or c|dt| (a nan, or
    # inf - inf) for finite() to refuse: the fallback cannot re-form an infinite c|dt|.
    if not abs(r - b) > SOUND_CONE_TOLERANCE * rho and (rho != 0.0 or dt == 0.0):
        if rho == 0.0:
            raise CoincidenceDivergenceError(
                "coincident points: the vacuum variance diverges")
        finite(r - b, _OUT_OF_RANGE, r, b)
        raise SoundConeSingularityError(
            f"separation lies on the sound cone of speed {c!r} m/s "
            f"(r = {r!r} m, c*|dt| = {b!r} m)")
    s = rho * rho
    h = _HBAR_2PI2 * f
    K = h / c if n < 0 else h * c * c * c
    try:
        a, beta = r / rho, b / rho
        a2, b2 = a * a, beta * beta
        d = a2 - k * b2
        scale = K / s / s
        value = -scale * (a2 + 3.0 * b2) / (d * d * d)
    except ZeroDivisionError:  # rho or s underflowed to 0, or d^3 (the variant's own root)
        scale = value = 0.0
    if h >= TINY and K >= TINY and s >= TINY and scale >= TINY and not e and value - value == 0.0:
        return value
    # The ratios again in units of 2**ex, bit for bit the plain ones where c|dt| is normal;
    # ex from c|dt| = m |t| 2**(ec + et) where rho rounded to 0.
    (h, ef), (m, ec), (t, et), (x, ex) = map(math.frexp, (f, c, dt, rho))
    ex = ex if rho else math.frexp(m * abs(t))[1] + ec + et
    a, beta = math.ldexp(r, -ex), math.ldexp(m * abs(t), ec + et - ex)
    x = max(a, beta)
    a2, b2 = (a / x) * (a / x), (beta / x) * (beta / x)
    d = a2 - k * b2
    h *= _HBAR_2PI2
    x *= x
    return scaled(-(h / m if n < 0 else h * m * m * m) / x / x * (a2 + 3.0 * b2)
                  / (d * d * d or math.nan), ef + n * ec + e - 4 * ex, _OUT_OF_RANGE, r, b)


def _density_scale(medium: FluidMedium, x: float, length: float, p: int, what: str,
                   *args) -> float:
    """hbar rho0 x length**p / cs, with every factor's exponent apart (``errors.scaled``):
    the scale of the structure factor (x = 1/2, p = 1) and of the two numerical oracles,
    which sum in units of a length.  ``what`` and ``args`` name the call on refusal."""
    (m, e), (xm, ex), (lm, el), (c, ec) = map(math.frexp, (medium.rho0, x, length, medium.cs))
    return scaled(HBAR * m * xm * lm**p / c, e + ex + p * el - ec, what, *args)


def _wall(z1, z2, transverse, dt) -> tuple[float, float, float, float]:
    # The boundary pair's arguments as floats, refused by name in this order.
    return (positive(z1, "distance to wall z1"), positive(z2, "distance to wall z2"),
            real(transverse, "transverse distance"), real(dt, "time lag dt"))


def _image(medium: FluidMedium, z1: float, z2: float, transverse: float, dt: float,
           e: int = 0) -> float:
    # The image term's value (times 2**e) at checked arguments (``_wall``): the free
    # correlator at z2 reflected to -z2.
    return _kernel(medium.rho0, medium.cs, -1, math.hypot(transverse, z1 + z2), dt, 1.0, e)


def correlator(medium: FluidMedium, sep: Separation) -> CorrelatorValue:
    """Vacuum density correlator at separation ``sep``.

    Negative for spacelike separations (fluctuations anticorrelated: an
    overdensity at one point sits next to an underdensity), positive for
    timelike ones (causally connected fluctuations).

    Raises
    ------
    SoundConeSingularityError, CoincidenceDivergenceError
        On or at the apex of the sound cone.
    """
    return CorrelatorValue(_kernel(medium.rho0, medium.cs, -1, sep.r, sep.dt),
                           "density-correlator")


def equal_time_correlator(medium: FluidMedium, r: float) -> CorrelatorValue:
    """Equal-time correlator -hbar rho0 / (2 pi^2 cs r^4); r > 0.

    Strictly negative, and identical (bit for bit) to
    ``correlator(medium, Separation(r, 0))``: r is read as a float by
    ``errors.nonnegative``, r = 0 raises CoincidenceDivergenceError, and a
    negative, infinite or nan r raises ValueError naming the distance r.
    """
    r = nonnegative(r, "distance r")  # r = 0 is the kernel's CoincidenceDivergenceError
    return CorrelatorValue(_kernel(medium.rho0, medium.cs, -1, r, 0.0), "equal-time-correlator")


def scalar_field_analog(c_light: float, sep: Separation) -> float:
    """Correlator of the time derivative of a massless scalar field.

    Same closed form as the density correlator with the speed of sound
    replaced by ``c_light``:

        <phidot phidot> = -(hbar c^3 / 2 pi^2) (r^2 + 3 c^2 dt^2)
                                               / (r^2 - c^2 dt^2)^3 .

    Substituting c -> cs makes the ratio to ``correlator`` a single
    separation-independent constant, which is the analog-model map.
    ``c_light`` is read as a float by ``errors.positive``.
    """
    return _kernel(1.0, positive(c_light, "propagation speed"), 3, sep.r, sep.dt)


def boundary_shift_planar(medium: FluidMedium, z: float) -> CorrelatorValue:
    """Shift of the mean squared density at distance z from a plane wall.

    An impenetrable wall forces the normal derivative of the density to
    vanish; renormalizing against the boundary-free vacuum leaves

        <(delta rho)^2>_R = - hbar rho0 / (32 pi^2 cs z^4),

    the free equal-time correlator at the image distance 2z.  The minus
    sign is a *reduction* of the fluctuations near the wall, the acoustic
    counterpart of the shift in the mean squared electromagnetic fields
    near a reflecting plate (:func:`em_vacuum_shift_plate`).

    z is read as a float (``errors.positive``): a z whose float is 0
    raises BoundaryContactError, and one that is otherwise not positive
    and finite raises ValueError naming the distance to the wall.
    """
    if float(z) == 0.0:
        raise BoundaryContactError("z = 0: the renormalized variance diverges at the wall")
    z = positive(z, "distance to wall")
    return CorrelatorValue(_kernel(medium.rho0, medium.cs, -1, 2.0 * z, 0.0),
                           "planar-boundary-shift")


def boundary_image_term(medium: FluidMedium, z1: float, z2: float,
                        transverse: float = 0.0, dt: float = 0.0) -> CorrelatorValue:
    """Image-source contribution to the boundary correlator.

    The Neumann wall is realized by adding, with positive sign, the free
    correlator evaluated at the image separation (z2 reflected to -z2).
    This term stays finite at coincident field points, where it *is* the
    renormalized variance shift: at z1 = z2 = z, transverse = dt = 0 the
    image sits at distance 2z and the term equals
    :func:`boundary_shift_planar` exactly.

    z1 and z2 must be positive and finite, and are refused first, by name,
    with ValueError; so are an infinite or nan ``transverse`` or ``dt``.
    All four are read as floats (``errors.positive``, ``errors.real``).
    """
    return CorrelatorValue(_image(medium, *_wall(z1, z2, transverse, dt)),
                           "boundary-image-term")


def boundary_correlator(medium: FluidMedium, z1: float, z2: float,
                        transverse: float = 0.0, dt: float = 0.0) -> CorrelatorValue:
    """Density correlator in the presence of a planar Neumann wall.

    Image construction: free correlator at the direct separation plus
    the free correlator at the image separation.  Both separations must
    be off the sound cone; the direct one must not be coincident.
    Sending the transverse distance to infinity recovers the free
    correlator; z1 or z2 not positive and finite, or an infinite or nan
    ``transverse`` or ``dt``, raises ValueError naming it, and all four
    are read as floats, once.  Two finite terms whose sum leaves the
    float range raise FluctusError.
    """
    z1, z2, transverse, dt = _wall(z1, z2, transverse, dt)
    image = _image(medium, z1, z2, transverse, dt)
    rd = math.hypot(transverse, z1 - z2)
    direct = _kernel(medium.rho0, medium.cs, -1, rd, dt)
    value = direct + image
    if -TINY < direct < TINY or -TINY < image < TINY or value - value != 0.0:
        # A term lost digits below the normal range, or the sum overflowed: add over 2**e.
        e = math.frexp(max(abs(direct), abs(image)))[1]
        value = scaled(_kernel(medium.rho0, medium.cs, -1, rd, dt, 1.0, -e)
                       + _image(medium, z1, z2, transverse, dt, -e), e,
                       "boundary_correlator at z1 = {!r} m, z2 = {!r} m, "
                       "transverse = {!r} m, dt = {!r} s", z1, z2, transverse, dt)
    return CorrelatorValue(value, "boundary-correlator")


def em_vacuum_shift_plate(z: float) -> tuple[float, float]:
    """Mean-squared E and B shifts near a perfectly reflecting plate.

    Returned as dimensionless coefficients of hbar*c/z^4 (so no
    electromagnetic unit system is committed to):

        <E^2> = +3/(16 pi^2),   <B^2> = -3/(16 pi^2).

    Shown side by side with :func:`boundary_shift_planar` in the CLI;
    note <E^2> = -<B^2> while the density shift has a definite sign.
    z is read as a float (``errors.positive``): a z whose float is 0
    raises BoundaryContactError, and one that is otherwise not positive
    and finite raises ValueError naming the distance to the plate.
    """
    if float(z) == 0.0:
        raise BoundaryContactError("z = 0: plate-contact divergence")
    positive(z, "distance to plate")
    coeff = 3.0 / (16.0 * math.pi**2)
    return (coeff, -coeff)


def zero_point_structure_factor(medium: FluidMedium, q: float) -> float:
    """Spectral density of vacuum density fluctuations at wavenumber q.

    Per-mode weight hbar rho0 Omega_q / (2 cs^2) with Omega_q = cs q,
    i.e. hbar rho0 q / (2 cs): linear in q and vanishing at q = 0.  The
    linear spectrum is what turns the fourth power of frequency in
    thermal light scattering into the fifth power for the zero-point
    contribution (kg^2/m^3).  q is read as a float by
    ``errors.nonnegative``.
    """
    q = nonnegative(q, "wavenumber q")
    return _density_scale(medium, 0.5, q, 1,
                          "zero_point_structure_factor for '{.name}' at q = {:.6g} 1/m", medium, q)
