"""Light-scattering observables of the phonon vacuum and the thermal bath.

Scattering of a photon with emission of one phonon is assembled two
independent ways:

* a first-order golden-rule chain (squared matrix element, final-state
  density, flux normalization) in :func:`zp_cross_section_chain`, where
  the quantization volume cancels analytically; and
* the closed-form differential cross section per unit scattering volume
  in :func:`zp_cross_section_exact`,

      d sigma / d Omega = hbar w w'^3 Wq eta^4 / (32 pi^2 c^4 cs^2 rho0)
                          * (e.e')^2 ,

  which with the small-shift kinematics w' ~ w collapses to the
  fifth-power-of-frequency law of :func:`zp_cross_section_reduced`.

The thermal counterparts (Brillouin doublet and Rayleigh centre line)
and the headline zero-point/thermal ratio

    R = sqrt(2 (1 - cos theta)) (hbar w / 2 kB T) (cs / c) eta^4
        / [rho0 (d eps/d rho0)_S]^2

complete the set.  All cross sections are per unit scattering volume
(1/(m sr)); multiply by the illuminated volume for an apparatus value.
The zero-point channel creates a phonon, so it feeds only the
frequency-downshifted (Stokes) side of the Brillouin doublet.

Every cross section and the ratio is right over the float range, or a
FluctusError naming the function, the medium and omega: its plain product
where every partial product is normal, else its factors' exponents apart
(``_apart``), rounded once by ``fluctus.errors.scaled``, which refuses.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import (TINY, FluctusError, MissingPropertyError, finite, nonnegative, positive,
                     real, scaled)
from .medium import C_LIGHT, HBAR, K_B, FluidMedium

__all__ = [
    "Polarization",
    "ScatteringConfig",
    "Kinematics",
    "CrossSectionValue",
    "omega_from_wavelength",
    "phonon_kinematics",
    "polarization_factor",
    "matrix_element_sq",
    "density_of_states",
    "incident_flux",
    "zp_cross_section_chain",
    "zp_cross_section_exact",
    "zp_cross_section_reduced",
    "adiabatic_compressibility",
    "thermal_brillouin_cross_section",
    "thermal_total_cross_section",
    "ratio_zp_thermal",
]


class Polarization(enum.Enum):
    """Linear polarization selection relative to the scattering plane."""

    PERPENDICULAR = "perpendicular"
    PARALLEL = "parallel"
    CROSSED = "crossed"
    UNPOLARIZED = "unpolarized"


# The members, looked up once: an enum member lookup costs more than the
# arithmetic of polarization_factor.
_PERPENDICULAR = Polarization.PERPENDICULAR
_PARALLEL = Polarization.PARALLEL
_CROSSED = Polarization.CROSSED
_UNPOLARIZED = Polarization.UNPOLARIZED


@dataclass(frozen=True)
class ScatteringConfig:
    """Incident light and detection geometry.

    ``omega`` is the vacuum-definition angular frequency (2 pi c over the
    vacuum wavelength), ``theta`` the scattering angle in radians in
    (0, pi], ``temperature`` the bath temperature for thermal quantities
    (None defers to the medium's reference temperature).  The three
    numbers are stored as Python floats (``float(x)``: numpy scalars and
    numeric strings are converted), so a non-finite value of any real
    type is refused; ``omega`` and ``temperature`` must be positive and
    finite, and are read by ``errors.positive``.
    """

    omega: float
    theta: float
    pol: Polarization = Polarization.PERPENDICULAR
    temperature: float | None = None

    def __post_init__(self):
        # Stored as Python floats, each before its check, as FluidMedium stores its numbers.
        object.__setattr__(self, "omega", positive(self.omega, "angular frequency"))
        object.__setattr__(self, "theta", float(self.theta))
        if not 0.0 < self.theta <= math.pi:
            raise ValueError(f"scattering angle must lie in (0, pi], got {self.theta}")
        if self.temperature is not None:
            object.__setattr__(self, "temperature",
                               positive(self.temperature, "temperature"))


def omega_from_wavelength(wavelength: float) -> float:
    """Angular frequency from the vacuum wavelength (m), read as a float by
    ``errors.positive``."""
    return finite(2.0 * math.pi * C_LIGHT / positive(wavelength, "wavelength"),
                  "omega_from_wavelength at wavelength = {:.6g} m", wavelength)


@dataclass(frozen=True)
class Kinematics:
    """Frequencies of a single phonon-emission event (all rad/s, q in 1/m).

    Energy bookkeeping omega = omega_prime + omega_q holds exactly.
    """

    omega: float
    omega_prime: float
    omega_q: float
    q: float


# Constant factors of the closed forms, folded once.
_TWO_PI_HBAR = 2.0 * math.pi / HBAR                            # golden rule
_HBAR3_8 = HBAR * HBAR * HBAR / 8.0                            # matrix element
_DOS = 1.0 / (HBAR * (2.0 * math.pi * C_LIGHT) ** 3)           # density of states
_ZP_EXACT = HBAR / (32.0 * math.pi**2 * C_LIGHT**4)            # zero-point, exact
_ZP_REDUCED = HBAR / (32.0 * math.pi**2 * C_LIGHT**5)          # zero-point, omega^5
_THERMAL = K_B / (16.0 * math.pi**2 * C_LIGHT**4)              # thermal lines
_HBAR_2KB = HBAR / (2.0 * K_B)                                 # ratio


def _angular(theta: float) -> float:
    # sqrt(2 (1 - cos theta)) written without the cancellation that
    # zeroes it below theta ~ 1e-8; below 2**-26 it rounds to theta itself,
    # which a subnormal 0.5 theta would lose bits of.
    return theta if theta < 2.0**-26 else 2.0 * math.sin(0.5 * theta)


#: How a refused cross section or ratio names itself (format with its name, medium, config).
_AT_OMEGA = "{} for '{.name}' at omega = {.omega:.6g} rad/s"

#: The largest x = hbar Omega_q / kB T at which ``ratio_zp_thermal`` answers.  Its thermal
#: line weights the phonon by the classical occupation 1 / x, which the Stokes weight
#: 1 / (1 - e^-x) already exceeds by 5 % at x = 0.1; beyond it the ratio is wrong.
_RATIO_X_MAX = 0.1


def _apart(c: float, factors, pol: float, what: str, *args, e: int = 0) -> float:
    """c times or over each factor x (n = 1, -1) or its square (n = 2, -2) in turn, times pol
    2**e, on the factors' ``math.frexp`` mantissas with the exponents apart, rounded once by
    ``errors.scaled``: the plain form's bits wherever all its partial products are normal."""
    for x, n in factors:
        m, ex = math.frexp(x)
        e += n * ex
        m = m * m if n * n == 4 else m
        c = c * m if n > 0 else c / m
    return scaled(c * pol, e, what, *args)


def _shift(medium: FluidMedium, omega: float, theta: float) -> tuple[float, float]:
    # (omega_prime, omega_q) of phonon_kinematics.
    omega_prime = omega - _angular(theta) * (medium.cs / C_LIGHT) * omega
    # Re-derive the shift from the rounded difference so that
    # omega_prime + omega_q reproduces omega exactly in floating point.
    return omega_prime, omega - omega_prime


def _emitted_shift(medium: FluidMedium, cfg: ScatteringConfig,
                   formula: str) -> tuple[float, float]:
    """:func:`_shift` for a cross section, refused by name where Omega_q or
    omega' is 0: as theta > 0 and cs < c/2, only where the float resolution
    of omega cannot hold the split, and a cross section built on it is wrong.
    """
    omega_prime, omega_q = _shift(medium, cfg.omega, cfg.theta)
    if omega_q == 0.0 or omega_prime == 0.0:
        raise FluctusError(_AT_OMEGA.format(formula, medium, cfg) + ": the phonon shift "
                           "or omega' lies below the float resolution of omega")
    return omega_prime, omega_q


def phonon_kinematics(medium: FluidMedium, cfg: ScatteringConfig) -> Kinematics:
    """Emitted-phonon frequency and scattered light frequency.

    Energy and momentum conservation with a phonon much slower than the
    light give

        Omega_q = sqrt(2 (1 - cos theta)) (cs / c) omega,

    always a fraction of omega (at most 2 cs/c < 1 at backscatter).
    """
    omega_prime, omega_q = _shift(medium, cfg.omega, cfg.theta)
    return Kinematics(cfg.omega, omega_prime, omega_q, omega_q / medium.cs)


def polarization_factor(theta: float, pol: Polarization) -> float:
    """Squared polarization overlap (e.e')^2 for the selection ``pol``.

    Perpendicular to the scattering plane: 1.  In-plane (parallel):
    cos^2 theta.  Crossed selections are orthogonal: 0.  Unpolarized:
    average over incident and sum over scattered linear polarizations,
    (1 + cos^2 theta)/2.  ``theta`` (radians) is read as a float by
    ``errors.real``: an infinite or nan angle raises ValueError naming it.
    """
    return _overlap(real(theta, "scattering angle theta"), pol)


def _overlap(theta: float, pol: Polarization) -> float:
    # polarization_factor at a checked theta: the cross sections pass a
    # ScatteringConfig's, which its construction checked.
    if pol is _PERPENDICULAR:
        return 1.0
    c = math.cos(theta)
    if pol is _PARALLEL:
        return c * c
    if pol is _CROSSED:
        return 0.0
    if pol is _UNPOLARIZED:
        return 0.5 * (1.0 + c * c)
    raise ValueError(f"unknown polarization selection {pol!r}")


@dataclass(frozen=True, init=False)
class CrossSectionValue:
    """Differential cross section per unit scattering volume, 1/(m sr).

    ``formula`` identifies the producing closed form and ``pol_factor``
    echoes the squared polarization overlap that was applied.
    """

    value: float
    formula: str
    pol_factor: float

    def __init__(self, value: float, formula: str, pol_factor: float):
        d = self.__dict__  # as in CorrelatorValue, for speed
        d["value"] = value
        d["formula"] = formula
        d["pol_factor"] = pol_factor


def _m2(rho0: float, cs: float, omega: float, omega_prime: float, omega_q: float,
        volume: float, pol_factor: float) -> float:
    # matrix_element_sq's arithmetic on bare numbers; may leave the float range.
    return (_HBAR3_8 * omega * omega_prime * omega_q / volume / rho0 / cs / cs) * pol_factor


def _dos(omega_prime: float, epsilon0: float, volume: float) -> float:
    # density_of_states's arithmetic; may leave the float range.
    try:
        e15 = epsilon0**1.5
    except OverflowError:
        e15 = math.inf
    return volume * omega_prime * omega_prime * e15 * _DOS


def _flux(epsilon0: float, volume: float) -> float:
    # incident_flux's arithmetic; a box that underflowed to 0 gives inf.
    box = volume * math.sqrt(epsilon0)
    return C_LIGHT / box if box else math.inf


def matrix_element_sq(medium: FluidMedium, omega: float, omega_prime: float,
                      omega_q: float, volume: float, pol_factor: float) -> float:
    """Squared first-order matrix element for photon -> photon + phonon (J^2).

    hbar^3 omega omega' Omega_q / (8 V rho0 cs^2) times the squared
    polarization overlap; scales as 1/V with the quantization volume.
    omega, omega_prime, omega_q and then the volume must be positive and
    finite, and then ``pol_factor`` finite and >= 0, else ValueError names
    the first that is not; each is read as a float (``errors.positive``,
    ``errors.nonnegative``).
    """
    return finite(_m2(medium.rho0, medium.cs, positive(omega, "angular frequency omega"),
                      positive(omega_prime, "scattered frequency omega_prime"),
                      positive(omega_q, "phonon frequency omega_q"),
                      positive(volume, "quantization volume"),
                      nonnegative(pol_factor, "polarization factor pol_factor")),
                  "matrix_element_sq for '{.name}' at omega = {:.6g} rad/s, "
                  "volume = {:.6g} m^3", medium, omega, volume)


def density_of_states(omega_prime: float, epsilon0: float, volume: float) -> float:
    """Photon final states per unit energy per steradian in the dielectric.

    V omega'^2 epsilon0^(3/2) / (hbar (2 pi c)^3); the epsilon0^(3/2)
    counts the compressed in-medium mode spacing.  omega_prime, the
    permittivity epsilon0 and the volume must be positive and finite, else
    ValueError names the first that is not; each is read as a float
    (``errors.positive``).
    """
    return finite(_dos(positive(omega_prime, "scattered frequency omega_prime"),
                       positive(epsilon0, "permittivity epsilon0"),
                       positive(volume, "quantization volume")),
                  "density_of_states at omega_prime = {:.6g} rad/s, epsilon0 = {:.6g}, "
                  "volume = {:.6g} m^3", omega_prime, epsilon0, volume)


def incident_flux(epsilon0: float, volume: float) -> float:
    """Flux of one photon in the quantization box: c / (V sqrt(epsilon0)).

    The permittivity epsilon0 and the volume must be positive and finite,
    else ValueError names the first that is not; each is read as a float
    (``errors.positive``).
    """
    return finite(_flux(positive(epsilon0, "permittivity epsilon0"),
                        positive(volume, "quantization volume")),
                  "incident_flux at epsilon0 = {:.6g}, volume = {:.6g} m^3", epsilon0, volume)


def _golden_rule(rho0: float, cs: float, epsilon0: float, omega: float, omega_prime: float,
                 omega_q: float, v: float, pol: float) -> tuple[float, float, float]:
    # (|M|^2, rate, flux V) at volume v; (inf, inf, 1) where a piece, and so the chain, is
    # refused: the public pieces' arithmetic, with their finite check on the floats.
    m2 = _m2(rho0, cs, omega, omega_prime, omega_q, v, pol)
    dos = _dos(omega_prime, epsilon0, v)
    flux = _flux(epsilon0, v)
    if m2 - m2 == 0.0 and dos - dos == 0.0 and flux - flux == 0.0:
        return m2, _TWO_PI_HBAR * m2 * dos, flux * v
    return math.inf, math.inf, 1.0


def zp_cross_section_chain(medium: FluidMedium, cfg: ScatteringConfig,
                           volume: float = 1.0) -> CrossSectionValue:
    """Zero-point cross section assembled from the golden-rule chain.

    (2 pi / hbar) |M|^2 rho_f / (flux * V), per unit scattering volume.
    Every quantization-volume factor cancels analytically, so the result
    is independent of ``volume``; the parameter exists to demonstrate
    that cancellation.  The pieces take V's ``math.frexp`` mantissa, as its
    power of two cancels exactly: no piece leaves the float range for V.
    """
    pol = _overlap(cfg.theta, cfg.pol)
    if pol == 0.0:
        return CrossSectionValue(0.0, "zp-golden-rule-chain", pol)
    omega_prime, omega_q = _emitted_shift(medium, cfg, "zp_cross_section_chain")
    v = math.frexp(positive(volume, "quantization volume"))[0]
    rho0, cs, eps0 = medium.rho0, medium.cs, medium.eta * medium.eta
    m2, rate, flux_volume = _golden_rule(rho0, cs, eps0, cfg.omega, omega_prime, omega_q, v, pol)
    # Plain where every partial product is normal: m2 cs^2 is the one before / cs^2, and m2
    # cs^2 rho0 v bounds hbar^3/8 omega omega' Omega_q, the least product of frequencies.
    if (m2 >= TINY and (x := m2 * cs * cs) >= TINY and x * rho0 * v >= TINY
            and rate >= TINY and TINY <= (value := rate / flux_volume) < math.inf):
        return CrossSectionValue(value, "zp-golden-rule-chain", pol)
    # Else again at rho0's mantissa and omega scaled into [2**-22, 2**-21): Omega_q >= omega's
    # resolution, and omega'^2 < 2**-42 < 1 / _DOS keeps the density of states below eps0^1.5.
    (m, e), (w, ew) = math.frexp(rho0), math.frexp(cfg.omega)
    w, ew = math.ldexp(w, -21), ew + 21
    _, rate, flux_volume = _golden_rule(m, cs, eps0, w, *_shift(medium, w, cfg.theta), v, pol)
    return CrossSectionValue(_apart(1.0, ((rate, 1), (flux_volume, -1)), 1.0, _AT_OMEGA,
                                    "zp_cross_section_chain", medium, cfg, e=5 * ew - e),
                             "zp-golden-rule-chain", pol)


def zp_cross_section_exact(medium: FluidMedium, cfg: ScatteringConfig) -> CrossSectionValue:
    """Closed-form zero-point cross section with exact kinematics.

    hbar omega omega'^3 Omega_q eta^4 / (32 pi^2 c^4 cs^2 rho0) times the
    polarization factor, per unit scattering volume.  Linear in hbar:
    this channel disappears in the classical limit.
    """
    pol = _overlap(cfg.theta, cfg.pol)
    if pol == 0.0:
        return CrossSectionValue(0.0, "zp-exact", pol)
    omega_prime, omega_q = _emitted_shift(medium, cfg, "zp_cross_section_exact")
    omega, eta, cs, rho0 = cfg.omega, medium.eta, medium.cs, medium.rho0
    eta2 = eta * eta
    # Plain where every partial product is normal: those before y fall to it if omega < 1, else
    # stay >= _ZP_EXACT 2**-159 (omega', Omega_q >= 2**-53 omega as not 0); eta^2 >= 1 raises.
    if ((y := _ZP_EXACT * omega * omega_prime * omega_prime * omega_prime * omega_q) >= TINY
            and (x := y * eta2 * eta2 / cs / cs) >= TINY and TINY <= (z := x / rho0) < math.inf):
        return CrossSectionValue(z * pol, "zp-exact", pol)
    return CrossSectionValue(_apart(_ZP_EXACT, ((omega, 1), (omega_prime, 1), (omega_prime, 1),
        (omega_prime, 1), (omega_q, 1), (eta, 2), (eta, 2), (cs, -1), (cs, -1), (rho0, -1)),
        pol, _AT_OMEGA, "zp_cross_section_exact", medium, cfg), "zp-exact", pol)


def zp_cross_section_reduced(medium: FluidMedium, cfg: ScatteringConfig) -> CrossSectionValue:
    """Zero-point cross section in the fifth-power-of-frequency form.

    sqrt(2 (1 - cos theta)) hbar omega^5 eta^4 / (32 pi^2 c^5 cs rho0)
    times the polarization factor.  The omega^5 law is the fourth power
    familiar from quasi-elastic scattering times one more power from the
    linear zero-point spectrum; relative to :func:`zp_cross_section_exact`
    the neglected recoil is bounded by 4 Omega_q / omega.
    """
    pol = _overlap(cfg.theta, cfg.pol)
    a, omega, eta, cs, rho0 = _angular(cfg.theta), cfg.omega, medium.eta, medium.cs, medium.rho0
    omega2, eta2 = omega * omega, eta * eta
    # Plain where every partial product is normal: omega's powers take k monotonically to y.
    if ((k := a * _ZP_REDUCED) >= TINY and (y := k * omega2 * omega2 * omega) >= TINY
            and (x := y * eta2 * eta2 / cs) >= TINY and TINY <= (z := x / rho0) < math.inf):
        return CrossSectionValue(z * pol, "zp-omega5", pol)
    return CrossSectionValue(_apart(_ZP_REDUCED, (
        (a, 1), (omega, 2), (omega, 2), (omega, 1), (eta, 2), (eta, 2), (cs, -1), (rho0, -1)),
        pol, _AT_OMEGA, "zp_cross_section_reduced", medium, cfg), "zp-omega5", pol)


def adiabatic_compressibility(medium: FluidMedium) -> float:
    """beta_S = 1 / (rho0 cs^2), in 1/Pa.

    Raises FluctusError where the value leaves the float range.
    """
    return _apart(1.0, ((medium.rho0, -1), (medium.cs, -1), (medium.cs, -1)), 1.0,
                  "adiabatic_compressibility for '{.name}'", medium)


def thermal_brillouin_cross_section(medium: FluidMedium,
                                    cfg: ScatteringConfig) -> CrossSectionValue:
    """Thermal Brillouin cross section per unit scattering volume.

    omega^4 kB T / (16 pi^2 c^4 cs^2 rho0) * [rho0 (d eps/d rho0)_S]^2
    times the polarization factor.  Classical (no hbar) and linear in T.
    """
    T = cfg.temperature or medium.default_temperature
    pol = _overlap(cfg.theta, cfg.pol)
    omega, drho, cs, rho0 = cfg.omega, medium.drho, medium.cs, medium.rho0
    omega2 = omega * omega
    # Plain where every partial product is normal: each unchecked one is bounded by checked ones.
    if ((y := _THERMAL * omega2 * omega2) >= TINY and (t := y * T) >= TINY
            and (u := t * drho * drho) >= TINY and (x := u / cs / cs) >= TINY
            and TINY <= (z := x / rho0) < math.inf):
        return CrossSectionValue(z * pol, "thermal-brillouin", pol)
    return CrossSectionValue(_apart(_THERMAL, (
        (omega, 2), (omega, 2), (T, 1), (drho, 1), (drho, 1), (cs, -1), (cs, -1), (rho0, -1)),
        pol, _AT_OMEGA, "thermal_brillouin_cross_section", medium, cfg), "thermal-brillouin", pol)


def thermal_total_cross_section(medium: FluidMedium,
                                cfg: ScatteringConfig) -> CrossSectionValue:
    """Brillouin plus Rayleigh thermal cross section per unit volume.

    omega^4 kB T / (16 pi^2 c^4) * [ beta_S rho0^2 (d eps/d rho0)_S^2
    + (T / rho0 cP) (d eps/d T)_P^2 ] times the polarization factor.
    The first term is exactly :func:`thermal_brillouin_cross_section`
    (compressibility identity); the second is the entropy-fluctuation
    centre line and needs the optional material properties cp and
    deps_dt.
    """
    if medium.cp is None:
        raise MissingPropertyError("cp", medium.name)
    if medium.deps_dt is None:
        raise MissingPropertyError("deps_dt", medium.name)
    T = cfg.temperature or medium.default_temperature
    pol = _overlap(cfg.theta, cfg.pol)
    # The bracket drho^2 / cs^2 + T deps_dt^2 / cp over its larger nonzero term's power of 2.
    (d, ed), (c, ec), (t, et), (p, ep), (q, eq) = map(
        math.frexp, (medium.drho, medium.cs, T, medium.cp, medium.deps_dt))
    b1, e1, b2, e2 = d * d / c / c, 2 * (ed - ec), t / p * q * q, et - ep + 2 * eq
    top = e1 if not b2 or (b1 and e1 > e2) else e2
    bracket = math.ldexp(b1, e1 - top) + math.ldexp(b2, e2 - top)
    return CrossSectionValue(_apart(_THERMAL, (
        (cfg.omega, 2), (cfg.omega, 2), (T, 1), (bracket, 1), (medium.rho0, -1)), pol, _AT_OMEGA,
        "thermal_total_cross_section", medium, cfg, e=top), "thermal-total", pol)


def ratio_zp_thermal(medium: FluidMedium, cfg: ScatteringConfig) -> float:
    """Zero-point share of the Stokes Brillouin line (dimensionless).

    sqrt(2 (1 - cos theta)) (hbar omega / 2 kB T) (cs / c) eta^4
    / [rho0 (d eps/d rho0)_S]^2.  Polarization factors cancel in the
    quotient, as does rho0 on its own: only the product drho enters.
    Grows linearly with frequency, falls as 1/T.  Raises FluctusError
    where drho**2 is 0 and the ratio is undefined, and outside the
    classical thermal line's domain x = hbar Omega_q / kB T <= 0.1
    (Omega_q = sqrt(2 (1 - cos theta)) (cs / c) omega; 1.4e-3 for water
    at 350 nm, backscatter, 295 K).

    The ratio is (x / 2) (eta^2 / drho)^2: the fluctuation-dissipation
    share x / 2 (per mode, the vacuum's 1/2 against the classical line's
    kB T / hbar Omega_q = 1 / x) times the coupling factor (eta^2 /
    drho)^2, as the zero-point line carries eta^4 where the thermal line
    carries drho^2.  For water at 350 nm, theta = pi and 295 K the ratio
    4.2345e-3 is x / 2 = 6.88e-4 times 6.16.
    """
    drho2 = medium.drho * medium.drho
    if drho2 == 0.0:  # also catches a drho whose square underflows
        raise FluctusError(
            f"ratio_zp_thermal: material '{medium.name}' has drho = {medium.drho!r}, "
            "whose square is 0; the thermal Brillouin cross section vanishes and the "
            "ratio is undefined"
        )
    T = cfg.temperature or medium.default_temperature
    a, omega, cs, eta2 = _angular(cfg.theta), cfg.omega, medium.cs, medium.eta * medium.eta
    # Plain where every partial is normal (s < 1/2: x bounds a w) and 2 x = hbar Omega_q / kB T
    # is in the domain; over T alone, as 2 kB T underflows to 0 for T below ~2e-301 K.
    if ((h := _HBAR_2KB * omega) >= TINY and (w := h / T) >= TINY
            and (s := cs / C_LIGHT) >= TINY and (x := a * w * s) >= TINY
            and x + x <= _RATIO_X_MAX
            and TINY <= drho2 < math.inf and (value := x * eta2 * eta2 / drho2) < math.inf):
        return value
    # cs 2**128 / c is normal for every cs, and has the bits of cs / c where that is normal.
    factors = ((omega, 1), (T, -1), (a, 1), (math.ldexp(cs, 128) / C_LIGHT, 1))
    try:  # x with its exponents apart, in the plain x's order; one that overflows is over
        x = _apart(2.0 * _HBAR_2KB, factors, 1.0, "x", e=-128)
    except FluctusError:
        x = math.inf
    if x > _RATIO_X_MAX:
        raise FluctusError(_AT_OMEGA.format("ratio_zp_thermal", medium, cfg)
                           + f": x = hbar Omega_q / kB T = {x:.6g} is above {_RATIO_X_MAX}, "
                           "the classical thermal line's domain")
    return _apart(_HBAR_2KB, (*factors, (medium.eta, 2), (medium.eta, 2), (medium.drho, -2)),
                  1.0, _AT_OMEGA, "ratio_zp_thermal", medium, cfg, e=-128)
