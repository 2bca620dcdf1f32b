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

Every cross section and the ratio returns a finite value or raises a
FluctusError naming the function, the medium and omega: each checks its
value with the private ``_finite`` just before it returns.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import FluctusError, MissingPropertyError
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
    (None defers to the medium's reference temperature).  ``omega`` and
    ``temperature`` must be positive and finite.
    """

    omega: float
    theta: float
    pol: Polarization = Polarization.PERPENDICULAR
    temperature: float | None = None

    def __post_init__(self):
        if not 0.0 < self.omega < math.inf:
            raise ValueError(
                f"angular frequency must be positive and finite, got {self.omega}")
        if not 0.0 < self.theta <= math.pi:
            raise ValueError(f"scattering angle must lie in (0, pi], got {self.theta}")
        if self.temperature is not None and not 0.0 < self.temperature < math.inf:
            raise ValueError(
                f"temperature must be positive and finite, got {self.temperature}")


def omega_from_wavelength(wavelength: float) -> float:
    """Angular frequency from the vacuum wavelength (m)."""
    if not 0.0 < wavelength < math.inf:
        raise ValueError(f"wavelength must be positive and finite, got {wavelength}")
    omega = 2.0 * math.pi * C_LIGHT / wavelength
    if omega == math.inf:
        raise FluctusError(f"omega_from_wavelength at wavelength = {wavelength:.6g} m "
                           "has no finite floating-point value")
    return omega


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
    # zeroes it below theta ~ 1e-8.
    return 2.0 * math.sin(0.5 * theta)


def _finite(value: float, formula: str, medium: FluidMedium,
            cfg: ScatteringConfig) -> float:
    """``value`` if it is finite, else a FluctusError naming ``formula``, the
    medium and omega.  The public formulas call it just before they return;
    none of their arithmetic raises OverflowError (float * and / give inf)."""
    if math.isfinite(value):
        return value
    raise FluctusError(f"{formula} for '{medium.name}' at omega = {cfg.omega:.6g} rad/s "
                       "has no finite floating-point value")


def _shift(medium: FluidMedium, cfg: ScatteringConfig) -> tuple[float, float]:
    # (omega_prime, omega_q) of phonon_kinematics.
    omega = cfg.omega
    omega_prime = omega - _angular(cfg.theta) * (medium.cs / C_LIGHT) * omega
    # Re-derive the shift from the rounded difference so that
    # omega_prime + omega_q reproduces omega exactly in floating point.
    return omega_prime, omega - omega_prime


def _emitted_shift(medium: FluidMedium, cfg: ScatteringConfig,
                   formula: str) -> tuple[float, float]:
    """:func:`_shift` for a cross section, refused by name where Omega_q or
    omega' is 0.

    Omega_q > 0 for every theta > 0, and omega' > 0 since cs < c/2
    (:class:`FluidMedium`); either is 0 only where the float resolution
    of omega cannot hold the split (a subnormal omega for omega'), and a
    cross section built on it would be wrong.
    """
    omega_prime, omega_q = _shift(medium, cfg)
    if omega_q == 0.0 or omega_prime == 0.0:
        raise FluctusError(
            f"{formula} for '{medium.name}' at omega = {cfg.omega:.6g} rad/s: "
            "the phonon shift or omega' lies below the float resolution of omega")
    return omega_prime, omega_q


def phonon_kinematics(medium: FluidMedium, cfg: ScatteringConfig) -> Kinematics:
    """Emitted-phonon frequency and scattered light frequency.

    Energy and momentum conservation with a phonon much slower than the
    light give

        Omega_q = sqrt(2 (1 - cos theta)) (cs / c) omega,

    always a fraction of omega (at most 2 cs/c < 1 at backscatter).
    """
    omega_prime, omega_q = _shift(medium, cfg)
    return Kinematics(cfg.omega, omega_prime, omega_q, omega_q / medium.cs)


def polarization_factor(theta: float, pol: Polarization) -> float:
    """Squared polarization overlap (e.e')^2 for the selection ``pol``.

    Perpendicular to the scattering plane: 1.  In-plane (parallel):
    cos^2 theta.  Crossed selections are orthogonal: 0.  Unpolarized:
    average over incident and sum over scattered linear polarizations,
    (1 + cos^2 theta)/2.
    """
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
        # Stored through __dict__: the generated frozen __init__ calls
        # object.__setattr__ per field and takes about twice as long.
        d = self.__dict__
        d["value"] = value
        d["formula"] = formula
        d["pol_factor"] = pol_factor


def matrix_element_sq(medium: FluidMedium, omega: float, omega_prime: float,
                      omega_q: float, volume: float, pol_factor: float) -> float:
    """Squared first-order matrix element for photon -> photon + phonon (J^2).

    hbar^3 omega omega' Omega_q / (8 V rho0 cs^2) times the squared
    polarization overlap; scales as 1/V with the quantization volume.
    """
    if not (omega > 0.0 and omega_prime > 0.0 and omega_q > 0.0):
        raise ValueError("all frequencies must be positive")
    if not volume > 0.0:
        raise ValueError(f"quantization volume must be positive, got {volume}")
    cs = medium.cs
    value = (_HBAR3_8 * omega * omega_prime * omega_q
             / volume / medium.rho0 / cs / cs) * pol_factor
    if not math.isfinite(value):
        raise FluctusError(
            f"matrix_element_sq for '{medium.name}' at omega = {omega:.6g} rad/s, "
            f"volume = {volume:.6g} m^3 has no finite floating-point value")
    return value


def density_of_states(omega_prime: float, epsilon0: float, volume: float) -> float:
    """Photon final states per unit energy per steradian in the dielectric.

    V omega'^2 epsilon0^(3/2) / (hbar (2 pi c)^3); the epsilon0^(3/2)
    counts the compressed in-medium mode spacing.
    """
    if not (omega_prime > 0.0 and epsilon0 > 0.0 and volume > 0.0):
        raise ValueError("all inputs must be positive")
    try:
        value = volume * omega_prime * omega_prime * epsilon0**1.5 * _DOS
    except OverflowError:  # epsilon0**1.5
        value = math.inf
    if not math.isfinite(value):
        raise FluctusError(
            f"density_of_states at omega_prime = {omega_prime:.6g} rad/s, epsilon0 = "
            f"{epsilon0:.6g}, volume = {volume:.6g} m^3 has no finite floating-point value")
    return value


def incident_flux(epsilon0: float, volume: float) -> float:
    """Flux of one photon in the quantization box: c / (V sqrt(epsilon0))."""
    if not (epsilon0 > 0.0 and volume > 0.0):
        raise ValueError("all inputs must be positive")
    box = volume * math.sqrt(epsilon0)
    value = C_LIGHT / box if box else math.inf  # a box that underflowed to 0
    if value == math.inf:
        raise FluctusError(f"incident_flux at epsilon0 = {epsilon0:.6g}, volume = {volume:.6g} "
                           "m^3 has no finite floating-point value")
    return value


def zp_cross_section_chain(medium: FluidMedium, cfg: ScatteringConfig,
                           volume: float = 1.0) -> CrossSectionValue:
    """Zero-point cross section assembled from the golden-rule chain.

    (2 pi / hbar) |M|^2 rho_f / (flux * V), per unit scattering volume.
    Every quantization-volume factor cancels analytically, so the result
    is independent of ``volume``; the parameter exists to demonstrate
    that cancellation.
    """
    pol = polarization_factor(cfg.theta, cfg.pol)
    if pol == 0.0:
        return CrossSectionValue(0.0, "zp-golden-rule-chain", pol)
    omega_prime, omega_q = _emitted_shift(medium, cfg, "zp_cross_section_chain")
    epsilon0 = medium.epsilon0
    try:
        m2 = matrix_element_sq(medium, cfg.omega, omega_prime, omega_q, volume, pol)
        rate = _TWO_PI_HBAR * m2 * density_of_states(omega_prime, epsilon0, volume)
        flux_volume = incident_flux(epsilon0, volume) * volume
        # A flux that underflows to 0 leaves a value beyond the float range.
        value = rate / flux_volume if flux_volume else math.inf
    except FluctusError:  # a piece beyond the float range is refused as the chain
        value = math.inf
    return CrossSectionValue(_finite(value, "zp_cross_section_chain", medium, cfg),
                             "zp-golden-rule-chain", pol)


def zp_cross_section_exact(medium: FluidMedium, cfg: ScatteringConfig) -> CrossSectionValue:
    """Closed-form zero-point cross section with exact kinematics.

    hbar omega omega'^3 Omega_q eta^4 / (32 pi^2 c^4 cs^2 rho0) times the
    polarization factor, per unit scattering volume.  Linear in hbar:
    this channel disappears in the classical limit.
    """
    pol = polarization_factor(cfg.theta, cfg.pol)
    if pol == 0.0:
        return CrossSectionValue(0.0, "zp-exact", pol)
    omega_prime, omega_q = _emitted_shift(medium, cfg, "zp_cross_section_exact")
    eta, cs = medium.eta, medium.cs
    eta2 = eta * eta
    value = (_ZP_EXACT * cfg.omega * omega_prime * omega_prime * omega_prime * omega_q
             * eta2 * eta2 / cs / cs / medium.rho0) * pol
    return CrossSectionValue(_finite(value, "zp_cross_section_exact", medium, cfg),
                             "zp-exact", pol)


def zp_cross_section_reduced(medium: FluidMedium, cfg: ScatteringConfig) -> CrossSectionValue:
    """Zero-point cross section in the fifth-power-of-frequency form.

    sqrt(2 (1 - cos theta)) hbar omega^5 eta^4 / (32 pi^2 c^5 cs rho0)
    times the polarization factor.  The omega^5 law is the fourth power
    familiar from quasi-elastic scattering times one more power from the
    linear zero-point spectrum; relative to :func:`zp_cross_section_exact`
    the neglected recoil is bounded by 4 Omega_q / omega.
    """
    pol = polarization_factor(cfg.theta, cfg.pol)
    omega, eta = cfg.omega, medium.eta
    omega2, eta2 = omega * omega, eta * eta
    value = (_angular(cfg.theta) * _ZP_REDUCED * omega2 * omega2 * omega * eta2 * eta2
             / medium.cs / medium.rho0) * pol
    return CrossSectionValue(_finite(value, "zp_cross_section_reduced", medium, cfg),
                             "zp-omega5", pol)


def adiabatic_compressibility(medium: FluidMedium) -> float:
    """beta_S = 1 / (rho0 cs^2), in 1/Pa.

    Raises FluctusError where the value leaves the float range.
    """
    cs = medium.cs
    value = 1.0 / medium.rho0 / cs / cs
    if value == math.inf:
        raise FluctusError(f"adiabatic_compressibility for '{medium.name}' "
                           "has no finite floating-point value")
    return value


def _bath_temperature(medium: FluidMedium, cfg: ScatteringConfig) -> float:
    return cfg.temperature if cfg.temperature is not None else medium.default_temperature


def thermal_brillouin_cross_section(medium: FluidMedium,
                                    cfg: ScatteringConfig) -> CrossSectionValue:
    """Thermal Brillouin cross section per unit scattering volume.

    omega^4 kB T / (16 pi^2 c^4 cs^2 rho0) * [rho0 (d eps/d rho0)_S]^2
    times the polarization factor.  Classical (no hbar) and linear in T.
    """
    T = _bath_temperature(medium, cfg)
    pol = polarization_factor(cfg.theta, cfg.pol)
    omega2, drho, cs = cfg.omega * cfg.omega, medium.drho, medium.cs
    value = (_THERMAL * omega2 * omega2 * T * drho * drho
             / cs / cs / medium.rho0) * pol
    return CrossSectionValue(_finite(value, "thermal_brillouin_cross_section", medium, cfg),
                             "thermal-brillouin", pol)


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
    T = _bath_temperature(medium, cfg)
    pol = polarization_factor(cfg.theta, cfg.pol)
    drho, deps_dt, cs = medium.drho, medium.deps_dt, medium.cs
    brillouin = drho * drho / medium.rho0 / cs / cs
    rayleigh = T / medium.rho0 / medium.cp * deps_dt * deps_dt
    omega2 = cfg.omega * cfg.omega
    value = _THERMAL * omega2 * omega2 * T * (brillouin + rayleigh) * pol
    return CrossSectionValue(_finite(value, "thermal_total_cross_section", medium, cfg),
                             "thermal-total", pol)


def ratio_zp_thermal(medium: FluidMedium, cfg: ScatteringConfig) -> float:
    """Zero-point share of the Stokes Brillouin line (dimensionless).

    sqrt(2 (1 - cos theta)) (hbar omega / 2 kB T) (cs / c) eta^4
    / [rho0 (d eps/d rho0)_S]^2.  Polarization factors cancel in the
    quotient, as does rho0 on its own: only the product drho enters.
    Grows linearly with frequency, falls as 1/T.  Raises FluctusError
    where drho**2 is 0 and the ratio is undefined.
    """
    drho2 = medium.drho * medium.drho
    if drho2 == 0.0:  # also catches a drho whose square underflows
        raise FluctusError(
            f"ratio_zp_thermal: material '{medium.name}' has drho = {medium.drho!r}, "
            "whose square is 0; the thermal Brillouin cross section vanishes and the "
            "ratio is undefined"
        )
    # Divided by T alone: 2 kB T underflows to 0 for T below ~2e-301 K.
    eta2 = medium.eta * medium.eta
    value = (_angular(cfg.theta) * (_HBAR_2KB * cfg.omega / _bath_temperature(medium, cfg))
             * (medium.cs / C_LIGHT) * eta2 * eta2 / drho2)
    return _finite(value, "ratio_zp_thermal", medium, cfg)
