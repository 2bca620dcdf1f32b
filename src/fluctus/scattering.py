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
FluctusError naming the function, the medium and omega: each passes its
value through ``fluctus.errors.finite`` just before it returns.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .errors import TINY, FluctusError, MissingPropertyError, finite, scaled
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
    return finite(2.0 * math.pi * C_LIGHT / wavelength,
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
    # zeroes it below theta ~ 1e-8.
    return 2.0 * math.sin(0.5 * theta)


#: How a refused cross section or ratio names itself (format with its name, medium, config).
_AT_OMEGA = "{} for '{.name}' at omega = {.omega:.6g} rad/s"


def _over_rho0(x: float, pol: float, name: str, medium: FluidMedium,
               cfg: ScatteringConfig) -> float:
    # x / rho0 * pol, refused by name unless finite; rho0's exponent apart if x / rho0 overflows.
    value = x / medium.rho0 * pol
    if value < math.inf:
        return value
    m, e = math.frexp(medium.rho0)
    return scaled(x / m * pol, -e, _AT_OMEGA, name, medium, cfg)


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
    omega' is 0: as theta > 0 and cs < c/2, only where the float resolution
    of omega cannot hold the split, and a cross section built on it is wrong.
    """
    omega_prime, omega_q = _shift(medium, cfg)
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
        d = self.__dict__  # as in CorrelatorValue, for speed
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
    return finite((_HBAR3_8 * omega * omega_prime * omega_q
                   / volume / medium.rho0 / cs / cs) * pol_factor,
                  "matrix_element_sq for '{.name}' at omega = {:.6g} rad/s, "
                  "volume = {:.6g} m^3", medium, omega, volume)


def density_of_states(omega_prime: float, epsilon0: float, volume: float) -> float:
    """Photon final states per unit energy per steradian in the dielectric.

    V omega'^2 epsilon0^(3/2) / (hbar (2 pi c)^3); the epsilon0^(3/2)
    counts the compressed in-medium mode spacing.
    """
    if not (omega_prime > 0.0 and epsilon0 > 0.0 and volume > 0.0):
        raise ValueError("all inputs must be positive")
    try:
        e15 = epsilon0**1.5
    except OverflowError:
        e15 = math.inf
    return finite(volume * omega_prime * omega_prime * e15 * _DOS,
                  "density_of_states at omega_prime = {:.6g} rad/s, epsilon0 = {:.6g}, "
                  "volume = {:.6g} m^3", omega_prime, epsilon0, volume)


def incident_flux(epsilon0: float, volume: float) -> float:
    """Flux of one photon in the quantization box: c / (V sqrt(epsilon0))."""
    if not (epsilon0 > 0.0 and volume > 0.0):
        raise ValueError("all inputs must be positive")
    box = volume * math.sqrt(epsilon0)
    return finite(C_LIGHT / box if box else math.inf,  # a box that underflowed to 0
                  "incident_flux at epsilon0 = {:.6g}, volume = {:.6g} m^3", epsilon0, volume)


def zp_cross_section_chain(medium: FluidMedium, cfg: ScatteringConfig,
                           volume: float = 1.0) -> CrossSectionValue:
    """Zero-point cross section assembled from the golden-rule chain.

    (2 pi / hbar) |M|^2 rho_f / (flux * V), per unit scattering volume.
    Every quantization-volume factor cancels analytically, so the result
    is independent of ``volume``; the parameter exists to demonstrate
    that cancellation.  The pieces take V's ``math.frexp`` mantissa, as its
    power of two cancels exactly: no piece leaves the float range for V.
    """
    pol = polarization_factor(cfg.theta, cfg.pol)
    if pol == 0.0:
        return CrossSectionValue(0.0, "zp-golden-rule-chain", pol)
    omega_prime, omega_q = _emitted_shift(medium, cfg, "zp_cross_section_chain")
    epsilon0, cs = medium.epsilon0, medium.cs
    v = math.frexp(volume)[0] if volume > 0.0 else volume  # else refused below as given
    try:
        m2 = matrix_element_sq(medium, cfg.omega, omega_prime, omega_q, v, pol)
        rate = _TWO_PI_HBAR * m2 * density_of_states(omega_prime, epsilon0, v)
        flux_volume = incident_flux(epsilon0, v) * v
        # A flux that underflows to 0 leaves a value beyond the float range.
        value = rate / flux_volume if flux_volume else math.inf
    except FluctusError:  # a piece beyond the float range is refused as the chain
        m2 = rate = value = math.inf
    # Right only where every partial product after rho0 is normal (m2 cs^2: before / cs^2).
    if m2 >= TINY and m2 * cs * cs >= TINY and rate >= TINY and TINY <= value < math.inf:
        return CrossSectionValue(value, "zp-golden-rule-chain", pol)
    m, e = math.frexp(medium.rho0)
    if e:  # once more at rho0's mantissa, its exponent apart
        value = zp_cross_section_chain(replace(medium, rho0=m), cfg, v).value
    return CrossSectionValue(scaled(value, -e, _AT_OMEGA, "zp_cross_section_chain", medium, cfg),
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
    x = (_ZP_EXACT * cfg.omega * omega_prime * omega_prime * omega_prime * omega_q
         * eta2 * eta2 / cs / cs)
    return CrossSectionValue(_over_rho0(x, pol, "zp_cross_section_exact", medium, cfg),
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
    x = _angular(cfg.theta) * _ZP_REDUCED * omega2 * omega2 * omega * eta2 * eta2 / medium.cs
    return CrossSectionValue(_over_rho0(x, pol, "zp_cross_section_reduced", medium, cfg),
                             "zp-omega5", pol)


def adiabatic_compressibility(medium: FluidMedium) -> float:
    """beta_S = 1 / (rho0 cs^2), in 1/Pa.

    Raises FluctusError where the value leaves the float range.
    """
    (m, e), (c, ec) = math.frexp(medium.rho0), math.frexp(medium.cs)
    return scaled(1.0 / m / c / c, -e - 2 * ec, "adiabatic_compressibility for '{.name}'", medium)


def _thermal_apart(medium: FluidMedium, cfg: ScatteringConfig, T: float, pol: float,
                   name: str, entropy: bool = False) -> float:
    """A thermal line, _THERMAL omega^4 T (drho^2 / cs^2 [+ T deps_dt^2 / cp]) / rho0 * pol,
    with every factor's exponent apart (``errors.scaled``): for where a partial product
    of the plain form left the float range.  ``entropy`` adds the bracket's second term."""
    (w, ew), (t, et), (d, ed), (c, ec), (m, em) = map(
        math.frexp, (cfg.omega, T, medium.drho, medium.cs, medium.rho0))
    bracket, e = d * d / c / c, 2 * (ed - ec)
    if entropy:  # both terms over the larger one's power of two
        (p, ep), (q, eq) = math.frexp(medium.cp), math.frexp(medium.deps_dt)
        er = et - ep + 2 * eq
        top = max(e, er)
        bracket = math.ldexp(bracket, e - top) + math.ldexp(t / p * q * q, er - top)
        e = top
    w *= w
    return scaled(_THERMAL * w * w * t * bracket / m * pol, 4 * ew + et + e - em,
                  _AT_OMEGA, name, medium, cfg)


def thermal_brillouin_cross_section(medium: FluidMedium,
                                    cfg: ScatteringConfig) -> CrossSectionValue:
    """Thermal Brillouin cross section per unit scattering volume.

    omega^4 kB T / (16 pi^2 c^4 cs^2 rho0) * [rho0 (d eps/d rho0)_S]^2
    times the polarization factor.  Classical (no hbar) and linear in T.
    """
    T = cfg.temperature or medium.default_temperature
    pol = polarization_factor(cfg.theta, cfg.pol)
    omega2, drho, cs = cfg.omega * cfg.omega, medium.drho, medium.cs
    x = _THERMAL * omega2 * omega2 * T * drho * drho / cs / cs
    name = "thermal_brillouin_cross_section"
    return CrossSectionValue(_over_rho0(x, pol, name, medium, cfg) if x < math.inf
                             else _thermal_apart(medium, cfg, T, pol, name),
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
    T = cfg.temperature or medium.default_temperature
    pol = polarization_factor(cfg.theta, cfg.pol)
    omega2, drho, deps_dt, cs = cfg.omega * cfg.omega, medium.drho, medium.deps_dt, medium.cs
    x = (_THERMAL * omega2 * omega2 * T
         * (drho * drho / cs / cs + T / medium.cp * deps_dt * deps_dt))
    name = "thermal_total_cross_section"
    return CrossSectionValue(_over_rho0(x, pol, name, medium, cfg) if x < math.inf
                             else _thermal_apart(medium, cfg, T, pol, name, True),
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
    T = cfg.temperature or medium.default_temperature
    eta2 = medium.eta * medium.eta
    # Divided by T alone: 2 kB T underflows to 0 for T below ~2e-301 K.
    value = (_angular(cfg.theta) * (_HBAR_2KB * cfg.omega / T)
             * (medium.cs / C_LIGHT) * eta2 * eta2 / drho2)
    return finite(value, _AT_OMEGA, "ratio_zp_thermal", medium, cfg)
