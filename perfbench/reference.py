"""Independent numpy evaluation of the paper's closed forms.

Written from the formulas in the paper, not from ``fluctus``: the
benchmark compares every public closed-form call against these arrays
to 1e-12 relative.  Only the SI constants are shared by value.
"""

from __future__ import annotations

import numpy as np

HBAR = 1.054571817e-34   # J s
C_LIGHT = 299792458.0    # m/s
K_B = 1.380649e-23       # J/K

#: Squared polarization overlap (e.e')^2 as a function of cos(theta).
POL_FACTORS = {
    "perpendicular": lambda c: np.ones_like(c),
    "parallel": lambda c: c * c,
    "crossed": lambda c: np.zeros_like(c),
    "unpolarized": lambda c: 0.5 * (1.0 + c * c),
}


def density_correlator(rho0, cs, r, dt):
    """-(hbar rho0 / 2 pi^2 cs) (r^2 + 3 cs^2 dt^2) / (r^2 - cs^2 dt^2)^3."""
    r2 = r * r
    b2 = (cs * dt) ** 2
    return -HBAR * rho0 / (2.0 * np.pi**2 * cs) * (r2 + 3.0 * b2) / (r2 - b2) ** 3


def equal_time_correlator(rho0, cs, r):
    """-hbar rho0 / (2 pi^2 cs r^4)."""
    return -HBAR * rho0 / (2.0 * np.pi**2 * cs * r**4)


def boundary_correlator(rho0, cs, z1, z2, transverse, dt):
    """Free correlator at the direct plus the mirror-image separation."""
    direct = np.hypot(transverse, z1 - z2)
    image = np.hypot(transverse, z1 + z2)
    return density_correlator(rho0, cs, direct, dt) + density_correlator(rho0, cs, image, dt)


def scalar_field_analog(c, r, dt):
    """-(hbar c^3 / 2 pi^2) (r^2 + 3 c^2 dt^2) / (r^2 - c^2 dt^2)^3."""
    r2 = r * r
    b2 = (c * dt) ** 2
    return -HBAR * c**3 / (2.0 * np.pi**2) * (r2 + 3.0 * b2) / (r2 - b2) ** 3


def _angular(theta):
    return np.sqrt(2.0 * (1.0 - np.cos(theta)))


def zp_cross_section_exact(rho0, cs, eta, omega, theta, pol_factor):
    """hbar w w'^3 Wq eta^4 / (32 pi^2 c^4 cs^2 rho0) (e.e')^2.

    Energy is conserved exactly in floating point, w = w' + Wq: the
    emitted frequency is taken as w - w' after w' = w - Wq.  Wq is about
    1e-5 of w, so the plain Wq differs from w - w' by up to 1e-11
    relative, which a 1e-12 comparison would flag.
    """
    omega_q = _angular(theta) * (cs / C_LIGHT) * omega
    omega_prime = omega - omega_q
    omega_q = omega - omega_prime
    return (HBAR * omega * omega_prime**3 * omega_q * eta**4
            / (32.0 * np.pi**2 * C_LIGHT**4 * cs**2 * rho0)) * pol_factor


def zp_cross_section_reduced(rho0, cs, eta, omega, theta, pol_factor):
    """sqrt(2 (1 - cos theta)) hbar w^5 eta^4 / (32 pi^2 c^5 cs rho0) (e.e')^2."""
    return (_angular(theta) * HBAR * omega**5 * eta**4
            / (32.0 * np.pi**2 * C_LIGHT**5 * cs * rho0)) * pol_factor


def thermal_brillouin_cross_section(rho0, cs, drho, omega, temperature, pol_factor):
    """w^4 kB T [rho0 (d eps/d rho0)_S]^2 / (16 pi^2 c^4 cs^2 rho0) (e.e')^2."""
    return (omega**4 * K_B * temperature * drho**2
            / (16.0 * np.pi**2 * C_LIGHT**4 * cs**2 * rho0)) * pol_factor


def ratio_zp_thermal(cs, eta, drho, omega, theta, temperature):
    """sqrt(2 (1 - cos theta)) (hbar w / 2 kB T) (cs / c) eta^4 / drho^2."""
    return (_angular(theta) * (HBAR * omega / (2.0 * K_B * temperature))
            * (cs / C_LIGHT) * eta**4 / drho**2)
