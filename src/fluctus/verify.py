"""Cross-validation suites tying the closed forms to their numerical oracles.

Three suites, each a list of named checks with a tolerance and the
achieved error:

* ``spectral``: the closed-form correlator against the regulated
  spectral quadrature on a standard 40-point grid of separations, plus
  the discrimination check that rejects the alternative denominator
  (time term tripled) at the >10% level, plus the quadrature's
  self-check against the damped closed form.
* ``lattice``: monotone approach of the mode sum to the continuum on
  the standard study geometry and the log-log fit of its error over
  N = 64, 128 and 256 against the band frozen from the direct numerical
  study: a fit over three mode counts, not an order of convergence, as
  the error changes sign up to N = 256 and stops falling from N = 384.
* ``chain``: the golden-rule assembly against the closed-form cross
  section at the 1e-12 level over randomized media and configurations,
  quantization-volume independence, the recoil bound on the
  fifth-power form, and the ratio identity.

Every check gated by a tolerance reports as achieved its largest
deviation, nan where any deviation is nan, so a nan fails it rather
than vanishing from the maximum.

Used by the command line (``fluctus verify <suite>``) and by the
acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lattice, scattering, spectral
from .correlator import Separation, _kernel, correlator
from .errors import largest
from .medium import FluidMedium, builtin_material

__all__ = [
    "CheckResult",
    "standard_separation_grid",
    "rejected_variant_correlator",
    "verify_spectral",
    "verify_lattice",
    "verify_chain",
    "verify_all",
    "SUITES",
    "LATTICE_SLOPE_BAND",
]

#: The verification suites, in the order ``verify_all`` and the command
#: line run them; suite ``<name>`` is the function ``verify_<name>``.
SUITES = ("chain", "spectral", "lattice")

#: Band for the slope of the log-log fit of the standard lattice study's
#: error over N = 64, 128 and 256 at L = 16 r, frozen from the direct
#: numerical study (measured 4.26; the band allows +-0.75).  A fit over
#: three mode counts, not an order of convergence.
LATTICE_SLOPE_BAND = (3.5, 5.0)


@dataclass(frozen=True)
class CheckResult:
    """One verification check: achieved error against its tolerance."""

    name: str
    tolerance: float
    achieved: float
    passed: bool
    detail: str = ""


def _at_most(name: str, tolerance: float, deviations, detail: str = "") -> CheckResult:
    """The check that the largest deviation is at most ``tolerance``; a nan one fails it."""
    achieved = largest(deviations)
    return CheckResult(name, tolerance, achieved, achieved <= tolerance, detail)


def standard_separation_grid() -> list[tuple[float, float]]:
    """Forty (r, dt) pairs spanning cs|dt|/r in [0.1, 3] minus the cone band.

    Twenty spacelike ratios up to 0.94 and twenty timelike from 1.06,
    with the distance cycling through half a decade so scale invariance
    is exercised too.  Ratios 0.95..1.05 are excluded: there the
    correlator steepens into the sound-cone divergence.
    """
    water = builtin_material("water")
    radii = (0.5e-9, 1e-9, 2e-9, 5e-9)
    grid = []
    ratios = np.linspace(0.10, 0.94, 20).tolist() + np.linspace(1.06, 3.00, 20).tolist()
    for i, u in enumerate(ratios):
        r = radii[i % len(radii)]
        grid.append((r, u * r / water.cs))
    return grid


def rejected_variant_correlator(medium: FluidMedium, r: float, dt: float) -> float:
    """Alternative closed form with the numerator's time factor repeated
    in the denominator: (r^2 - 3 cs^2 dt^2)^3.

    Kept only so the spectral suite can demonstrate that the quadrature
    rules this variant out; it is not a supported correlator.
    """
    return _kernel(medium.rho0, medium.cs, -1, r, dt, 3.0)


def verify_spectral() -> list[CheckResult]:
    """Closed form vs regulated spectral quadrature on the standard grid (water)."""
    medium = builtin_material("water")
    grid = standard_separation_grid()

    # Quadrature self-check against the damped closed form.
    self_errs = []
    for (r, dt, eps) in [(1e-9, 0.0, 1e-11), (1e-9, 0.0, 1e-8),
                         (2e-9, 1e-12, 2e-10), (5e-10, 1e-12, 5e-11)]:
        num = spectral.regulated_integrand_reduction(medium, r, dt, eps)
        ref = spectral.damped_closed_form(medium, r, dt, eps)
        self_errs.append(abs(num - ref) / abs(ref))
    results = [_at_most("damped-form self-check (quadrature vs damped closed form)",
                        1e-9, self_errs)]

    errs, variant_gaps, estimates = [], [], []
    for r, dt in grid:
        est = spectral.extrapolated_correlator(medium, r, dt)
        estimates.append(est)
        ref = correlator(medium, Separation(r, dt)).value
        errs.append(abs(est.value - ref) / abs(ref))
        variant = rejected_variant_correlator(medium, r, dt)
        variant_gaps.append(abs(est.value - variant) / abs(est.value))
    results.append(_at_most(
        "closed form vs spectral quadrature (40-point grid)", 1e-6, errs,
        f"{sum(est.passes for est in estimates)} quadrature passes, "
        f"{sum(est.points for est in estimates)} points, worst quadrature error "
        f"{max(est.quadrature_error for est in estimates):.2e}"))
    variant_best = largest(variant_gaps)  # the variant must miss somewhere: a floor, not a gate
    results.append(CheckResult(
        name="rejected denominator variant disagrees somewhere by > 10%",
        tolerance=0.10, achieved=variant_best, passed=variant_best > 0.10,
        detail="achieved is the largest relative deviation on the grid"))
    return results


def verify_lattice() -> list[CheckResult]:
    """Mode-sum convergence on the standard study geometry (water, r = 16 nm)."""
    study = lattice.convergence_study(builtin_material("water"), r=16e-9)
    errs = [e for _, e in study.rows]
    largest_increase = largest([b - a for a, b in zip(errs, errs[1:])])
    results = [CheckResult(
        name="lattice error decreases monotonically over N = "
             + ",".join(str(n) for n, _ in study.rows),
        tolerance=0.0,
        achieved=largest_increase,
        passed=study.monotone,
        detail=" ".join(f"N={n}:{e:.3e}" for n, e in study.rows)
               + " (achieved is the largest step increase; negative when monotone)")]
    lo, hi = LATTICE_SLOPE_BAND
    centre = (lo + hi) / 2.0
    # Exact for slopes in [2.125, 8.5] (Sterbenz), so this gate is lo <= slope <= hi.
    results.append(_at_most(
        f"lattice convergence exponent within [{lo}, {hi}]",
        (hi - lo) / 2.0, [abs(study.slope - centre)],
        f"fitted log-log slope of error vs a/r {study.slope:.3f} "
        f"(achieved is its distance from the band centre {centre})"))
    return results


def _random_media_and_configs(n: int, seed: int = 20260809):
    rng = np.random.default_rng(seed)
    pols = list(scattering.Polarization)
    out = []
    for _ in range(n):
        # rng.random(6) gives the doubles of six rng.random() calls, and lo + (hi - lo) u
        # is what rng.uniform(lo, hi) computes, at less cost per call.
        u = rng.random(6).tolist()
        medium = FluidMedium(
            name="random",
            rho0=100.0 + (2500.0 - 100.0) * u[0],
            cs=200.0 + (3500.0 - 200.0) * u[1],
            eta=1.0 + (2.0 - 1.0) * u[2],
            drho=0.1 + (1.5 - 0.1) * u[3],
        )
        cfg = scattering.ScatteringConfig(
            omega=scattering.omega_from_wavelength(200e-9 + (700e-9 - 200e-9) * u[4]),
            theta=0.05 + (math.pi - 0.05) * u[5],
            pol=pols[rng.integers(len(pols))],
            temperature=150.0 + (450.0 - 150.0) * rng.random(),
        )
        out.append((medium, cfg))
    return out


def verify_chain() -> list[CheckResult]:
    """Golden-rule assembly identities over 100 seeded random inputs."""
    cases = _random_media_and_configs(100)

    chain_errs, volume_errs, reduction_gaps, ratio_errs = [], [], [], []
    for medium, cfg in cases:
        exact = scattering.zp_cross_section_exact(medium, cfg).value
        chain = scattering.zp_cross_section_chain(medium, cfg).value
        if exact != 0.0:
            chain_errs.append(abs(chain - exact) / abs(exact))
        small = scattering.zp_cross_section_chain(medium, cfg, volume=1e-6).value
        if chain != 0.0:
            volume_errs.append(abs(small - chain) / abs(chain))
        kin = scattering.phonon_kinematics(medium, cfg)
        reduced = scattering.zp_cross_section_reduced(medium, cfg).value
        if exact != 0.0:
            gap = abs(1.0 - reduced / exact)
            bound = 4.0 * kin.omega_q / kin.omega
            reduction_gaps.append(gap / bound)
        ratio = scattering.ratio_zp_thermal(medium, cfg)
        thermal = scattering.thermal_brillouin_cross_section(medium, cfg).value
        if thermal != 0.0:
            quotient = reduced / thermal
            ratio_errs.append(abs(quotient - ratio) / ratio)

    return [
        _at_most(f"golden-rule chain equals closed form ({len(cases)} random configs)",
                 1e-12, chain_errs),
        _at_most("chain independent of quantization volume (V = 1e-6 vs 1 m^3)",
                 1e-12, volume_errs),
        _at_most("fifth-power form within recoil bound 4 Omega_q/omega of exact",
                 1.0, reduction_gaps, "achieved is the gap as a fraction of the bound"),
        _at_most("ratio formula equals cross-section quotient", 1e-12, ratio_errs),
    ]


def verify_all() -> dict[str, list[CheckResult]]:
    # Resolved by name at call time, so a replaced module attribute is the
    # one that runs.
    return {name: globals()["verify_" + name]() for name in SUITES}
