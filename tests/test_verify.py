"""A nan deviation fails a verify check instead of vanishing from its maximum, and the
chain suite's seeded draws stay the same."""

import math

import numpy as np

from fluctus import lattice, scattering, verify
from fluctus.correlator import CorrelatorValue
from fluctus.medium import fluid_medium
from fluctus.scattering import CrossSectionValue


def _by_name(checks):
    return {check.name: check for check in checks}


def test_a_nan_closed_form_fails_the_40_point_check(monkeypatch):
    monkeypatch.setattr(verify, "correlator",
                        lambda medium, sep: CorrelatorValue(math.nan, "density-correlator"))
    check = _by_name(verify.verify_spectral())[
        "closed form vs spectral quadrature (40-point grid)"]
    assert check.passed is False
    assert math.isnan(check.achieved)


def test_a_nan_chain_fails_both_chain_checks_and_no_other(monkeypatch):
    monkeypatch.setattr(scattering, "zp_cross_section_chain", lambda medium, cfg, volume=1.0:
                        CrossSectionValue(math.nan, "zp-golden-rule-chain", 1.0))
    checks = verify.verify_chain()
    failed = [c for c in checks if c.name.startswith(("golden-rule chain", "chain independent"))]
    assert len(failed) == 2
    for check in failed:
        assert check.passed is False
        assert math.isnan(check.achieved)
    others = [c for c in checks if c not in failed]
    assert len(others) == 2 and all(c.passed for c in others)


def test_a_nan_variant_gap_fails_the_rejected_variant_check(monkeypatch):
    monkeypatch.setattr(verify, "rejected_variant_correlator", lambda medium, r, dt: math.nan)
    check = _by_name(verify.verify_spectral())[
        "rejected denominator variant disagrees somewhere by > 10%"]
    assert check.passed is False
    assert math.isnan(check.achieved)


def test_a_deviation_from_a_generator_is_not_lost():
    # the maximum reads its deviations once: a generator's are all seen
    check = verify._at_most("probe", 0.5, (d for d in (0.25, 1.0, 0.125)))
    assert check.passed is False
    assert check.achieved == 1.0


def _monotone_check(monkeypatch, errors):
    study = lattice.ConvergenceStudy(L=1.0, r=1.0, eps=0.125, continuum=1.0,
                                     rows=tuple(zip((64, 128, 256), errors)), slope=4.25)
    monkeypatch.setattr(lattice, "convergence_study", lambda medium, r: study)
    return verify.verify_lattice()[0]


def test_a_nan_lattice_error_reports_nan_in_the_monotone_check(monkeypatch):
    check = _monotone_check(monkeypatch, (1.0, 0.5, math.nan))
    assert check.passed is False
    assert math.isnan(check.achieved)


def test_a_monotone_ladder_reports_its_negative_largest_step(monkeypatch):
    check = _monotone_check(monkeypatch, (1.0, 0.5, 0.125))
    assert check.passed is True
    assert check.achieved == -0.375


def _reference_media_and_configs(n, seed=20260809):
    # The chain suite's draws as scalar calls: six uniforms, the polarization, the temperature.
    rng = np.random.default_rng(seed)
    pols = list(scattering.Polarization)
    out = []
    for _ in range(n):
        medium = fluid_medium(name="random", rho0=rng.uniform(100.0, 2500.0),
                              cs=rng.uniform(200.0, 3500.0), eta=rng.uniform(1.0, 2.0),
                              drho=rng.uniform(0.1, 1.5))
        omega = scattering.omega_from_wavelength(rng.uniform(200e-9, 700e-9))
        theta = rng.uniform(0.05, math.pi)
        pol = pols[rng.integers(len(pols))]
        out.append((medium, scattering.ScatteringConfig(
            omega=omega, theta=theta, pol=pol, temperature=rng.uniform(150.0, 450.0))))
    return out


def test_chain_draws_equal_the_scalar_draws_field_by_field():
    cases = verify._random_media_and_configs(100)
    reference = _reference_media_and_configs(100)
    assert len(cases) == len(reference) == 100
    for (medium, cfg), (ref_medium, ref_cfg) in zip(cases, reference):
        assert medium == ref_medium
        assert cfg == ref_cfg
