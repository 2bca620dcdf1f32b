"""A nan deviation fails a verify check instead of vanishing from its maximum."""

import math

from fluctus import scattering, verify
from fluctus.correlator import CorrelatorValue
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
