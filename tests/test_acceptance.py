"""Acceptance suite: the eight exit criteria at their stated tolerances.

Each test prints one pass/fail line (run pytest with ``-s`` to see them
interleaved; they also appear in captured output).  Runtime ceilings are
asserted with ``time.perf_counter`` around the computation itself.
"""

import json
import math
import time
from dataclasses import asdict

import numpy as np

from fluctus.cli import main as cli_main
from fluctus.correlator import Separation, boundary_image_term, boundary_shift_planar, correlator
from fluctus.medium import builtin_material
from fluctus.scattering import (
    ScatteringConfig,
    omega_from_wavelength,
    phonon_kinematics,
    ratio_zp_thermal,
    zp_cross_section_chain,
    zp_cross_section_exact,
    zp_cross_section_reduced,
)
from fluctus.verify import (
    LATTICE_SLOPE_BAND,
    _random_media_and_configs,
    verify_lattice,
    verify_spectral,
)

WATER = builtin_material("water")

R_WATER_BENCHMARK = 0.0042345021887880737  # frozen independent arithmetic


def largest(deviations):
    # The worst deviation, nan if any is nan, so that a nan fails its criterion
    # (the builtin max(worst, d) keeps worst when d is nan); none is an error.
    return float(np.max(deviations))


def assert_plain_python(checks):
    # check results serialise with json.dumps(asdict(check)): no numpy scalars
    for check in checks:
        assert type(check.tolerance) is float, check.name
        assert type(check.achieved) is float, check.name
        assert type(check.passed) is bool, check.name
        json.dumps(asdict(check))


def report(number, name, passed, detail=""):
    line = f"acceptance {number} ({name}): {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert passed, line


def test_criterion_1_water_benchmark(capsys):
    start = time.perf_counter()
    code = cli_main(["ratio", "--material", "water", "--lambda", "350e-9",
                     "--theta", "180", "--temperature", "295",
                     "--format", "json"])
    out = capsys.readouterr().out
    value = json.loads(out)[0]["value"]
    elapsed = time.perf_counter() - start

    lib_value = ratio_zp_thermal(WATER, ScatteringConfig(
        omega=omega_from_wavelength(350e-9), theta=math.pi, temperature=295.0))
    ok = (code == 0
          and abs(value - 0.005) <= 0.0015
          and abs(value / 4.3e-3 - 1.0) <= 0.02
          and abs(value - R_WATER_BENCHMARK) <= 1e-12 * R_WATER_BENCHMARK
          and abs(lib_value - value) <= 1e-15 * abs(value)
          and elapsed < 1.0)
    with capsys.disabled():
        report(1, "water benchmark R", ok,
               f"R={value:.6e}, |R-0.005|={abs(value - 0.005):.2e}, {elapsed:.2f}s")


def test_criterion_2_denominator_resolution(capsys):
    start = time.perf_counter()
    checks = verify_spectral()
    elapsed = time.perf_counter() - start
    assert_plain_python(checks)
    agreement = next(c for c in checks if "40-point" in c.name)
    discrimination = next(c for c in checks if "rejected" in c.name)
    ok = (agreement.passed and agreement.achieved <= 1e-6
          and discrimination.passed and discrimination.achieved > 0.10
          and elapsed < 30.0)
    with capsys.disabled():
        report(2, "denominator resolution", ok,
               f"agreement={agreement.achieved:.2e} (tol 1e-6), "
               f"variant deviation={discrimination.achieved:.2e} (> 0.1), {elapsed:.1f}s")


def test_criterion_3_golden_rule_chain_identity(capsys):
    start = time.perf_counter()
    identity, volume_dev = [], []
    for medium, cfg in _random_media_and_configs(100):
        exact = zp_cross_section_exact(medium, cfg).value
        for volume in (1e-6, 1.0):
            chain = zp_cross_section_chain(medium, cfg, volume=volume).value
            if exact != 0.0:
                identity.append(abs(chain - exact) / abs(exact))
        small = zp_cross_section_chain(medium, cfg, volume=1e-6).value
        big = zp_cross_section_chain(medium, cfg, volume=1.0).value
        if big != 0.0:
            volume_dev.append(abs(small - big) / abs(big))
    worst_identity, worst_volume = largest(identity), largest(volume_dev)
    elapsed = time.perf_counter() - start
    ok = worst_identity <= 1e-12 and worst_volume <= 1e-12 and elapsed < 1.0
    with capsys.disabled():
        report(3, "golden-rule chain identity", ok,
               f"chain-vs-exact={worst_identity:.2e}, V-independence={worst_volume:.2e}, "
               f"tol 1e-12, {elapsed:.2f}s")


def test_criterion_4_reduction_identity(capsys):
    start = time.perf_counter()
    margins = []
    for medium, cfg in _random_media_and_configs(100, seed=4):
        exact = zp_cross_section_exact(medium, cfg).value
        if exact == 0.0:
            continue
        reduced = zp_cross_section_reduced(medium, cfg).value
        kin = phonon_kinematics(medium, cfg)
        gap = abs(1.0 - reduced / exact)
        bound = 4.0 * kin.omega_q / kin.omega
        margins.append(gap / bound)
    worst_margin = largest(margins)
    elapsed = time.perf_counter() - start
    ok = worst_margin <= 1.0 and elapsed < 1.0
    with capsys.disabled():
        report(4, "reduction identity within 4*Wq/w", ok,
               f"worst gap/bound={worst_margin:.3f}, {elapsed:.2f}s")


def test_criterion_5_image_boundary_identity(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    devs = []
    for z in rng.uniform(0.1, 100.0, size=20) * 1e-9:
        image = boundary_image_term(WATER, z, z, 0.0, 0.0).value
        shift = boundary_shift_planar(WATER, z).value
        devs.append(abs(image - shift) / abs(shift))
    worst = largest(devs)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    with capsys.disabled():
        report(5, "image/boundary identity", ok,
               f"worst rel dev={worst:.2e} (tol 1e-12), {elapsed:.2f}s")


def test_criterion_6_sign_structure(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    spacelike_ok = timelike_ok = True
    for _ in range(1000):
        r = rng.uniform(0.1, 100.0) * 1e-9
        u_space = rng.uniform(0.0, 0.94)
        u_time = rng.uniform(1.06, 50.0)
        spacelike_ok &= correlator(WATER, Separation(r, u_space * r / WATER.cs)).value < 0
        timelike_ok &= correlator(WATER, Separation(r, u_time * r / WATER.cs)).value > 0
    elapsed = time.perf_counter() - start
    ok = spacelike_ok and timelike_ok and elapsed < 1.0
    with capsys.disabled():
        report(6, "sign structure (1000+1000 separations)", ok,
               f"spacelike<0: {spacelike_ok}, timelike>0: {timelike_ok}, {elapsed:.2f}s")


def test_criterion_7_scaling_laws(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(7)

    # correlator homogeneity of degree -4
    hom_devs = []
    for _ in range(200):
        r = rng.uniform(0.1, 10.0) * 1e-9
        u = rng.choice([rng.uniform(0.0, 0.9), rng.uniform(1.1, 3.0)])
        lam = rng.uniform(0.1, 10.0)
        base = correlator(WATER, Separation(r, u * r / WATER.cs)).value
        scaled = correlator(WATER, Separation(lam * r, lam * u * r / WATER.cs)).value
        hom_devs.append(abs(scaled - base / lam**4) / abs(scaled))
    worst_hom = largest(hom_devs)

    # omega^5 law over one decade
    omegas = np.geomspace(1e15, 1e16, 20)
    xs = [zp_cross_section_reduced(WATER, ScatteringConfig(
        omega=float(w), theta=2.0)).value for w in omegas]
    slope_w5 = float(np.polyfit(np.log(omegas), np.log(xs), 1)[0])

    # R linear in omega, inverse in T
    ratios_w = [ratio_zp_thermal(WATER, ScatteringConfig(
        omega=float(w), theta=2.0, temperature=295.0)) for w in omegas]
    slope_rw = float(np.polyfit(np.log(omegas), np.log(ratios_w), 1)[0])
    temps = np.geomspace(100.0, 1000.0, 20)
    ratios_t = [ratio_zp_thermal(WATER, ScatteringConfig(
        omega=1e15, theta=2.0, temperature=float(t))) for t in temps]
    slope_rt = float(np.polyfit(np.log(temps), np.log(ratios_t), 1)[0])

    elapsed = time.perf_counter() - start
    ok = (worst_hom <= 1e-10
          and abs(slope_w5 - 5.0) <= 0.001
          and abs(slope_rw - 1.0) <= 0.001
          and abs(slope_rt + 1.0) <= 0.001
          and elapsed < 5.0)
    with capsys.disabled():
        report(7, "scaling laws", ok,
               f"homogeneity dev={worst_hom:.2e}, slopes: xsec {slope_w5:.4f}, "
               f"R(w) {slope_rw:.4f}, R(T) {slope_rt:.4f}, {elapsed:.2f}s")


def test_criterion_8_lattice_convergence(capsys):
    start = time.perf_counter()
    checks = verify_lattice()
    elapsed = time.perf_counter() - start
    assert_plain_python(checks)
    monotone = next(c for c in checks if "monotonically" in c.name)
    slope = next(c for c in checks if "exponent" in c.name)
    lo, hi = LATTICE_SLOPE_BAND
    ok = monotone.passed and slope.passed and elapsed < 180.0
    with capsys.disabled():
        report(8, "lattice convergence", ok,
               f"{monotone.detail.split(' (')[0]}, {slope.detail.split(' (')[0]} "
               f"in [{lo}, {hi}], {elapsed:.1f}s")
