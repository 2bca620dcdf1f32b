import math
import warnings

import numpy as np
import pytest

from fluctus.correlator import zero_point_structure_factor
from fluctus.errors import AliasingError, FluctusError, IllPosedStudyError
from fluctus.lattice import ModeGrid, STUDY_DIRECTION, convergence_study, lattice_correlator
from fluctus.medium import HBAR, builtin_material, fluid_medium
from fluctus.spectral import damped_closed_form, regulated_integrand_reduction

WATER = builtin_material("water")
DIRECTION = np.asarray(STUDY_DIRECTION)


def brute_force_mode_sum(medium, grid, dx, eps):
    """Independent mode sum accumulated in +-q pairs.

    Modes whose mirror lies on the grid are added as complex-exponential
    pairs, whose imaginary parts must cancel exactly; the unpaired
    modes on the -N/2 faces enter through the cosine directly.
    """
    dq = 2.0 * math.pi / grid.L
    half = grid.N // 2
    paired = 0.0
    unpaired = 0.0
    seen = set()
    for nx in range(-half, half):
        for ny in range(-half, half):
            for nz in range(-half, half):
                n = (nx, ny, nz)
                if n == (0, 0, 0) or n in seen:
                    continue
                mirror = (-nx, -ny, -nz)
                q = dq * np.array(n)
                qmag = float(np.linalg.norm(q))
                weight = qmag * math.exp(-eps * qmag)
                if all(-half <= m < half for m in mirror):
                    seen.add(mirror)
                    pair = weight * (np.exp(1j * float(q @ dx))
                                     + np.exp(-1j * float(q @ dx)))
                    assert pair.imag == 0.0  # exact cancellation within the pair
                    paired += pair.real
                else:
                    unpaired += weight * math.cos(float(q @ dx))
    return HBAR * medium.rho0 * (paired + unpaired) / (2.0 * grid.L**3 * medium.cs)


@pytest.mark.parametrize("N", [8, 10, 16])  # at 16, t = 25, 50, 65 fold 3-4 (my, mz) pairs
@pytest.mark.parametrize("dx_over_l", [
    (0.23, -0.31, 0.17),     # every component nonzero, off every axis and diagonal
    (-0.05, 0.29, 0.37),
    tuple(0.4 * c for c in STUDY_DIRECTION),
])
def test_octant_sum_equals_every_mode(N, dx_over_l):
    # the unpaired -N/2 edge carries a sine part wherever two or more
    # components sit on it; a real edge weight cos(N/2 dq dx) loses it
    grid = ModeGrid(L=64e-9, N=N)
    dx = grid.L * np.asarray(dx_over_l)
    eps = 2e-9
    lib = lattice_correlator(WATER, grid, dx, eps)
    assert lib == pytest.approx(brute_force_mode_sum(WATER, grid, dx, eps), rel=1e-12, abs=0)


# The standard study (water, r = 16 nm) as computed by the full N^3 mode sum.
STUDY_LATTICE = {64: -9.89512894927413e-05, 128: -5.873358915433063e-05,
                 256: -5.009727578568727e-05, 512: -4.997703841042211e-05}
STUDY_ROWS = ((64, 0.9804861655037045), (128, 0.17553860456829237),
              (256, 0.002684877898994479))


def test_study_values_unchanged_by_the_octant_sum():
    r = 16e-9
    dx = r * DIRECTION / np.linalg.norm(DIRECTION)
    for n, value in STUDY_LATTICE.items():
        lat = lattice_correlator(WATER, ModeGrid(L=16.0 * r, N=n), dx, r / 8)
        assert lat == pytest.approx(value, rel=1e-12, abs=0)
    # a row is |lattice - continuum| / |continuum| with |lattice| ~ |continuum|,
    # so rel 1e-12 on the lattice value is abs 1e-12 on the row
    study = convergence_study(WATER, r=r)
    assert [n for n, _ in study.rows] == [n for n, _ in STUDY_ROWS]
    for (_, err), (_, pinned) in zip(study.rows, STUDY_ROWS):
        assert err == pytest.approx(pinned, abs=1e-12)


def test_mode_grid_counts_and_extent():
    grid = ModeGrid(L=1e-7, N=16)
    assert grid.mode_count == 16**3 - 1
    assert grid.max_component == pytest.approx(
        math.pi * 16 / 1e-7 * (1 - 2 / 16), rel=1e-14, abs=0)
    assert grid.spacing == pytest.approx(1e-7 / 16)


def test_mode_grid_rejects_odd_or_tiny_n():
    with pytest.raises(ValueError):
        ModeGrid(L=1e-7, N=15)
    with pytest.raises(ValueError):
        ModeGrid(L=1e-7, N=6)


def test_mode_grid_rejects_a_non_integral_n():
    # an N of 8.0 was accepted, and the mode sum then raised a bare IndexError
    with pytest.raises(ValueError, match=r"modes per axis must be an integer, got 8\.0"):
        ModeGrid(L=1e-7, N=8.0)
    assert ModeGrid(L=1e-7, N=np.int64(8)).mode_count == 511


def test_realness_by_pairing_and_agreement_with_library_sum():
    grid = ModeGrid(L=64e-9, N=8)
    dx = 10e-9 * DIRECTION
    brute = brute_force_mode_sum(WATER, grid, dx, eps=4e-9)
    lib = lattice_correlator(WATER, grid, dx, eps=4e-9)
    assert lib == pytest.approx(brute, rel=1e-12, abs=0)


def test_structure_factor_weights_reproduce_the_mode_sum():
    # independent route: per-mode weight taken from the structure factor
    grid = ModeGrid(L=80e-9, N=10)
    dx = 12e-9 * DIRECTION
    eps = 3e-9
    dq = 2.0 * math.pi / grid.L
    half = grid.N // 2
    acc = 0.0
    for nx in range(-half, half):
        for ny in range(-half, half):
            for nz in range(-half, half):
                if (nx, ny, nz) == (0, 0, 0):
                    continue
                q = dq * np.array((nx, ny, nz))
                qmag = float(np.linalg.norm(q))
                acc += (zero_point_structure_factor(WATER, qmag)
                        * math.cos(float(q @ dx)) * math.exp(-eps * qmag))
    independent = acc / grid.L**3
    lib = lattice_correlator(WATER, grid, dx, eps)
    assert lib == pytest.approx(independent, rel=1e-12, abs=0)


def test_periodicity_is_exact_for_representable_shifts():
    # power-of-two box side keeps the image folding exact in binary
    grid = ModeGrid(L=2.0**-22, N=16)
    base = np.array([grid.L * 0.125, grid.L * 0.0625, grid.L * 0.25])
    eps = 8e-9
    v0 = lattice_correlator(WATER, grid, base, eps)
    shifted = base + np.array([grid.L, 0.0, 0.0])
    assert lattice_correlator(WATER, grid, shifted, eps) == v0
    shifted_all = base + grid.L * np.array([1.0, 2.0, 1.0])
    assert lattice_correlator(WATER, grid, shifted_all, eps) == v0


def test_parity_dx_vs_minus_dx():
    grid = ModeGrid(L=2e-7, N=12)
    rng = np.random.default_rng(11)
    for _ in range(5):
        dx = rng.uniform(-0.2, 0.2, size=3) * grid.L
        eps = 5e-9
        assert lattice_correlator(WATER, grid, dx, eps) == \
            lattice_correlator(WATER, grid, -dx, eps)


def test_aliasing_rejected_at_half_box():
    grid = ModeGrid(L=1e-7, N=16)
    with pytest.raises(AliasingError):
        lattice_correlator(WATER, grid, np.array([0.4, 0.4, 0.4]) * grid.L, 1e-9)


def test_zero_mode_never_enumerated():
    # the weight of a uniform offset vanishes identically: linear
    # dispersion gives the q = 0 mode zero spectral weight, and the
    # enumeration skips it anyway
    grid = ModeGrid(L=64e-9, N=8)
    dq = 2.0 * math.pi / grid.L
    half = grid.N // 2
    count = 0
    min_q = math.inf
    for nx in range(-half, half):
        for ny in range(-half, half):
            for nz in range(-half, half):
                if (nx, ny, nz) == (0, 0, 0):
                    continue
                count += 1
                min_q = min(min_q, dq * math.hypot(nx, ny, nz))
    assert count == grid.mode_count
    assert min_q == pytest.approx(dq, rel=1e-14, abs=0)
    assert zero_point_structure_factor(WATER, 0.0) == 0.0


def test_reference_geometry_regression():
    # L = 256 nm, N = 256, |dx| = 8 nm, eps = 1 nm along the study
    # direction: the mode sum sits ~18% from the continuum value at the
    # same damping (Brillouin-zone truncation: eps * q_edge = pi), and
    # the gap collapses once the covered cube doubles
    r, eps = 8e-9, 1e-9
    dx = r * DIRECTION
    continuum = regulated_integrand_reduction(WATER, r, 0.0, eps)
    lat = lattice_correlator(WATER, ModeGrid(L=256e-9, N=256), dx, eps)
    rel = abs(lat - continuum) / abs(continuum)
    assert rel == pytest.approx(0.1808, abs=0.01)
    lat2 = lattice_correlator(WATER, ModeGrid(L=256e-9, N=512), dx, eps)
    rel2 = abs(lat2 - continuum) / abs(continuum)
    assert rel2 < 0.01


def test_convergence_study_monotone_with_frozen_slope():
    study = convergence_study(WATER, r=16e-9, ns=(64, 128, 256))
    errs = [e for _, e in study.rows]
    assert errs[0] > errs[1] > errs[2]
    assert study.monotone
    assert study.slope == pytest.approx(4.256, abs=0.05)
    assert study.continuum == pytest.approx(
        regulated_integrand_reduction(WATER, 16e-9, 0.0, 2e-9), rel=1e-9, abs=0)


def test_convergence_study_rejects_degenerate_geometry():
    with pytest.raises(IllPosedStudyError):
        convergence_study(WATER, r=16e-9, ns=(8, 16))  # a = 2r at N = 8
    with pytest.raises(ValueError):
        convergence_study(WATER, r=16e-9, ns=(128, 64))


@pytest.mark.parametrize("ns, match", [
    ((), r"at least two mode counts, got \(\)"),            # a bare TypeError
    ((0, 64), r"even and >= 8, got 0"),                     # a bare ZeroDivisionError
    ((64,), r"at least two mode counts, got \(64,\)"),      # a one-point slope, RankWarning
    ((64.5, 128), r"must be an integer, got 64\.5"),         # silently became 64
], ids=["none", "zero", "one", "fractional"])
def test_convergence_study_refuses_unusable_mode_counts_by_name(ns, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            convergence_study(WATER, r=16e-9, ns=ns)


def test_convergence_study_boundary_geometry_is_admissible():
    # N = 64 at L = 16 r sits exactly on a = r/4; the study accepts it
    study = convergence_study(WATER, r=16e-9, ns=(64, 128))
    assert study.monotone


@pytest.mark.parametrize("L, dx, eps", [
    (1e-96, [-0.8e-97, -0.04e-97, -1.0e-97], 9e-96),  # returned inf
    (1e-120, [1e-121, 0.0, 0.0], 1e-122),             # L**3 underflowed to 0
], ids=["small-box", "tiny-box"])
def test_a_value_beyond_the_float_range_is_refused_by_name(L, dx, eps):
    with pytest.raises(FluctusError, match=r"^lattice_correlator at L = .* outside the float"):
        lattice_correlator(WATER, ModeGrid(L=L, N=8), dx, eps)


@pytest.mark.filterwarnings("error")
def test_a_damping_length_beyond_the_float_range_in_units_of_the_side_is_refused_by_name():
    # eps / L = inf made the damping 0 * -inf = nan, with a numpy warning
    with pytest.raises(FluctusError, match=r"^lattice_correlator at L = 1e-300 m: eps / L is "
                                           r"outside the float range$"):
        lattice_correlator(WATER, ModeGrid(L=1e-300, N=8), [0.0, 0.0, 0.0], 1e20)


@pytest.mark.filterwarnings("error")
def test_a_damping_length_past_every_mode_sums_to_zero_without_overflow():
    # 2 pi sqrt(s) eps / L overflowed in the damping table, with a numpy warning
    assert lattice_correlator(WATER, ModeGrid(1.0, 8), (0.1, 0.0, 0.0), 1e307) == 0.0


@pytest.mark.parametrize("dx", [[1e150, 0.0, 0.0], [1e199, 0.0, 0.0]], ids=["L/1e50", "L/10"])
def test_a_huge_box_folds_and_scales_in_units_of_the_side(dx):
    # L**3 raised OverflowError, and |dx| = L/10 overflowed in the norm; the
    # value, ~1e-31 / L^4, is below the normal range: refused, without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FluctusError, match=r"^lattice_correlator at L = 1e\+200 m, .* is "
                                               r"outside the float range$"):
            lattice_correlator(WATER, ModeGrid(L=1e200, N=8), dx, 1e198)


def test_a_displacement_beyond_the_float_range_in_units_of_the_side_aliases():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AliasingError):
            lattice_correlator(WATER, ModeGrid(L=1e-300, N=8), [1e300, 0.0, 0.0], 1.0)


def test_a_continuum_below_the_normal_range_is_refused_by_name():
    # the continuum at r = 1e80 m is far below the normal range: it was a
    # ZeroDivisionError, then an ill-posed study once it underflowed to 0
    with pytest.raises(FluctusError, match=r"^regulated_integrand_reduction at r = 1e\+80 m, "):
        convergence_study(WATER, r=1e80)


THIN = fluid_medium("thin", rho0=1e-300, cs=1480.0, eta=1.4, drho=0.79)


@pytest.mark.parametrize("call", [
    lambda m: lattice_correlator(m, ModeGrid(1e-12, 16), [1e-13, 2e-13, 0.0], 1e-13),
    lambda m: regulated_integrand_reduction(m, 1e-12, 0.0, 1e-13),
    lambda m: damped_closed_form(m, 1e-12, 0.0, 1e-13),
], ids=["lattice", "spectral", "damped-closed-form"])
def test_a_tiny_density_is_refused_by_name(call):
    # the value is ~1e-289, but hbar * rho0 = 1e-334 is below the normal range:
    # it underflowed to -0.0, and later was formed with the exponents apart
    assert call(WATER) != 0.0
    with pytest.raises(FluctusError, match=r"^(lattice_correlator|regulated_integrand_reduction"
                                           r"|damped_closed_form) at .* outside the float range$"):
        call(THIN)
