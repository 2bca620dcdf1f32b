import math
import random
import re

import pytest
from hypothesis import given, strategies as st

from fluctus.correlator import (Separation, boundary_correlator, correlator, scalar_field_analog,
                                zero_point_structure_factor)
from fluctus.errors import FluctusError, MaterialValidationError, MissingPropertyError
from fluctus import scattering
from fluctus.medium import C_LIGHT, HBAR, K_B, builtin_material, fluid_medium
from fluctus.scattering import (
    Polarization,
    ScatteringConfig,
    adiabatic_compressibility,
    density_of_states,
    incident_flux,
    matrix_element_sq,
    omega_from_wavelength,
    phonon_kinematics,
    polarization_factor,
    ratio_zp_thermal,
    thermal_brillouin_cross_section,
    thermal_total_cross_section,
    zp_cross_section_chain,
    zp_cross_section_exact,
    zp_cross_section_reduced,
)

WATER = builtin_material("water")

# Frozen by independent high-precision arithmetic.
OMEGA_350NM = 5.3818616208824379e15        # rad/s
OMEGAQ_BACKSCATTER = 53137795740.718788    # rad/s at theta = pi
M2_ROUNDED_INPUTS = 1.0340633017457934e-70  # J^2, omega = omega' = 5.386e15, Wq = 5.31e10
DOS_UNIT_INPUTS = 1418803.0889745134       # 1/(J sr) at omega' = eps0 = V = 1
BETA_S_WATER = 4.5791135275805503e-10      # 1/Pa
R_WATER_BENCHMARK = 0.0042345021887880737  # 350 nm, backscatter, 295 K
ZP_REDUCED_BENCHMARK = 3.2416850774369512e-06   # 1/(m sr), perpendicular
THERMAL_TB_BENCHMARK = 0.0007655410088156621    # 1/(m sr), perpendicular


def benchmark_config(**overrides):
    kwargs = dict(omega=omega_from_wavelength(350e-9), theta=math.pi,
                  pol=Polarization.PERPENDICULAR, temperature=295.0)
    kwargs.update(overrides)
    return ScatteringConfig(**kwargs)


def media_strategy():
    return st.builds(
        lambda rho0, cs, eta, drho: fluid_medium("rnd", rho0=rho0, cs=cs,
                                                 eta=eta, drho=drho),
        rho0=st.floats(10.0, 1e4),
        cs=st.floats(100.0, 1e4),
        eta=st.floats(1.0, 3.0),
        drho=st.floats(0.05, 2.0),
    )


def config_strategy():
    return st.builds(
        ScatteringConfig,
        omega=st.floats(1e14, 1e17),
        theta=st.floats(0.01, math.pi),
        pol=st.sampled_from(list(Polarization)),
        temperature=st.floats(10.0, 1000.0),
    )


# --- kinematics ----------------------------------------------------------------

def test_kinematics_backscatter_frozen_value():
    cfg = benchmark_config()
    kin = phonon_kinematics(WATER, cfg)
    assert cfg.omega == pytest.approx(OMEGA_350NM, rel=1e-12, abs=0)
    assert kin.omega_q == pytest.approx(OMEGAQ_BACKSCATTER, rel=1e-9, abs=0)
    assert kin.q == pytest.approx(kin.omega_q / WATER.cs, rel=1e-15, abs=0)


def test_kinematics_forward_limit():
    cfg = benchmark_config(theta=1e-9)
    kin = phonon_kinematics(WATER, cfg)
    assert kin.omega_q / cfg.omega < 1e-13
    assert kin.omega_prime == pytest.approx(cfg.omega, rel=1e-12, abs=0)


@given(medium=media_strategy(), cfg=config_strategy())
def test_energy_bookkeeping_is_exact(medium, cfg):
    kin = phonon_kinematics(medium, cfg)
    assert kin.omega_prime + kin.omega_q == kin.omega
    assert kin.omega == cfg.omega


@given(medium=media_strategy(), cfg=config_strategy())
def test_phonon_frequency_small_and_bounded_by_backscatter(medium, cfg):
    # the exact-bookkeeping adjustment moves omega_q by up to half an
    # ulp of omega, which near backscatter is ~1e-10 of the bound
    kin = phonon_kinematics(medium, cfg)
    assert 0.0 <= kin.omega_q / cfg.omega <= 2.0 * medium.cs / C_LIGHT * (1 + 1e-9)


# --- polarization ----------------------------------------------------------------

def test_polarization_factors():
    assert polarization_factor(0.3, Polarization.PERPENDICULAR) == 1.0
    assert polarization_factor(math.pi / 2, Polarization.PARALLEL) == \
        pytest.approx(0.0, abs=1e-30)
    assert polarization_factor(1.1, Polarization.CROSSED) == 0.0
    assert polarization_factor(math.pi, Polarization.UNPOLARIZED) == \
        pytest.approx(1.0, rel=1e-15, abs=0)


def test_polarization_factor_is_the_literal_formula_bit_for_bit():
    formulas = {
        Polarization.PERPENDICULAR: lambda c: 1.0,
        Polarization.PARALLEL: lambda c: c * c,
        Polarization.CROSSED: lambda c: 0.0,
        Polarization.UNPOLARIZED: lambda c: 0.5 * (1.0 + c * c),
    }
    thetas = [math.pi * k / 400 for k in range(1, 401)] + [1e-300, 1e-8, 1.0, 2.0]
    for pol, formula in formulas.items():
        for theta in thetas:
            assert polarization_factor(theta, pol) == formula(math.cos(theta)), (pol, theta)


@pytest.mark.parametrize("pol", ["parallel", None, 1])
def test_polarization_factor_refuses_a_non_member(pol):
    with pytest.raises(ValueError, match="unknown polarization selection"):
        polarization_factor(1.0, pol)


@given(theta=st.floats(0.01, math.pi), pol=st.sampled_from(list(Polarization)))
def test_polarization_factor_in_unit_interval(theta, pol):
    f = polarization_factor(theta, pol)
    assert 0.0 <= f <= 1.0


@pytest.mark.parametrize("pol", list(Polarization))
@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_polarization_factor_refuses_a_non_finite_angle_by_name(theta, pol):
    with pytest.raises(ValueError) as info:
        polarization_factor(theta, pol)
    assert str(info.value) == f"scattering angle theta must be finite, got {theta}"


# --- golden-rule pieces -----------------------------------------------------------

def test_matrix_element_frozen_value_and_volume_scaling():
    m2 = matrix_element_sq(WATER, 5.386e15, 5.386e15, 5.31e10, 1.0, 1.0)
    assert m2 == pytest.approx(M2_ROUNDED_INPUTS, rel=1e-12, abs=0)
    assert matrix_element_sq(WATER, 5.386e15, 5.386e15, 5.31e10, 2.0, 1.0) == \
        pytest.approx(m2 / 2.0, rel=1e-14, abs=0)
    assert matrix_element_sq(WATER, 5.386e15, 5.386e15, 5.31e10, 1.0, 0.0) == 0.0
    with pytest.raises(ValueError, match="quantization volume must be positive"):
        matrix_element_sq(WATER, 5.386e15, 5.386e15, 5.31e10, 0.0, 1.0)


@pytest.mark.parametrize("pol_factor", [-1.0, -1e-300, -math.inf, math.inf, math.nan])
def test_matrix_element_refuses_a_negative_or_non_finite_polarization_factor(pol_factor):
    with pytest.raises(ValueError) as info:
        matrix_element_sq(WATER, 1e15, 1e15, 1e10, 1.0, pol_factor)
    assert str(info.value) == \
        f"polarization factor pol_factor must be finite and >= 0, got {pol_factor}"


def test_density_of_states_values():
    assert density_of_states(1.0, 1.0, 1.0) == pytest.approx(DOS_UNIT_INPUTS, rel=1e-12, abs=0)
    assert density_of_states(2.0, 1.0, 1.0) == \
        pytest.approx(4.0 * DOS_UNIT_INPUTS, rel=1e-14, abs=0)
    water_boost = density_of_states(1.0, WATER.epsilon0, 1.0) / DOS_UNIT_INPUTS
    assert water_boost == pytest.approx(1.96**1.5, rel=1e-12, abs=0)


def test_incident_flux_values():
    assert incident_flux(1.0, 1.0) == C_LIGHT
    assert incident_flux(1.0, 4.0) == pytest.approx(C_LIGHT / 4.0, rel=1e-15, abs=0)
    assert incident_flux(WATER.epsilon0, 1.0) == pytest.approx(C_LIGHT / 1.4, rel=1e-12, abs=0)


# --- zero-point cross sections -----------------------------------------------------

def test_chain_equals_exact_at_benchmark():
    cfg = benchmark_config()
    chain = zp_cross_section_chain(WATER, cfg).value
    exact = zp_cross_section_exact(WATER, cfg).value
    assert chain == pytest.approx(exact, rel=1e-12, abs=0)


def test_chain_is_volume_independent():
    cfg = benchmark_config()
    v1 = zp_cross_section_chain(WATER, cfg, volume=1.0).value
    v2 = zp_cross_section_chain(WATER, cfg, volume=1e-6).value
    assert v2 == pytest.approx(v1, rel=1e-12, abs=0)


def test_chain_is_volume_independent_over_the_float_range():
    # at theta = pi/2, V = 1e250 was off by 1.3e-7, V = 1e260 and 1e270 gave 0.0,
    # and V = 1e-300 and every V >= 1e275 were refused
    cfg = benchmark_config(theta=math.pi / 2)
    expected = zp_cross_section_chain(WATER, cfg).value
    for volume in [5e-324, 1.7976931348623157e308, 3.7] + [10.0**e for e in range(-300, 301, 10)]:
        value = zp_cross_section_chain(WATER, cfg, volume=volume).value
        assert value == pytest.approx(expected, rel=1e-15, abs=0), volume


def test_chain_is_its_pieces_arithmetic():
    # at V = 0.5, V's frexp mantissa is V itself, so the chain's float-level pieces see
    # the public pieces' inputs: its value is their golden-rule quotient bit for bit
    rng = random.Random(22)
    for _ in range(300):
        medium = fluid_medium("lab", rho0=rng.uniform(100.0, 2500.0),
                              cs=rng.uniform(200.0, 3500.0), eta=rng.uniform(1.0, 2.0),
                              drho=rng.uniform(0.1, 1.5))
        cfg = ScatteringConfig(omega=omega_from_wavelength(rng.uniform(200e-9, 700e-9)),
                               theta=rng.uniform(0.05, math.pi),
                               pol=rng.choice(list(Polarization)))
        k = phonon_kinematics(medium, cfg)
        pol = polarization_factor(cfg.theta, cfg.pol)
        m2 = matrix_element_sq(medium, cfg.omega, k.omega_prime, k.omega_q, 0.5, pol)
        rate = 2.0 * math.pi / HBAR * m2 * density_of_states(k.omega_prime, medium.epsilon0, 0.5)
        expected = rate / (incident_flux(medium.epsilon0, 0.5) * 0.5)
        assert zp_cross_section_chain(medium, cfg, volume=0.5).value == expected, (medium, cfg)


def test_crossed_polarization_kills_everything():
    cfg = benchmark_config(pol=Polarization.CROSSED)
    assert zp_cross_section_chain(WATER, cfg).value == 0.0
    assert zp_cross_section_exact(WATER, cfg).value == 0.0
    assert zp_cross_section_reduced(WATER, cfg).value == 0.0
    assert thermal_brillouin_cross_section(WATER, cfg).value == 0.0


def test_reduced_frozen_value_and_forward_limit():
    cfg = benchmark_config()
    assert zp_cross_section_reduced(WATER, cfg).value == \
        pytest.approx(ZP_REDUCED_BENCHMARK, rel=1e-12, abs=0)
    # forward limit: linear in theta (angular factor 2 sin(theta/2) ~ theta
    # against 2 at backscatter), not the 0 that 1 - cos(theta) cancels to
    tiny = zp_cross_section_reduced(WATER, benchmark_config(theta=1e-12)).value
    assert tiny == pytest.approx(0.5e-12 * ZP_REDUCED_BENCHMARK, rel=1e-12, abs=0)


def test_reduced_within_recoil_bound_of_exact():
    for theta in (0.1, 0.7, math.pi / 2, 2.5, math.pi):
        cfg = benchmark_config(theta=theta)
        kin = phonon_kinematics(WATER, cfg)
        exact = zp_cross_section_exact(WATER, cfg).value
        reduced = zp_cross_section_reduced(WATER, cfg).value
        assert abs(1.0 - reduced / exact) <= 4.0 * kin.omega_q / kin.omega


def test_fifth_power_frequency_scaling():
    cfg = benchmark_config()
    double = benchmark_config(omega=2 * cfg.omega)
    ratio = zp_cross_section_reduced(WATER, double).value \
        / zp_cross_section_reduced(WATER, cfg).value
    assert ratio == pytest.approx(32.0, rel=1e-12, abs=0)


def test_cross_section_linear_in_hbar():
    # the closed form carries one power of hbar: halving hbar would halve
    # the cross section, i.e. value/hbar is hbar-free
    cfg = benchmark_config()
    value = zp_cross_section_reduced(WATER, cfg).value
    angular = math.sqrt(2.0 * (1.0 - math.cos(cfg.theta)))
    classical_part = (angular * cfg.omega**5 * WATER.eta**4
                      / (32.0 * math.pi**2 * C_LIGHT**5 * WATER.cs * WATER.rho0))
    assert value == pytest.approx(HBAR * classical_part, rel=1e-12, abs=0)


# --- thermal cross sections ----------------------------------------------------------

def test_compressibility_identity():
    beta = adiabatic_compressibility(WATER)
    assert beta == pytest.approx(BETA_S_WATER, rel=1e-12, abs=0)
    assert beta * WATER.rho0 * WATER.cs**2 == pytest.approx(1.0, rel=1e-15, abs=0)
    doubled = fluid_medium("w2", rho0=WATER.rho0, cs=2 * WATER.cs,
                           eta=WATER.eta, drho=WATER.drho)
    assert adiabatic_compressibility(doubled) == pytest.approx(beta / 4.0, rel=1e-14, abs=0)


def test_thermal_brillouin_frozen_value_and_linearity_in_t():
    cfg = benchmark_config()
    value = thermal_brillouin_cross_section(WATER, cfg).value
    assert value == pytest.approx(THERMAL_TB_BENCHMARK, rel=1e-12, abs=0)
    doubled = thermal_brillouin_cross_section(WATER, benchmark_config(temperature=590.0))
    assert doubled.value == pytest.approx(2.0 * value, rel=1e-12, abs=0)


def test_thermal_total_requires_optional_properties():
    cfg = benchmark_config()
    with pytest.raises(MissingPropertyError) as exc:
        thermal_total_cross_section(WATER, cfg)
    assert "cp" in str(exc.value)
    has_cp = fluid_medium("w", rho0=997.0, cs=1480.0, eta=1.4, drho=0.79, cp=4181.0)
    with pytest.raises(MissingPropertyError) as exc:
        thermal_total_cross_section(has_cp, cfg)
    assert "deps_dt" in str(exc.value)


def full_water(deps_dt=-1.0e-4):
    return fluid_medium("water+", rho0=997.0, cs=1480.0, eta=1.4, drho=0.79,
                        cp=4181.0, deps_dt=deps_dt)


def test_thermal_total_reduces_to_brillouin_when_deps_dt_vanishes():
    cfg = benchmark_config()
    medium = full_water(deps_dt=0.0)
    total = thermal_total_cross_section(medium, cfg).value
    brillouin = thermal_brillouin_cross_section(medium, cfg).value
    assert total == pytest.approx(brillouin, rel=1e-12, abs=0)


def test_brillouin_term_is_first_term_of_total():
    cfg = benchmark_config()
    medium = full_water()
    total = thermal_total_cross_section(medium, cfg).value
    brillouin = thermal_brillouin_cross_section(medium, cfg).value
    rayleigh = total - brillouin
    # Rayleigh piece scales as T^2: one explicit T and one from kB T
    hot = benchmark_config(temperature=2 * 295.0)
    rayleigh_hot = (thermal_total_cross_section(medium, hot).value
                    - thermal_brillouin_cross_section(medium, hot).value)
    assert rayleigh_hot == pytest.approx(4.0 * rayleigh, rel=1e-12, abs=0)
    assert rayleigh > 0.0


def test_thermal_lines_refuse_a_partial_product_beyond_the_float_range():
    # drho^2 / cs^2 = 1e320 overflows before rho0 = 1e300 would bring the value
    # (2.7e26) back; the same medium with cs * 2**500 and rho0 * 2**-1000 answers
    slow = fluid_medium("slow", rho0=1e300, cs=1e-160, eta=1.0, drho=1.0, cp=4180.0,
                        deps_dt=-1e-4)
    same = fluid_medium("slow", rho0=math.ldexp(1e300, -1000), cs=math.ldexp(1e-160, 500),
                        eta=1.0, drho=1.0, cp=4180.0, deps_dt=-1e-4)
    cfg = ScatteringConfig(omega=omega_from_wavelength(350e-9), theta=1.0)
    for formula in (thermal_brillouin_cross_section, thermal_total_cross_section):
        with pytest.raises(FluctusError, match=re.escape(
                f"{formula.__name__} for 'slow' at omega = 5.38186e+15 rad/s is outside the "
                "float range")):
            formula(slow, cfg)
        assert formula(same, cfg).value == pytest.approx(2.678754210275111e26, rel=1e-15, abs=0)


def test_thermal_total_without_drho_is_independent_of_cs():
    # with drho = 0 the bracket is T deps_dt^2 / cp alone; at cs = 1e-160 the zero
    # term drho^2 / cs^2 once set the bracket's power of two, and the value was 0.0
    cfg = ScatteringConfig(omega=omega_from_wavelength(350e-9), theta=1.0, temperature=300.0)
    values = [thermal_total_cross_section(fluid_medium("z", rho0=1e20, cs=cs, eta=1.0, drho=0.0,
                                                       cp=4180.0, deps_dt=-1e-4), cfg).value
              for cs in (1e-160, 1480.0)]
    expected = (K_B / (16.0 * math.pi**2 * C_LIGHT**4) * cfg.omega**4 * 300.0
                * (300.0 / 4180.0 * 1e-8) / 1e20)
    assert values[0] == values[1] == pytest.approx(expected, rel=1e-15, abs=0)


def test_default_temperature_comes_from_the_medium():
    cfg = benchmark_config(temperature=None)
    explicit = benchmark_config(temperature=WATER.default_temperature)
    assert thermal_brillouin_cross_section(WATER, cfg).value == \
        thermal_brillouin_cross_section(WATER, explicit).value


# --- the headline ratio ----------------------------------------------------------------

def test_ratio_frozen_benchmark_value():
    value = ratio_zp_thermal(WATER, benchmark_config())
    assert value == pytest.approx(R_WATER_BENCHMARK, rel=1e-12, abs=0)
    assert abs(value - 0.005) <= 0.0015


def test_ratio_equals_cross_section_quotient():
    for theta in (0.4, 1.3, 2.2, math.pi):
        for pol in (Polarization.PERPENDICULAR, Polarization.PARALLEL,
                    Polarization.UNPOLARIZED):
            cfg = benchmark_config(theta=theta, pol=pol)
            quotient = (zp_cross_section_reduced(WATER, cfg).value
                        / thermal_brillouin_cross_section(WATER, cfg).value)
            assert quotient == pytest.approx(ratio_zp_thermal(WATER, cfg), rel=1e-12, abs=0)


def test_ratio_is_the_fd_share_times_the_coupling_factor():
    # R = (x / 2) (eta^2 / drho)^2 with x = hbar Omega_q / kB T, Omega_q formed as the ratio
    # forms it: sqrt(2 (1 - cos theta)) = 2 sin(theta / 2).  Both sides are about eight
    # correctly rounded operations in different orders; 10 000 such draws differed by at
    # most 5 ulp, and the bound is 8.
    rnd = random.Random(20261020)
    for _ in range(200):
        medium = fluid_medium("rnd", rho0=rnd.uniform(100.0, 2500.0), cs=rnd.uniform(200.0, 3500.0),
                              eta=rnd.uniform(1.0, 2.0), drho=rnd.uniform(0.1, 1.5))
        cfg = ScatteringConfig(omega=omega_from_wavelength(rnd.uniform(200e-9, 700e-9)),
                               theta=rnd.uniform(0.05, math.pi),
                               temperature=rnd.uniform(150.0, 450.0))
        omega_q = 2.0 * math.sin(0.5 * cfg.theta) * (medium.cs / C_LIGHT) * cfg.omega
        x = HBAR * omega_q / (K_B * cfg.temperature)
        expected = x / 2.0 * (medium.eta**2 / medium.drho) ** 2
        assert abs(ratio_zp_thermal(medium, cfg) - expected) <= 8 * math.ulp(expected)


# x = hbar Omega_q / kB T is 1.38e-3 at the base config; the scales keep it
# at most 0.069, inside the ratio's domain x <= 0.1.
@given(scale_w=st.floats(0.1, 10.0), scale_t=st.floats(0.2, 10.0))
def test_ratio_scales_linearly_in_omega_and_inverse_t(scale_w, scale_t):
    base = benchmark_config()
    value = ratio_zp_thermal(WATER, base)
    scaled = benchmark_config(omega=base.omega * scale_w,
                              temperature=base.temperature * scale_t)
    assert ratio_zp_thermal(WATER, scaled) == \
        pytest.approx(value * scale_w / scale_t, rel=1e-12, abs=0)


def test_ratio_is_independent_of_rho0_at_fixed_drho():
    heavy = fluid_medium("heavy", rho0=5 * WATER.rho0, cs=WATER.cs,
                         eta=WATER.eta, drho=WATER.drho)
    cfg = benchmark_config()
    assert ratio_zp_thermal(heavy, cfg) == ratio_zp_thermal(WATER, cfg)


def test_small_angle_forms_stay_linear_in_theta():
    # sqrt(2 (1 - cos theta)) ~ theta (1 - theta^2/24); the curvature is
    # below 5e-14 here, so value/theta must be flat to 1e-12 and nowhere 0
    thetas = (1e-6, 1e-7, 1e-8, 1e-9, 1e-10)
    cfgs = [benchmark_config(theta=t) for t in thetas]
    xs = [zp_cross_section_reduced(WATER, c).value / t for c, t in zip(cfgs, thetas)]
    ratios = [ratio_zp_thermal(WATER, c) / t for c, t in zip(cfgs, thetas)]
    assert xs[0] > 0.0 and ratios[0] > 0.0
    assert xs == pytest.approx([xs[0]] * len(thetas), rel=1e-12, abs=0)
    assert ratios == pytest.approx([ratios[0]] * len(thetas), rel=1e-12, abs=0)
    for c in cfgs:
        assert zp_cross_section_exact(WATER, c).value > 0.0
        assert zp_cross_section_chain(WATER, c).value > 0.0


def test_a_subnormal_angle_keeps_its_bits():
    # below 2**-26, 2 sin(theta/2) rounds to theta itself; halving a subnormal theta
    # first lost its bits, and theta = 5e-324 gave a ratio of 0.0
    assert scattering._angular(4e-308) == 4e-308
    ratio = ratio_zp_thermal(WATER, ScatteringConfig(omega=1e200, theta=5e-324, temperature=300.0))
    assert ratio == 1.911284145395558e-142
    assert 2.0 * ratio == ratio_zp_thermal(
        WATER, ScatteringConfig(omega=1e200, theta=1e-323, temperature=300.0))


def test_ratio_rejects_vanishing_drho():
    # a zero drho of either sign; a drho whose square is below the normal
    # range is refused as out of range instead (test_out_of_range_result_is_a_typed_error)
    for drho in (0.0, -0.0):
        flat = fluid_medium("flat", rho0=997.0, cs=1480.0, eta=1.4, drho=drho)
        with pytest.raises(FluctusError, match="^ratio_zp_thermal: .*ratio is undefined"):
            ratio_zp_thermal(flat, benchmark_config())


_TINY_DRHO = fluid_medium("tiny-drho", rho0=997.0, cs=1480.0, eta=1.4, drho=1e-160)
# cs^2 rho0 = 1e-400 underflows to 0, and Omega_q falls below ulp(omega)
_THIN = fluid_medium("thin", rho0=1e-200, cs=1e-100, eta=1.33, drho=0.8,
                     cp=1e-200, deps_dt=1.0)
# epsilon0 = eta^2 = inf, so the chain's photon flux is 0
_DENSE_OPTICS = fluid_medium("dense-optics", rho0=997.0, cs=1480.0, eta=1e155, drho=0.79)
_HUGE_ETA = fluid_medium("huge-eta", rho0=997.0, cs=1480.0, eta=1e100, drho=0.79)
_HUGE_OMEGA = ScatteringConfig(omega=1e100, theta=math.pi)


@pytest.mark.parametrize("formula, medium, cfg", [
    (ratio_zp_thermal, _TINY_DRHO, benchmark_config()),          # drho**2 is subnormal
    (zp_cross_section_reduced, WATER, _HUGE_OMEGA),               # omega**5 overflows
    (thermal_brillouin_cross_section, WATER, _HUGE_OMEGA),        # omega**4 overflows
    (zp_cross_section_exact, WATER, _HUGE_OMEGA),                 # product reaches inf
    (zp_cross_section_chain, WATER, _HUGE_OMEGA),
    (zp_cross_section_exact, _HUGE_ETA, benchmark_config()),      # eta**4 overflows
    (zp_cross_section_reduced, _HUGE_ETA, benchmark_config()),
    (ratio_zp_thermal, _HUGE_ETA, benchmark_config()),
    (zp_cross_section_exact, _THIN, benchmark_config(theta=math.pi / 2)),
    (thermal_brillouin_cross_section, _THIN, benchmark_config(theta=math.pi / 2)),
    (thermal_total_cross_section, _THIN, benchmark_config(theta=math.pi / 2)),
    (zp_cross_section_chain, _DENSE_OPTICS, benchmark_config()),
    (zp_cross_section_chain, _THIN, benchmark_config(theta=math.pi / 2)),  # Omega_q is 0
], ids=["ratio-tiny-drho", "reduced-omega", "brillouin-omega", "exact-omega", "chain-omega",
        "exact-eta", "reduced-eta", "ratio-eta", "exact-thin", "brillouin-thin", "total-thin",
        "chain-zero-flux", "chain-thin"])
def test_out_of_range_result_is_a_typed_error(formula, medium, cfg):
    # a finite value or a FluctusError naming the formula and omega,
    # never inf or a bare OverflowError
    with pytest.raises(FluctusError, match=re.escape(f"{formula.__name__} for '{medium.name}' at omega = {cfg.omega:.6g}")):
        formula(medium, cfg)


def test_adiabatic_compressibility_beyond_the_float_range_is_a_typed_error():
    # rho0 cs^2 = 1e-400 underflows to 0: a named FluctusError, not ZeroDivisionError
    with pytest.raises(FluctusError, match=re.escape(
            "adiabatic_compressibility for 'thin' is outside the float range")):
        adiabatic_compressibility(_THIN)


def test_crossed_exact_is_zero_where_the_shift_is_below_float_resolution():
    # at theta = 1e-11 Omega_q rounds to 0 against omega; crossed polarization
    # still makes the exact value exactly 0, as in the chain
    cfg = benchmark_config(theta=1e-11, pol=Polarization.CROSSED)
    assert phonon_kinematics(WATER, cfg).omega_q == 0.0
    assert zp_cross_section_exact(WATER, cfg).value == 0.0
    assert zp_cross_section_chain(WATER, cfg).value == 0.0


@pytest.mark.parametrize("cs", [1.5e8, 2.5e8, math.nextafter(C_LIGHT, 0.0)],
                         ids=["1.5e8", "2.5e8", "below-c"])
def test_sound_from_half_light_speed_is_refused_at_construction(cs):
    # at cs >= c/2 the small-shift kinematics let the emitted phonon take
    # all of the photon's energy at backscatter (omega' <= 0)
    with pytest.raises(MaterialValidationError) as exc:
        fluid_medium("fast", rho0=997.0, cs=cs, eta=1.33, drho=0.8)
    assert exc.value.violations == ["cS < c/2"]
    assert "cS < c/2 violated" in str(exc.value)


# the fastest valid sound: cs/c rounds to at most 1/2 - 2**-54
_HALF_C = fluid_medium("half-c", rho0=997.0, cs=math.nextafter(C_LIGHT / 2.0, 0.0),
                       eta=1.33, drho=0.8)


@pytest.mark.parametrize("omega", [omega_from_wavelength(350e-9), 1e15, 2.0**50],
                         ids=["350nm", "1e15", "2**50"])
@pytest.mark.parametrize("theta", [math.pi, math.pi - 1e-9], ids=["pi", "pi-1e-9"])
def test_the_fastest_valid_sound_keeps_omega_prime_positive(omega, theta):
    # 2 sin(theta/2) (cs/c) <= 1 - 2**-53, so its product with a normal
    # omega rounds below omega, also at a power of two
    cfg = ScatteringConfig(omega=omega, theta=theta)
    assert phonon_kinematics(_HALF_C, cfg).omega_prime > 0.0
    for formula in (zp_cross_section_exact, zp_cross_section_chain):
        value = formula(_HALF_C, cfg).value
        assert math.isfinite(value) and value >= 0.0, formula.__name__


@pytest.mark.parametrize("formula", [zp_cross_section_exact, zp_cross_section_chain])
def test_omega_prime_below_the_float_resolution_is_refused_by_name(formula):
    # a subnormal omega has too few digits: omega' rounds to 0, which the
    # kinematics refuse as outside the normal range
    cfg = ScatteringConfig(omega=1e-310, theta=math.pi)
    assert scattering._shift(_HALF_C, cfg.omega, cfg.theta)[0] == 0.0
    with pytest.raises(FluctusError, match=re.escape(
            "phonon_kinematics for 'half-c' at omega = 1e-310 rad/s is outside the float range")):
        phonon_kinematics(_HALF_C, cfg)
    with pytest.raises(FluctusError, match=re.escape(
            f"{formula.__name__} for 'half-c' at omega = 1e-310 rad/s: ")):
        formula(_HALF_C, cfg)


def test_ratio_stays_inverse_in_t_where_2_kb_t_underflows():
    # 2 kB T = 2.8e-325 rounds to 0 at 1e-302 K, and is normal at 1e-280 K; at
    # omega = 1e-290 rad/s x = hbar Omega_q / kB T is 7.6e-5 in the cold bath
    cold = ratio_zp_thermal(WATER, benchmark_config(omega=1e-290, temperature=1e-302))
    warm = ratio_zp_thermal(WATER, benchmark_config(omega=1e-290, temperature=1e-280))
    assert cold == pytest.approx(warm * 1e-280 / 1e-302, rel=1e-12, abs=0)
    # at 350 nm x is 4e301: refused by name, never divided by 2 kB T = 0
    with pytest.raises(FluctusError, match=re.escape(
            "x = hbar Omega_q / kB T = 4.05879e+301 is above 0.1")) as exc:
        ratio_zp_thermal(WATER, benchmark_config(temperature=1e-302))
    assert exc.type is FluctusError


def test_ratio_is_refused_beyond_its_classical_domain():
    # x = 1.38e-3 * 295 K / T: 0.090 at 4.5 K, 0.110 at 3.7 K, 406 at 1 mK, where
    # the ratio formula read 1249.18, a zero-point share of 124917.81 %
    assert ratio_zp_thermal(WATER, benchmark_config(temperature=4.5)) > 0.0
    for temperature, x in ((3.7, "0.109697"), (1e-3, "405.879")):
        with pytest.raises(FluctusError, match=re.escape(
                "ratio_zp_thermal for 'water' at omega = 5.38186e+15 rad/s: "
                f"x = hbar Omega_q / kB T = {x} is above 0.1")):
            ratio_zp_thermal(WATER, benchmark_config(temperature=temperature))


_HEAVY = fluid_medium("heavy", rho0=1e300, cs=1480.0, eta=1.4, drho=0.79)
_LIGHT = fluid_medium("light", rho0=1e-300, cs=1480.0, eta=1.33, drho=0.79)


def _rho0(medium, rho0):
    return fluid_medium(medium.name, rho0=rho0, cs=medium.cs, eta=medium.eta, drho=medium.drho)


_WATER_2M1010 = _rho0(WATER, math.ldexp(997.0, -1010))


@pytest.mark.parametrize("call, argument", [
    (lambda: omega_from_wavelength(math.inf), "wavelength"),
    (lambda: omega_from_wavelength(math.nan), "wavelength"),
    (lambda: zero_point_structure_factor(WATER, math.inf), "q"),
    (lambda: zero_point_structure_factor(WATER, math.nan), "q"),
    *((lambda v=v: zp_cross_section_chain(WATER, benchmark_config(), volume=v),
       "quantization volume must be positive") for v in (0.0, -1.0, math.nan, math.inf)),
    (lambda: matrix_element_sq(WATER, 5.386e15, 5.386e15, 5.31e10, math.inf, 1.0),
     "quantization volume must be positive"),
], ids=["wavelength-inf", "wavelength-nan", "q-inf", "q-nan", "chain-volume-0",
        "chain-volume-negative", "chain-volume-nan", "chain-volume-inf", "m2-volume-inf"])
def test_non_finite_library_input_is_refused_by_name(call, argument):
    with pytest.raises(ValueError, match=rf"\b{argument}\b"):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: omega_from_wavelength(1e-320), "omega_from_wavelength"),
    (lambda: zero_point_structure_factor(_HEAVY, 1e300), "zero_point_structure_factor"),
    (lambda: matrix_element_sq(WATER, 1e200, 1e200, 1e200, 1.0, 1.0), "matrix_element_sq"),
    (lambda: density_of_states(1e200, 1.0, 1.0), "density_of_states"),
    (lambda: density_of_states(1.0, 1e300, 1.0), "density_of_states"),  # epsilon0**1.5
    (lambda: incident_flux(1.0, 5e-324), "incident_flux"),
    (lambda: incident_flux(1e-10, 5e-324), "incident_flux"),  # the box underflows to 0
    # Exact values exist outside the normal range, and each is refused: eps0^1.5 = eta^3
    # overflows, drho^2 = 1e-340 underflows, and c|dt| overflows.
    (lambda: zp_cross_section_chain(fluid_medium("d", rho0=997.0, cs=1480.0, eta=1e103,
                                                 drho=0.79),
                                    ScatteringConfig(omega=1e-40, theta=1.0)),
     "^zp_cross_section_chain for 'd' at omega = 1e-40 rad/s is outside the float range$"),
    (lambda: ratio_zp_thermal(fluid_medium("d", rho0=997.0, cs=1480.0, eta=1.4, drho=1e-170),
                              benchmark_config()),
     "^ratio_zp_thermal for 'd' at omega = 5.38186e\\+15 rad/s is outside the float range$"),
    (lambda: correlator(WATER, Separation(1e-9, 1e306)),
     r"^correlator at r = 1e-09 m, c\*\|dt\| = inf m is outside the float range$"),
    # Subnormal values, which were returned.
    (lambda: matrix_element_sq(WATER, 1.0, 1.0, 1.0, 1e200, 1.0), "matrix_element_sq"),
    (lambda: density_of_states(1e-160, 1.0, 1.0), "density_of_states"),
    # Normal values that a partial product takes outside the normal range, which were
    # formed with the factors' exponents apart (the value is noted where it helps).
    (lambda: correlator(_WATER_2M1010, Separation(1e-9, 2e-13)), "correlator"),  # -5.5e-304
    (lambda: boundary_correlator(_WATER_2M1010, 1e-9, 3e-9), "correlator"),
    (lambda: zero_point_structure_factor(_rho0(WATER, math.ldexp(997.0, -925)), 1e7),
     "zero_point_structure_factor"),
    (lambda: adiabatic_compressibility(_rho0(WATER, math.ldexp(997.0, -1040))),
     "adiabatic_compressibility"),                       # 1 / rho0 overflows; 5.4e303
    (lambda: thermal_total_cross_section(fluid_medium("z", rho0=1e20, cs=1e-160, eta=1.0,
                                                     drho=0.0, cp=4180.0, deps_dt=-1e-4),
                                        ScatteringConfig(1e95, 1.0, temperature=300.0)),
     "thermal_total_cross_section"),                     # omega^4 overflows; 2.3e294
    (lambda: zp_cross_section_reduced(fluid_medium("slow", rho0=1.0, cs=1e-64, eta=1.0,
                                                   drho=0.0),
                                      ScatteringConfig(4.8e64, 1.0, Polarization.PARALLEL)),
     "zp_cross_section_reduced"),                        # x / rho0 overflows before pol
    (lambda: zp_cross_section_exact(_LIGHT, ScatteringConfig(math.ldexp(1e6, -182), 1.0)),
     "zp_cross_section_exact"),
    (lambda: zp_cross_section_chain(_LIGHT, ScatteringConfig(math.ldexp(1e6, -254), 1.0)),
     "zp_cross_section_chain"),
    (lambda: thermal_brillouin_cross_section(_rho0(_LIGHT, 1e-40), ScatteringConfig(
        1e-64, 1.0, temperature=300.0)), "thermal_brillouin_cross_section"),  # 9.25e-280
    (lambda: ratio_zp_thermal(fluid_medium("d", rho0=1.0, cs=1.0, eta=1e66, drho=1.0),
                              ScatteringConfig(math.ldexp(1.0, -957), 2.0, temperature=1.0)),
     "ratio_zp_thermal"),
    (lambda: scalar_field_analog(1e-100, Separation(1e-140)), "correlator"),
    (lambda: scalar_field_analog(1e120, Separation(1e110)), "correlator"),
    (lambda: scalar_field_analog(2.0**-1062, Separation(0.0, -2.0**-13)), "correlator"),
], ids=["omega-tiny-wavelength", "structure-factor-heavy", "matrix-element-omega",
        "dos-omega", "dos-epsilon0", "flux-tiny-volume", "flux-zero-box", "chain-eta-1e103",
        "ratio-drho-1e-170", "correlator-cdt-inf", "matrix-element-subnormal",
        "dos-subnormal", "correlator-tiny-rho0", "boundary-tiny-rho0",
        "structure-factor-tiny-rho0", "beta-s-tiny-rho0", "total-omega", "reduced-omega",
        "exact-light", "chain-light", "brillouin-light", "ratio-eta", "analog-slow",
        "analog-fast", "analog-cdt"])
def test_library_result_outside_the_normal_range_is_a_typed_error(call, name):
    # a normal value or a FluctusError naming the function, never inf or a subnormal
    with pytest.raises(FluctusError, match=name):
        call()


# --- config validation -------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        ScatteringConfig(omega=-1.0, theta=1.0)
    with pytest.raises(ValueError):
        ScatteringConfig(omega=1e15, theta=0.0)
    with pytest.raises(ValueError):
        ScatteringConfig(omega=1e15, theta=3.2)
    with pytest.raises(ValueError):
        ScatteringConfig(omega=1e15, theta=1.0, temperature=-5.0)
    with pytest.raises(ValueError):
        omega_from_wavelength(0.0)
