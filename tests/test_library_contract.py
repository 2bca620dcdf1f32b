"""Every public closed form returns finite values or raises a typed error.

Media, separations, lengths and configurations are drawn log-uniformly
over the whole float range, subnormals included.  A call passes if it
returns finite numbers, or raises FluctusError or ValueError (an invalid
argument).  Never inf, nan, a bare OverflowError or ZeroDivisionError,
and never a negative cross section.

The golden-rule pieces ``matrix_element_sq``, ``density_of_states`` and
``incident_flux`` take bare numbers, not a medium or a configuration;
they are called here with the draw's frequencies, permittivity and
volume, and through ``zp_cross_section_chain``.  The lattice mode sum
runs at N = 8 in a box of side ``a`` with damping ``b``; media are
drawn with cs < c/2, and every cs in [c/2, c) is refused at
construction.
"""

import math
from dataclasses import astuple, dataclass

import pytest
from hypothesis import example, given, settings, strategies as st

from fluctus.correlator import (
    CorrelatorValue,
    Separation,
    boundary_correlator,
    boundary_image_term,
    boundary_shift_planar,
    correlator,
    em_vacuum_shift_plate,
    equal_time_correlator,
    scalar_field_analog,
    zero_point_structure_factor,
)
from fluctus.errors import FluctusError, MaterialValidationError
from fluctus.lattice import ModeGrid, lattice_correlator
from fluctus.medium import C_LIGHT, FluidMedium, builtin_material, fluid_medium
from fluctus.scattering import (
    CrossSectionValue,
    Kinematics,
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


@dataclass(frozen=True)
class Draw:
    """One drawn input set; each function takes the arguments it needs."""

    medium: FluidMedium
    sep: Separation
    cfg: ScatteringConfig
    a: float           # a length (z, z1, r), a wavelength, a wavenumber or a speed
    b: float           # a second length (z2)
    transverse: float
    volume: float
    dx: tuple = (0.0, 0.0, 0.0)  # a displacement in a periodic box of side a


CALLS = {
    "correlator": lambda d: correlator(d.medium, d.sep),
    "equal_time_correlator": lambda d: equal_time_correlator(d.medium, d.a),
    "scalar_field_analog": lambda d: scalar_field_analog(d.a, d.sep),
    "boundary_shift_planar": lambda d: boundary_shift_planar(d.medium, d.a),
    "boundary_image_term": lambda d: boundary_image_term(d.medium, d.a, d.b, d.transverse,
                                                         d.sep.dt),
    "boundary_correlator": lambda d: boundary_correlator(d.medium, d.a, d.b, d.transverse,
                                                         d.sep.dt),
    "em_vacuum_shift_plate": lambda d: em_vacuum_shift_plate(d.a),
    "zero_point_structure_factor": lambda d: zero_point_structure_factor(d.medium, d.a),
    "omega_from_wavelength": lambda d: omega_from_wavelength(d.a),
    "phonon_kinematics": lambda d: phonon_kinematics(d.medium, d.cfg),
    "polarization_factor": lambda d: polarization_factor(d.cfg.theta, d.cfg.pol),
    "matrix_element_sq": lambda d: matrix_element_sq(
        d.medium, d.cfg.omega, d.a, d.b, d.volume, polarization_factor(d.cfg.theta, d.cfg.pol)),
    "density_of_states": lambda d: density_of_states(d.a, d.b, d.volume),
    "incident_flux": lambda d: incident_flux(d.a, d.volume),
    "zp_cross_section_chain": lambda d: zp_cross_section_chain(d.medium, d.cfg, d.volume),
    "zp_cross_section_exact": lambda d: zp_cross_section_exact(d.medium, d.cfg),
    "zp_cross_section_reduced": lambda d: zp_cross_section_reduced(d.medium, d.cfg),
    "adiabatic_compressibility": lambda d: adiabatic_compressibility(d.medium),
    "thermal_brillouin_cross_section": lambda d: thermal_brillouin_cross_section(d.medium,
                                                                                 d.cfg),
    "thermal_total_cross_section": lambda d: thermal_total_cross_section(d.medium, d.cfg),
    "ratio_zp_thermal": lambda d: ratio_zp_thermal(d.medium, d.cfg),
    "lattice_correlator": lambda d: lattice_correlator(d.medium, ModeGrid(d.a, 8), d.dx, d.b),
}

# Positive floats, log-uniform from the smallest subnormal to the largest finite.
_POSITIVE = st.floats(-323.3, 308.25).map(lambda e: 10.0 ** e)
_SIGNED = st.one_of(st.just(0.0), st.builds(lambda s, x: s * x,
                                            st.sampled_from([-1.0, 1.0]), _POSITIVE))
_NONNEGATIVE = st.one_of(st.just(0.0), _POSITIVE)


def _up_to(top):
    # log-uniform in (0, top]
    return st.floats(-323.3, math.log10(top)).map(lambda e: 10.0 ** e).filter(
        lambda x: 0.0 < x <= top)


_MEDIA = st.builds(
    lambda rho0, cs, eta, drho, cp, deps_dt, temperature: fluid_medium(
        "drawn", rho0=rho0, cs=cs, eta=eta, drho=drho, cp=cp, deps_dt=deps_dt,
        default_temperature=temperature),
    rho0=_POSITIVE,
    cs=_up_to(C_LIGHT).filter(lambda cs: 2 * cs < C_LIGHT),
    eta=st.floats(0.0, 308.25).map(lambda e: 10.0 ** e),
    drho=_SIGNED,
    cp=st.one_of(st.none(), _POSITIVE),
    deps_dt=st.one_of(st.none(), _SIGNED),
    temperature=_POSITIVE,
)

_CONFIGS = st.builds(
    ScatteringConfig,
    omega=_POSITIVE,
    theta=_up_to(math.pi),
    pol=st.sampled_from(list(Polarization)),
    temperature=st.one_of(st.none(), _POSITIVE),
)

_DRAWS = st.builds(Draw, medium=_MEDIA, sep=st.builds(Separation, _NONNEGATIVE, _SIGNED),
                   cfg=_CONFIGS, a=_NONNEGATIVE, b=_NONNEGATIVE, transverse=_NONNEGATIVE,
                   volume=_POSITIVE, dx=st.tuples(_SIGNED, _SIGNED, _SIGNED))

_AT_350NM = ScatteringConfig(omega=omega_from_wavelength(350e-9), theta=math.pi / 2)
# z1 = z2 = 1e-300: the direct and image terms are each about -1.2e308
_OVERFLOWING_SUM = Draw(builtin_material("water"), Separation(1.0), _AT_350NM,
                        1e-300, 1e-300, 1.3159811066592296e-86, 1.0)
# cs^2 rho0 underflows to 0; the shift falls below the float resolution of omega
_THIN = Draw(fluid_medium("thin", rho0=1e-200, cs=1e-100, eta=1.33, drho=0.8),
             Separation(1.0), _AT_350NM, 1.0, 1.0, 0.0, 1.0)

# Boxes whose mode sum, scaled by L^-4, leaves the float range (L = 1e-96,
# 1e-120) or underflows to 0 (L = 1e200, where |dx| = L/10 squared in
# metres also overflows).
_WATER = builtin_material("water")
_SMALL_BOX = Draw(_WATER, Separation(1.0), _AT_350NM, 1e-96, 9e-96, 0.0, 1.0,
                  (-0.8e-97, -0.04e-97, -1.0e-97))
_TINY_BOX = Draw(_WATER, Separation(1.0), _AT_350NM, 1e-120, 1e-122, 0.0, 1.0,
                 (1e-121, 0.0, 0.0))
_HUGE_BOX = Draw(_WATER, Separation(1.0), _AT_350NM, 1e200, 1e198, 0.0, 1.0,
                 (1e150, 0.0, 0.0))
_HUGE_DX = Draw(_WATER, Separation(1.0), _AT_350NM, 1e200, 1e198, 0.0, 1.0,
                (1e199, 0.0, 0.0))


def _values(result):
    if isinstance(result, (CorrelatorValue, CrossSectionValue)):
        return (result.value,)
    if isinstance(result, Kinematics):
        return astuple(result)
    if isinstance(result, tuple):
        return result
    return (result,)


@settings(max_examples=600, deadline=None)
@given(name=st.sampled_from(sorted(CALLS)), draw=_DRAWS)
@example(name="boundary_correlator", draw=_OVERFLOWING_SUM)
@example(name="zp_cross_section_exact", draw=_THIN)
@example(name="thermal_brillouin_cross_section", draw=_THIN)
@example(name="adiabatic_compressibility", draw=_THIN)
@example(name="lattice_correlator", draw=_SMALL_BOX)
@example(name="lattice_correlator", draw=_TINY_BOX)
@example(name="lattice_correlator", draw=_HUGE_BOX)
@example(name="lattice_correlator", draw=_HUGE_DX)
def test_public_call_is_finite_or_a_typed_error(name, draw):
    try:
        result = CALLS[name](draw)
    except (FluctusError, ValueError):
        return
    assert all(math.isfinite(v) for v in _values(result)), (name, result)
    if isinstance(result, CrossSectionValue):
        assert result.value >= 0.0, (name, result)


@settings(max_examples=200, deadline=None)
@given(cs=st.floats(C_LIGHT / 2, C_LIGHT, exclude_max=True), rho0=_POSITIVE,
       eta=st.floats(0.0, 308.25).map(lambda e: 10.0 ** e), drho=_SIGNED,
       temperature=_POSITIVE)
def test_sound_from_half_light_speed_up_is_refused(cs, rho0, eta, drho, temperature):
    with pytest.raises(MaterialValidationError) as exc:
        fluid_medium("drawn", rho0=rho0, cs=cs, eta=eta, drho=drho,
                     default_temperature=temperature)
    assert exc.value.violations == ["cS < c/2"]
