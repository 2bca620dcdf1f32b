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

Values that are right, not only finite: scaling rho0 by 2**k scales each
rho0-linear result by exactly 2**(p k), bit for bit, wherever that
result is a normal float, and so does scaling every length of a draw
together, and scaling the light's angular frequency omega (a cross
section as omega**5 or omega**4, the ratio as omega).  A wrong 0, or a
value off by one ulp, fails this property.
"""

import math
import sys
from dataclasses import astuple, dataclass, replace

import numpy as np
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
from fluctus.medium import C_LIGHT, HBAR, K_B, FluidMedium, builtin_material, fluid_medium
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
from fluctus.spectral import (
    SpectralEstimate,
    damped_closed_form,
    extrapolated_correlator,
    regulated_integrand_reduction,
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


# Each call's bare-number arguments pass through ``n``: ``float`` (which
# leaves a float as it is), or ``np.float64`` in the numpy-argument property.
# The value types, the polarization selection and dx are passed as drawn.
CALLS = {
    "correlator": lambda d, n=float: correlator(d.medium, d.sep),
    "equal_time_correlator": lambda d, n=float: equal_time_correlator(d.medium, n(d.a)),
    "scalar_field_analog": lambda d, n=float: scalar_field_analog(n(d.a), d.sep),
    "boundary_shift_planar": lambda d, n=float: boundary_shift_planar(d.medium, n(d.a)),
    "boundary_image_term": lambda d, n=float: boundary_image_term(
        d.medium, n(d.a), n(d.b), n(d.transverse), n(d.sep.dt)),
    "boundary_correlator": lambda d, n=float: boundary_correlator(
        d.medium, n(d.a), n(d.b), n(d.transverse), n(d.sep.dt)),
    "em_vacuum_shift_plate": lambda d, n=float: em_vacuum_shift_plate(n(d.a)),
    "zero_point_structure_factor": lambda d, n=float: zero_point_structure_factor(d.medium,
                                                                                  n(d.a)),
    "omega_from_wavelength": lambda d, n=float: omega_from_wavelength(n(d.a)),
    "phonon_kinematics": lambda d, n=float: phonon_kinematics(d.medium, d.cfg),
    "polarization_factor": lambda d, n=float: polarization_factor(n(d.cfg.theta), d.cfg.pol),
    "matrix_element_sq": lambda d, n=float: matrix_element_sq(
        d.medium, n(d.cfg.omega), n(d.a), n(d.b), n(d.volume),
        n(polarization_factor(d.cfg.theta, d.cfg.pol))),
    "density_of_states": lambda d, n=float: density_of_states(n(d.a), n(d.b), n(d.volume)),
    "incident_flux": lambda d, n=float: incident_flux(n(d.a), n(d.volume)),
    "zp_cross_section_chain": lambda d, n=float: zp_cross_section_chain(d.medium, d.cfg,
                                                                        n(d.volume)),
    "zp_cross_section_exact": lambda d, n=float: zp_cross_section_exact(d.medium, d.cfg),
    "zp_cross_section_reduced": lambda d, n=float: zp_cross_section_reduced(d.medium, d.cfg),
    "adiabatic_compressibility": lambda d, n=float: adiabatic_compressibility(d.medium),
    "thermal_brillouin_cross_section": lambda d, n=float: thermal_brillouin_cross_section(
        d.medium, d.cfg),
    "thermal_total_cross_section": lambda d, n=float: thermal_total_cross_section(d.medium,
                                                                                  d.cfg),
    "ratio_zp_thermal": lambda d, n=float: ratio_zp_thermal(d.medium, d.cfg),
    "lattice_correlator": lambda d, n=float: lattice_correlator(d.medium, ModeGrid(n(d.a), 8),
                                                                d.dx, n(d.b)),
    "damped_closed_form": lambda d, n=float: damped_closed_form(d.medium, n(d.sep.r),
                                                                n(d.sep.dt), n(d.b)),
    "regulated_integrand_reduction": lambda d, n=float: regulated_integrand_reduction(
        d.medium, n(d.sep.r), n(d.sep.dt), n(d.b)),
    "extrapolated_correlator": lambda d, n=float: extrapolated_correlator(d.medium, n(d.sep.r),
                                                                          n(d.sep.dt)),
}

# Positive floats, log-uniform from the smallest subnormal to the largest finite.
_POSITIVE = st.floats(-323.3, 308.25).map(lambda e: 10.0 ** e)


def _signed(x):
    return st.one_of(st.just(0.0), st.builds(lambda s, y: s * y,
                                             st.sampled_from([-1.0, 1.0]), x))


_SIGNED = _signed(_POSITIVE)
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

# Physically sized draws: water-like media, nm lengths and optical frequencies,
# with a box displacement below L/2 and the volume over the whole range.
_NM = st.floats(-1.0, 1.0).map(lambda e: 1e-9 * 10.0 ** e)

_PHYSICAL_MEDIA = st.builds(
    fluid_medium, st.just("physical"), rho0=st.floats(500.0, 3000.0),
    cs=st.floats(300.0, 3000.0), eta=st.floats(1.0, 2.0), drho=st.floats(-2.0, 2.0),
    cp=st.one_of(st.none(), st.floats(1e3, 5e3)),
    deps_dt=st.one_of(st.none(), st.floats(-1e-3, 1e-3)),
    default_temperature=st.floats(200.0, 400.0))

_PHYSICAL_CONFIGS = st.builds(
    ScatteringConfig, omega=st.floats(200e-9, 800e-9).map(omega_from_wavelength),
    theta=st.floats(0.01, math.pi), pol=st.sampled_from(list(Polarization)),
    temperature=st.one_of(st.none(), st.floats(200.0, 400.0)))


@st.composite
def _physical_draws(draw):
    a = draw(_NM)
    return Draw(draw(_PHYSICAL_MEDIA), Separation(draw(_NM), draw(_signed(_NM)) * 1e-3),
                draw(_PHYSICAL_CONFIGS), a, draw(_NM), draw(st.one_of(st.just(0.0), _NM)),
                draw(_POSITIVE), tuple(a * draw(st.floats(-0.25, 0.25)) for _ in range(3)))


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
# |eps + i cs dt| overflows although both parts are finite
_HUGE_DAMPED_LAG = Draw(fluid_medium("u", rho0=1.0, cs=1.0, eta=1.0, drho=0.0),
                        Separation(1.0, -1.7782794100389228e308), _AT_350NM, 0.0, 1e308,
                        0.0, 1.0)


def _values(result):
    if isinstance(result, (CorrelatorValue, CrossSectionValue)):
        return (result.value,)
    if isinstance(result, SpectralEstimate):
        return (result.value, result.error_estimate)
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
@example(name="damped_closed_form", draw=_HUGE_DAMPED_LAG)
def test_public_call_is_finite_or_a_typed_error(name, draw):
    try:
        result = CALLS[name](draw)
    except (FluctusError, ValueError):
        return
    assert all(math.isfinite(v) for v in _values(result)), (name, result)
    if isinstance(result, CrossSectionValue):
        assert result.value >= 0.0, (name, result)


def _outcome(name, draw, n):
    # each value's type and bits, or the refusal's type and message
    try:
        return [(type(v), float.hex(v)) for v in _values(CALLS[name](draw, n))]
    except (FluctusError, ValueError) as exc:
        return type(exc), str(exc)


# Every bare-number argument is read once, as a Python float, by
# fluctus.errors: passed as an np.float64 it gives the float call's result
# and bits, or its refusal and message, never a numpy scalar or a numpy
# warning (an error under the project's warning filter).
@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(CALLS)), draw=st.one_of(_DRAWS, _physical_draws()))
def test_numpy_scalar_arguments_give_the_float_results(name, draw):
    assert _outcome(name, draw, np.float64) == _outcome(name, draw, float), name


@settings(max_examples=200, deadline=None)
@given(cs=st.floats(C_LIGHT / 2, C_LIGHT, exclude_max=True), rho0=_POSITIVE,
       eta=st.floats(0.0, 308.25).map(lambda e: 10.0 ** e), drho=_SIGNED,
       temperature=_POSITIVE)
def test_sound_from_half_light_speed_up_is_refused(cs, rho0, eta, drho, temperature):
    with pytest.raises(MaterialValidationError) as exc:
        fluid_medium("drawn", rho0=rho0, cs=cs, eta=eta, drho=drho,
                     default_temperature=temperature)
    assert exc.value.violations == ["cS < c/2"]


@settings(max_examples=200, deadline=None)
@given(medium=_PHYSICAL_MEDIA, q=st.floats(1e6, 1e11), cfg=_PHYSICAL_CONFIGS,
       cp=st.floats(1e3, 5e3), deps_dt=st.floats(1e-6, 1e-3), sign=st.sampled_from([-1, 1]))
def test_exponent_apart_forms_equal_their_plain_products(medium, q, cfg, cp, deps_dt, sign):
    # bit for bit wherever the plain product stays in the normal range
    assert zero_point_structure_factor(medium, q) == HBAR * medium.rho0 * q / (2.0 * medium.cs)
    assert adiabatic_compressibility(medium) == 1.0 / medium.rho0 / medium.cs / medium.cs
    deps_dt *= sign
    T, omega2 = cfg.temperature or medium.default_temperature, cfg.omega * cfg.omega
    plain = (K_B / (16.0 * math.pi**2 * C_LIGHT**4) * omega2 * omega2 * T
             * (medium.drho * medium.drho / medium.cs / medium.cs + T / cp * deps_dt * deps_dt)
             / medium.rho0 * polarization_factor(cfg.theta, cfg.pol))
    full = replace(medium, cp=cp, deps_dt=deps_dt)
    assert thermal_total_cross_section(full, cfg).value == plain


# --- exact scaling ------------------------------------------------------------

#: The power p of 2**(p k) by which each call's values scale when rho0 is
#: scaled by 2**k (axis 0), when every length of the draw (r, dt, a, b,
#: transverse and dx: the z, eps and L of the calls) is (axis 1), and when
#: omega is (axis 2); None where the call is not homogeneous in them.
#: ``zero_point_structure_factor`` reads ``a`` as the wavenumber q, so it
#: scales as 2**k with the lengths.
SCALING = {
    "correlator": (1, -4, None),
    "equal_time_correlator": (1, -4, None),
    "boundary_shift_planar": (1, -4, None),
    "boundary_image_term": (1, -4, None),
    "boundary_correlator": (1, -4, None),
    "zero_point_structure_factor": (1, 1, None),
    "zp_cross_section_chain": (-1, None, 5),
    "zp_cross_section_exact": (-1, None, 5),
    "zp_cross_section_reduced": (-1, None, 5),
    "adiabatic_compressibility": (-1, None, None),
    "thermal_brillouin_cross_section": (-1, None, 4),
    "thermal_total_cross_section": (-1, None, 4),
    "ratio_zp_thermal": (0, None, 1),
    "lattice_correlator": (1, -4, None),
    "damped_closed_form": (1, -4, None),
    "regulated_integrand_reduction": (1, -4, None),
    "extrapolated_correlator": (1, -4, None),
}


def _ldexp(x, k):
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.inf


def _exactly_scaled(x, k):
    # x * 2**k, or None where that product is not exact
    y = _ldexp(x, k)
    return y if math.isfinite(y) and _ldexp(y, -k) == x else None


def _scaled_draw(draw, k, axis):
    """The draw with rho0 (axis 0), every length (1) or omega (2) scaled by
    2**k; None where a scaled input would not be exact, or where omega
    before or after is not normal: the phonon shift is a difference at
    omega's float resolution, which a subnormal omega does not scale."""
    if axis == 0:
        rho0 = _exactly_scaled(draw.medium.rho0, k)
        return None if rho0 is None else replace(draw, medium=replace(draw.medium, rho0=rho0))
    if axis == 2:
        omega = _exactly_scaled(draw.cfg.omega, k)
        if omega is None or not (_normal(omega) and _normal(draw.cfg.omega)):
            return None
        return replace(draw, cfg=replace(draw.cfg, omega=omega))
    xs = [_exactly_scaled(x, k) for x in (draw.sep.r, draw.sep.dt, draw.a, draw.b,
                                         draw.transverse, *draw.dx)]
    if None in xs:
        return None
    r, dt, a, b, transverse, *dx = xs
    return replace(draw, sep=Separation(r, dt), a=a, b=b, transverse=transverse, dx=tuple(dx))


def _normal(x):
    return sys.float_info.min <= abs(x) < math.inf


_WATER_1E9 = Draw(_WATER, Separation(1e-9, 2e-13), _AT_350NM, 1e-9, 3e-9, 1e-9, 1.0,
                  (0.2e-9, 0.1e-9, 0.0))
_WATER_Q = replace(_WATER_1E9, a=1e7)
_WATER_V1E250 = replace(_WATER_1E9, volume=1e250)
_WATER_RAYLEIGH = replace(_WATER_1E9, medium=replace(_WATER, cp=4180.0, deps_dt=-1e-4),
                          cfg=replace(_AT_350NM, theta=1.0))
# x / rho0 overflows before the parallel polarization factor, 0.29, brings it back
_SLOW = Draw(fluid_medium("slow", rho0=1.0, cs=1e-64, eta=1.0, drho=0.0), Separation(0.0),
             ScatteringConfig(omega=1.0, theta=1.0, pol=Polarization.PARALLEL), 0.0, 0.0, 0.0, 1.0)
# rho^2 is subnormal where K / rho^4 is still normal: the plain product rounds rho^2 to 52 bits
_SUBNORMAL_RHO2 = Draw(fluid_medium("corner", rho0=5.414288132957572e-265, cs=1e8, eta=1.0,
                                    drho=0.0), Separation(1.3112827216033715e-154), _AT_350NM,
                       1.0, 1.0, 0.0, 1.0)
# rho0 = 1e-300 at omega = 1e6: the zero-point partial products of omega underflow before
# rho0 brings the value back, at omega 2**-182 (the closed forms, then 0.0), 2**-254 (the
# chain, off by 2e-5) and 2**-262 (the chain, then 0.0)
_LIGHT = replace(_WATER_1E9, medium=fluid_medium("light", rho0=1e-300, cs=1480.0, eta=1.33,
                                                 drho=0.79),
                 cfg=ScatteringConfig(omega=1e6, theta=1.0))
# rho0 = 1e-40 at T = 300: omega = 1e-64 gave 9.251873284023184e-280, where the value is
# 9.2519387597139587e-280, and omega = 1e-66 gave 0.0
_LIGHT_THERMAL = replace(_LIGHT, medium=replace(_LIGHT.medium, rho0=1e-40),
                         cfg=ScatteringConfig(omega=math.ldexp(1e-64, 200), theta=1.0,
                                              temperature=300.0))
# drho = 0 at cs = 1e-160: the zero term set the bracket's power of two, and omega = 1e95
# gave 0.0, where the value is 2.330488534219703e+294
_NO_DRHO = replace(_LIGHT, medium=fluid_medium("z", rho0=1e20, cs=1e-160, eta=1.0, drho=0.0,
                                               cp=4180.0, deps_dt=-1e-4),
                   cfg=ScatteringConfig(omega=math.ldexp(1e95, -100), theta=1.0,
                                        temperature=300.0))
# eta = 1e66: at omega = 2**-957 the ratio was 1.7599708315994718e-44, not ...713e-44
_HIGH_ETA = replace(_LIGHT, medium=fluid_medium("d", rho0=1.0, cs=1.0, eta=1e66, drho=1.0),
                    cfg=ScatteringConfig(omega=1.0, theta=2.0, temperature=1.0))
_SCALED = sorted((name, axis) for name, ps in SCALING.items()
                 for axis, p in enumerate(ps) if p is not None)


# Drawn, k puts the first expected value at binary exponent ``exponent``,
# so that most draws with a normal value check something; half the draws
# are physically sized, as few full-range ones give a normal value.  The
# examples, the faults this property found, give k: rho0 = 997 * 2**k on
# axis 0, and on axis 2 the omega of a case above times 2**k.
@settings(max_examples=735, deadline=None)
@given(case=st.sampled_from(_SCALED), draw=st.one_of(_DRAWS, _physical_draws()),
       exponent=st.integers(-1021, 1024), k=st.none())
@example(case=("correlator", 0), draw=_WATER_1E9, exponent=0, k=-1010)
@example(case=("equal_time_correlator", 0), draw=_WATER_1E9, exponent=0, k=-1010)
@example(case=("boundary_correlator", 0), draw=_WATER_1E9, exponent=0, k=-1010)
@example(case=("boundary_shift_planar", 0), draw=_WATER_1E9, exponent=0, k=-1010)
@example(case=("boundary_correlator", 0), draw=_WATER_1E9, exponent=0, k=-1018)
@example(case=("zp_cross_section_chain", 0), draw=_WATER_1E9, exponent=0, k=800)
@example(case=("zp_cross_section_chain", 0), draw=_WATER_1E9, exponent=0, k=900)
@example(case=("zp_cross_section_chain", 0), draw=_WATER_1E9, exponent=0, k=-1017)
@example(case=("zp_cross_section_chain", 0), draw=_WATER_V1E250, exponent=0, k=-500)
@example(case=("thermal_total_cross_section", 0), draw=_WATER_RAYLEIGH, exponent=0, k=-1030)
@example(case=("thermal_total_cross_section", 0), draw=_WATER_RAYLEIGH, exponent=0, k=1000)
@example(case=("adiabatic_compressibility", 0), draw=_WATER_1E9, exponent=0, k=-1040)
@example(case=("zero_point_structure_factor", 0), draw=_WATER_Q, exponent=0, k=-925)
@example(case=("zp_cross_section_reduced", 0), draw=_SLOW, exponent=1023, k=None)
@example(case=("correlator", 1), draw=_SUBNORMAL_RHO2, exponent=0, k=100)
@example(case=("zp_cross_section_exact", 2), draw=_LIGHT, exponent=0, k=-182)
@example(case=("zp_cross_section_reduced", 2), draw=_LIGHT, exponent=0, k=-182)
@example(case=("zp_cross_section_chain", 2), draw=_LIGHT, exponent=0, k=-254)
@example(case=("zp_cross_section_chain", 2), draw=_LIGHT, exponent=0, k=-262)
@example(case=("thermal_brillouin_cross_section", 2), draw=_LIGHT_THERMAL, exponent=0, k=-200)
@example(case=("thermal_brillouin_cross_section", 2), draw=replace(
    _LIGHT_THERMAL, cfg=replace(_LIGHT_THERMAL.cfg, omega=math.ldexp(1e-66, 200))),
    exponent=0, k=-200)
@example(case=("thermal_total_cross_section", 2), draw=_NO_DRHO, exponent=0, k=100)
@example(case=("ratio_zp_thermal", 2), draw=_HIGH_ETA, exponent=0, k=-957)
def test_scaling_by_a_power_of_two_is_exact(case, draw, exponent, k):
    name, axis = case
    p = SCALING[name][axis]
    try:
        base = _values(CALLS[name](draw))
    except (FluctusError, ValueError):
        return
    if k is None:
        k = (exponent - math.frexp(base[0])[1]) // p if p else exponent
    scaled = _scaled_draw(draw, k, axis)
    expected = tuple(_ldexp(v, p * k) for v in base)
    if scaled is None or not all(_normal(v) and _normal(e) for v, e in zip(base, expected)):
        return
    try:
        values = _values(CALLS[name](scaled))
    except FluctusError as exc:
        # omega scaled up can take the ratio past its domain x = hbar Omega_q / kB T <= 0.1
        if name == "ratio_zp_thermal" and "is above 0.1" in str(exc):
            return
        raise
    assert values == expected, (name, axis, k)


# The scalar analog cannot join SCALING: its speed is the draw's ``a``, which
# ``_scaled_draw`` scales as a length.  Scaling c by 2**j at fixed c dt scales
# it by 2**(3 j), and scaling r and dt by 2**k by 2**(-4 k); drawn, j puts c at
# binary exponent ``c_exponent`` and k the expected value at ``exponent``.  The
# examples reach, from a base in the normal range, c = 1e-100 at r = 1e-140 and
# c = 1e120 at r = 1e110, where hbar c^3 / 2 pi^2 leaves the float range, and a
# c and r where rho^2 is subnormal but the value is not, c = 1e-297 at
# dt = 1e-11, where c|dt| is subnormal, and c = 2**-1062 at r = 0, dt = -2**-13,
# where c|dt| rounds to 0 but the value is 3.6e300.
@settings(max_examples=600, deadline=None)
@given(c=_POSITIVE, sep=st.builds(Separation, _NONNEGATIVE, _SIGNED),
       c_exponent=st.integers(-1073, 1024), exponent=st.integers(-1021, 1024),
       j=st.none(), k=st.none())
@example(c=math.ldexp(1e-100, 332), sep=Separation(math.ldexp(1e-140, 465)), c_exponent=0,
         exponent=0, j=-332, k=-465)
@example(c=math.ldexp(1e120, -399), sep=Separation(math.ldexp(1e110, -365)), c_exponent=0,
         exponent=0, j=399, k=365)
@example(c=math.ldexp(1.755956641450399e-91, 300),
         sep=Separation(math.ldexp(1.3112827216033715e-154, 511)), c_exponent=0, exponent=0,
         j=-300, k=-511)
@example(c=math.ldexp(1e-297, 986), sep=Separation(0.0, math.ldexp(-1e-11, 8)), c_exponent=0,
         exponent=0, j=-986, k=-994)
@example(c=1.0, sep=Separation(0.0, -1.0), c_exponent=0, exponent=0, j=-1062, k=-1075)
def test_the_analog_scales_exactly_in_its_speed_and_lengths(c, sep, c_exponent, exponent,
                                                            j, k):
    try:
        base = scalar_field_analog(c, sep)
    except (FluctusError, ValueError):
        return
    if j is None:
        j = c_exponent - math.frexp(c)[1]
        k = (3 * j - exponent + math.frexp(base)[1]) // 4
    scaled = [_exactly_scaled(x, e) for x, e in ((c, j), (sep.r, k), (sep.dt, k - j))]
    expected = _ldexp(base, 3 * j - 4 * k)
    if None in scaled or not (_normal(base) and _normal(expected)):
        return
    c2, r2, dt2 = scaled
    assert scalar_field_analog(c2, Separation(r2, dt2)) == expected, (j, k)
