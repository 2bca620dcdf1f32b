import importlib
import math
import re

import pytest
from hypothesis import given, strategies as st

from fluctus.correlator import (
    Regime,
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
from fluctus.errors import (
    BoundaryContactError,
    CoincidenceDivergenceError,
    FluctusError,
    SoundConeSingularityError,
)
from fluctus.medium import builtin_material

WATER = builtin_material("water")

# Frozen by independent high-precision arithmetic of the closed forms.
EQ_TIME_WATER_1NM = -3.598983558786755          # kg^2/m^6 at r = 1 nm
BOUNDARY_WATER_1NM = -0.22493647242417219       # kg^2/m^6 at z = 1 nm
TIMELIKE_WATER_R0_1NS = 2.2503716905608582e-12  # kg^2/m^6 at r = 0, dt = 1 ns
SF_WATER_1E7 = 3.552054397125e-28               # kg^2/m^3 at q = 1e7 /m
EM_PLATE_COEFF = 0.018997721932938332           # 3/(16 pi^2)


# --- separations and regimes ------------------------------------------------

def test_regime_classification():
    cs = WATER.cs
    assert Separation(1e-9, 0.0).regime(cs) is Regime.SPACELIKE
    assert Separation(1e-9, 1e-12).regime(cs) is Regime.TIMELIKE  # cs*dt = 1.48 nm
    assert Separation(0.0, 0.0).regime(cs) is Regime.COINCIDENT
    assert Separation(1.0, 1.0 / cs).regime(cs) is Regime.ON_CONE
    # just inside the tolerance band counts as on-cone
    assert Separation(1.0, 6.7568e-4).regime(cs) is Regime.ON_CONE


def test_a_time_lag_whose_cone_radius_rounds_to_zero_is_not_coincident():
    # cs*|dt| = 2**-1075 rounds to 0, but r = 0 < cs*|dt|: inside the cone
    assert Separation(0.0, -2.0**-13).regime(2.0**-1062) is Regime.TIMELIKE


def test_regime_classifies_lab_scale_points_on_the_kernels_plain_path(monkeypatch):
    # the exponent-apart fallback forms its value through scaled(); classifying needs none
    def fallback(*args):
        raise AssertionError("regime() took the exponent-apart fallback")

    # the module itself: the package's correlator() shadows it as an attribute
    monkeypatch.setattr(importlib.import_module("fluctus.correlator"), "scaled", fallback)
    cs = WATER.cs
    assert Separation(1e-9, 0.0).regime(cs) is Regime.SPACELIKE
    assert Separation(1e-9, 1e-12).regime(cs) is Regime.TIMELIKE
    assert Separation(0.0, 1e-12).regime(cs) is Regime.TIMELIKE


@pytest.mark.parametrize("cs", [0.0, -1.0, math.nan, math.inf])
def test_regime_needs_a_positive_finite_sound_speed(cs):
    with pytest.raises(ValueError, match="sound speed must be positive and finite"):
        Separation(0.0, 1.0).regime(cs)


def test_negative_distance_rejected():
    with pytest.raises(ValueError):
        Separation(-1.0, 0.0)
    # as Separation(r) does, an infinite or nan r is bad input, not a value out of range
    for r in (-1e-9, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="distance r must be finite and >= 0"):
            equal_time_correlator(WATER, r)


# --- the closed-form correlator ---------------------------------------------

def test_equal_time_value_matches_frozen_arithmetic():
    v = equal_time_correlator(WATER, 1e-9)
    assert v.value == pytest.approx(EQ_TIME_WATER_1NM, rel=1e-12, abs=0)
    assert v.value < 0
    assert v.formula == "equal-time-correlator"


def test_correlator_agrees_bit_for_bit_with_equal_time():
    for r in (0.3e-9, 1e-9, 7.7e-9, 1e-6):
        assert correlator(WATER, Separation(r, 0.0)).value == \
            equal_time_correlator(WATER, r).value


def test_inverse_fourth_power_scaling():
    v1 = equal_time_correlator(WATER, 1e-9).value
    v2 = equal_time_correlator(WATER, 2e-9).value
    assert v2 == pytest.approx(v1 / 16.0, rel=1e-14, abs=0)


def test_timelike_value_positive_and_frozen():
    v = correlator(WATER, Separation(0.0, 1e-9))
    assert v.value == pytest.approx(TIMELIKE_WATER_R0_1NS, rel=1e-12, abs=0)
    assert v.value > 0


def test_on_cone_and_coincident_raise():
    with pytest.raises(SoundConeSingularityError):
        correlator(WATER, Separation(1.48e-6, 1e-9))
    with pytest.raises(CoincidenceDivergenceError):
        correlator(WATER, Separation(0.0, 0.0))
    with pytest.raises(CoincidenceDivergenceError):
        equal_time_correlator(WATER, 0.0)
    # cs*|dt| overflows to inf: refused as out of the float range, not on-cone
    with pytest.raises(FluctusError) as exc:
        correlator(WATER, Separation(1e-9, 1e306))
    assert exc.type is FluctusError


@given(
    r=st.floats(1e-12, 1e-3),
    ratio=st.floats(1e-3, 0.99),
    timelike=st.booleans(),
)
def test_sign_structure(r, ratio, timelike):
    # spacelike separations anticorrelated, timelike positively correlated
    if timelike:
        dt = r / (ratio * WATER.cs)
    else:
        dt = ratio * r / WATER.cs
    value = correlator(WATER, Separation(r, dt)).value
    assert (value > 0) == timelike


@given(
    r=st.floats(1e-12, 1e-3),
    u=st.floats(0.0, 3.0).filter(lambda u: abs(u - 1.0) > 0.05),
    lam=st.floats(1e-60, 1e60),
)
def test_homogeneity_degree_minus_four(r, u, lam):
    dt = u * r / WATER.cs
    base = correlator(WATER, Separation(r, dt)).value
    scaled = correlator(WATER, Separation(lam * r, lam * dt)).value
    assert scaled == pytest.approx(base / lam**4, rel=1e-11, abs=0)


# --- scalar-field analog -----------------------------------------------------

def test_analog_ratio_is_a_single_constant():
    # swapping in the sound speed leaves one separation-independent factor
    ratios = []
    for i in range(10):
        r = (1.0 + 0.37 * i) * 1e-9
        dt = (0.2 + 0.05 * i) * r / WATER.cs
        sep = Separation(r, dt)
        ratios.append(scalar_field_analog(WATER.cs, sep)
                      / correlator(WATER, sep).value)
    expected = WATER.cs**4 / WATER.rho0
    for q in ratios:
        assert q == pytest.approx(ratios[0], rel=1e-12, abs=0)
        assert q == pytest.approx(expected, rel=1e-12, abs=0)


def test_analog_homogeneity_and_sign():
    c = 3.0e8
    a = scalar_field_analog(c, Separation(1e-9, 0.0))
    b = scalar_field_analog(c, Separation(2e-9, 0.0))
    assert b == pytest.approx(a / 16.0, rel=1e-13, abs=0)
    assert scalar_field_analog(c, Separation(0.0, 1e-15)) > 0
    with pytest.raises(SoundConeSingularityError):
        scalar_field_analog(c, Separation(3.0e-1, 1e-9))
    with pytest.raises(ValueError):
        scalar_field_analog(math.inf, Separation(1e-9, 0.0))
    with pytest.raises(FluctusError):  # the value, about -5e900, is outside the float range
        scalar_field_analog(1e300, Separation(1e-9, 0.0))


# --- boundary quantities ------------------------------------------------------

def test_boundary_shift_frozen_value_and_sign():
    v = boundary_shift_planar(WATER, 1e-9)
    assert v.value == pytest.approx(BOUNDARY_WATER_1NM, rel=1e-12, abs=0)
    assert v.value < 0  # fluctuations reduced near the wall


def test_boundary_shift_scaling():
    v1 = boundary_shift_planar(WATER, 1e-9).value
    v2 = boundary_shift_planar(WATER, 2e-9).value
    assert v2 == pytest.approx(v1 / 16.0, rel=1e-14, abs=0)


@pytest.mark.parametrize("z", [0.0, -0.0, "0", "-0.0"], ids=repr)
def test_boundary_contact_raises(z):
    # z is read as a float, so a numeric string of 0 is the contact too
    with pytest.raises(BoundaryContactError):
        boundary_shift_planar(WATER, z)
    with pytest.raises(BoundaryContactError):
        em_vacuum_shift_plate(z)


def test_image_term_at_coincident_points_is_the_planar_shift():
    for z in (0.3e-9, 1e-9, 5e-9, 1e-7):
        image = boundary_image_term(WATER, z, z, 0.0, 0.0).value
        shift = boundary_shift_planar(WATER, z).value
        assert image == pytest.approx(shift, rel=1e-12, abs=0)


def test_boundary_correlator_decomposes_into_direct_plus_image():
    z1, z2, rho, dt = 1e-9, 2e-9, 1.5e-9, 0.0
    total = boundary_correlator(WATER, z1, z2, rho, dt).value
    direct = correlator(WATER, Separation(math.hypot(rho, z1 - z2), dt)).value
    image = boundary_image_term(WATER, z1, z2, rho, dt).value
    assert total == pytest.approx(direct + image, rel=1e-14, abs=0)


def test_image_term_fades_by_fourth_power_decay():
    z = 1e-9
    # absolute fade with transverse distance: the whole gap between the
    # boundary and free correlators is the image term, falling as rho^-4
    gaps = []
    for rho, bound in ((1e-8, 4e-4), (1e-7, 4e-8), (1e-6, 4e-12)):
        gap = abs(boundary_correlator(WATER, z, z, rho, 0.0).value
                  - correlator(WATER, Separation(rho, 0.0)).value)
        assert gap == pytest.approx(
            abs(boundary_image_term(WATER, z, z, rho, 0.0).value), rel=1e-12, abs=0)
        assert gap < bound
        gaps.append(gap)
    assert gaps[1] / gaps[0] == pytest.approx(1e-4, rel=0.1, abs=0)
    # relative fade when receding from the wall at fixed direct separation
    rho = 5e-9
    near = abs(boundary_image_term(WATER, 1e-9, 1e-9, rho, 0.0).value)
    far = abs(boundary_image_term(WATER, 1e-7, 1e-7, rho, 0.0).value)
    free = abs(correlator(WATER, Separation(rho, 0.0)).value)
    assert near / free > 1e-3
    assert far / free < 1e-4


def test_boundary_correlator_rejects_coincident_direct_points():
    with pytest.raises(CoincidenceDivergenceError):
        boundary_correlator(WATER, 1e-9, 1e-9, 0.0, 0.0)


def test_boundary_correlator_rejects_on_cone_separations():
    # direct separation on the cone
    z1, z2, rho = 1e-9, 2e-9, 1.5e-9
    direct = math.hypot(rho, z1 - z2)
    with pytest.raises(SoundConeSingularityError):
        boundary_correlator(WATER, z1, z2, rho, direct / WATER.cs)
    # image separation on the cone
    image = math.hypot(rho, z1 + z2)
    with pytest.raises(SoundConeSingularityError):
        boundary_correlator(WATER, z1, z2, rho, image / WATER.cs)


def test_boundary_correlator_sum_beyond_the_float_range_is_refused_by_name():
    # each term is about -1.2e308 and finite; their sum is not
    z, transverse = 1e-300, 1.3159811066592296e-86
    assert math.isfinite(boundary_image_term(WATER, z, z, transverse, 0.0).value)
    with pytest.raises(FluctusError, match=re.escape(
            f"boundary_correlator at z1 = {z!r} m, z2 = {z!r} m, "
            f"transverse = {transverse!r} m, dt = 0.0 s is outside the float range")):
        boundary_correlator(WATER, z, z, transverse, 0.0)


# Finite inputs whose image separation overflows are out of the float range; a
# non-finite transverse or dt is bad input, refused as a ValueError naming it.
@pytest.mark.parametrize("z, transverse, dt, error, message", [
    (1e308, 0.0, 1e306, FluctusError,            # z1 + z2 and cs*|dt| overflow
     "correlator at r = inf m, c*|dt| = inf m is outside the float range"),
    (1e-9, math.nan, 1e306, ValueError, "transverse distance must be finite, got nan"),
    (1e-9, 0.0, math.nan, ValueError, "time lag dt must be finite, got nan"),
], ids=["r-and-cdt-inf", "r-nan-cdt-inf", "cdt-nan"])
def test_a_non_finite_image_separation_is_refused_by_name(z, transverse, dt, error, message):
    for call in (boundary_image_term, boundary_correlator):
        with pytest.raises(error, match=re.escape(message)) as exc:
            call(WATER, z, z, transverse, dt)
        assert exc.type is error


# --- electromagnetic plate comparison ----------------------------------------

def test_em_plate_coefficients():
    e2, b2 = em_vacuum_shift_plate(1.0)
    assert e2 == pytest.approx(EM_PLATE_COEFF, rel=1e-12, abs=0)
    assert e2 == -b2
    with pytest.raises(BoundaryContactError):
        em_vacuum_shift_plate(0.0)
    with pytest.raises(ValueError, match="distance to plate must be positive"):
        em_vacuum_shift_plate(-1e-9)


# --- structure factor ----------------------------------------------------------

def test_structure_factor_linear_in_q():
    assert zero_point_structure_factor(WATER, 0.0) == 0.0
    v = zero_point_structure_factor(WATER, 1e7)
    assert v == pytest.approx(SF_WATER_1E7, rel=1e-12, abs=0)
    assert zero_point_structure_factor(WATER, 2e7) == pytest.approx(2 * v, rel=1e-14, abs=0)
