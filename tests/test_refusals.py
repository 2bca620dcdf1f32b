"""Every scalar argument is read as a float and refused in one of three ways.

Speeds, the light frequency and the golden-rule pieces' frequencies, the
bath temperature, the permittivity, lengths, damping lengths, the
distances to a wall or a plate and volumes go through
``fluctus.errors.positive``, which raises ``ValueError("<what> must be
positive and finite, got <x>")``.  Distances, the wavenumber and the
polarization factor, which may be 0, go through ``errors.nonnegative``
("<what> must be finite and >= 0, got <x>"); time lags, the transverse
distance to a wall's normal and the scattering angle through
``errors.real`` ("<what> must be finite, got <x>").  Every site is
pinned here by its full message, and no module but ``errors`` spells the
positive or the non-negative phrase in a string of its own.
"""

import argparse
import ast
import math
from pathlib import Path

import pytest

from fluctus import cli
from fluctus.correlator import (
    Separation,
    boundary_correlator,
    boundary_image_term,
    boundary_shift_planar,
    em_vacuum_shift_plate,
    equal_time_correlator,
    scalar_field_analog,
    zero_point_structure_factor,
)
from fluctus.lattice import ModeGrid, convergence_study, lattice_correlator
from fluctus.medium import builtin_material
from fluctus.scattering import (
    Polarization,
    ScatteringConfig,
    density_of_states,
    incident_flux,
    matrix_element_sq,
    omega_from_wavelength,
    polarization_factor,
    zp_cross_section_chain,
)
from fluctus.spectral import (
    damped_closed_form,
    extrapolated_correlator,
    regulated_integrand_reduction,
)
from fluctus.verify import rejected_variant_correlator

WATER = builtin_material("water")
PHRASE = "must be positive and finite"
SOURCES = Path(cli.__file__).resolve().parent

SITES = [
    pytest.param("--volume", lambda x: cli._cmd_xsection(argparse.Namespace(volume=x)),
                 id="cli-xsection"),
    pytest.param("sound speed", lambda x: Separation(1.0).regime(x), id="regime"),
    pytest.param("propagation speed", lambda x: scalar_field_analog(x, Separation(1.0)),
                 id="analog"),
    pytest.param("box side L", lambda x: ModeGrid(L=x, N=8), id="mode-grid"),
    pytest.param("damping length eps",
                 lambda x: lattice_correlator(WATER, ModeGrid(1.0, 8), (0.1, 0, 0), x),
                 id="lattice-correlator"),
    pytest.param("separation r", lambda x: convergence_study(WATER, x), id="convergence-study"),
    pytest.param("angular frequency", lambda x: ScatteringConfig(omega=x, theta=1.0),
                 id="config-omega"),
    pytest.param("temperature",
                 lambda x: ScatteringConfig(omega=3.5e15, theta=1.0, temperature=x),
                 id="config-temperature"),
    pytest.param("wavelength", omega_from_wavelength, id="omega-from-wavelength"),
    pytest.param("quantization volume",
                 lambda x: matrix_element_sq(WATER, 1.0, 1.0, 1.0, x, 1.0), id="m2"),
    pytest.param("quantization volume", lambda x: zp_cross_section_chain(
        WATER, ScatteringConfig(omega=3.5e15, theta=1.0), x), id="chain"),
    pytest.param("damping length eps", lambda x: damped_closed_form(WATER, 1e-6, 0.0, x),
                 id="spectral"),
    pytest.param("damping length eps",
                 lambda x: regulated_integrand_reduction(WATER, 1e-6, 0.0, x),
                 id="spectral-reduction"),
    pytest.param("distance r", lambda x: damped_closed_form(WATER, x, 0.0, 1e-7),
                 id="spectral-damped-r"),
    pytest.param("distance r", lambda x: regulated_integrand_reduction(WATER, x, 0.0, 1e-7),
                 id="spectral-reduction-r"),
    pytest.param("distance r", lambda x: extrapolated_correlator(WATER, x, 0.0),
                 id="spectral-extrapolated-r"),
    pytest.param("distance to wall z1", lambda x: boundary_image_term(WATER, x, 1e-9),
                 id="image-z1"),
    pytest.param("distance to wall z2", lambda x: boundary_image_term(WATER, 1e-9, x),
                 id="image-z2"),
    pytest.param("distance to wall z1", lambda x: boundary_correlator(WATER, x, 1e-9),
                 id="boundary-z1"),
    pytest.param("distance to wall z2", lambda x: boundary_correlator(WATER, 1e-9, x),
                 id="boundary-z2"),
    pytest.param("angular frequency omega",
                 lambda x: matrix_element_sq(WATER, x, 1.0, 1.0, 1.0, 1.0), id="m2-omega"),
    pytest.param("scattered frequency omega_prime",
                 lambda x: matrix_element_sq(WATER, 1.0, x, 1.0, 1.0, 1.0), id="m2-omega-prime"),
    pytest.param("phonon frequency omega_q",
                 lambda x: matrix_element_sq(WATER, 1.0, 1.0, x, 1.0, 1.0), id="m2-omega-q"),
    pytest.param("scattered frequency omega_prime", lambda x: density_of_states(x, 1.0, 1.0),
                 id="dos-omega-prime"),
    pytest.param("permittivity epsilon0", lambda x: density_of_states(1.0, x, 1.0),
                 id="dos-epsilon0"),
    pytest.param("quantization volume", lambda x: density_of_states(1.0, 1.0, x),
                 id="dos-volume"),
    pytest.param("permittivity epsilon0", lambda x: incident_flux(x, 1.0), id="flux-epsilon0"),
    pytest.param("quantization volume", lambda x: incident_flux(1.0, x), id="flux-volume"),
]
# The wall and the plate take z = 0 as BoundaryContactError before the refusal.
CONTACT_SITES = [
    pytest.param("distance to wall", lambda x: boundary_shift_planar(WATER, x), id="wall"),
    pytest.param("distance to plate", em_vacuum_shift_plate, id="plate"),
]
BAD = [(0.0, "0.0"), (-1.0, "-1.0"), (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")]


# The sites of errors.nonnegative, which take 0 (equal_time_correlator's r = 0 is
# the coincidence divergence), and of errors.real, which take any finite value.
NONNEGATIVE_SITES = [
    pytest.param("separation distance r", lambda x: Separation(x), id="separation-r"),
    pytest.param("distance r", lambda x: equal_time_correlator(WATER, x), id="equal-time-r"),
    pytest.param("wavenumber q", lambda x: zero_point_structure_factor(WATER, x),
                 id="structure-factor-q"),
    pytest.param("polarization factor pol_factor",
                 lambda x: matrix_element_sq(WATER, 1.0, 1.0, 1.0, 1.0, x), id="m2-pol-factor"),
    pytest.param("separation distance r", lambda x: rejected_variant_correlator(WATER, x, 0.0),
                 id="rejected-variant-r"),
]
REAL_SITES = [
    pytest.param("time lag dt", lambda x: Separation(1e-9, x), id="separation-dt"),
    pytest.param("transverse distance", lambda x: boundary_image_term(WATER, 1e-9, 1e-9, x),
                 id="image-transverse"),
    pytest.param("time lag dt", lambda x: boundary_image_term(WATER, 1e-9, 1e-9, 0.0, x),
                 id="image-dt"),
    pytest.param("transverse distance", lambda x: boundary_correlator(WATER, 1e-9, 2e-9, x),
                 id="boundary-transverse"),
    pytest.param("time lag dt", lambda x: boundary_correlator(WATER, 1e-9, 2e-9, 0.0, x),
                 id="boundary-dt"),
    pytest.param("time lag dt", lambda x: damped_closed_form(WATER, 1e-6, x, 1e-7),
                 id="spectral-damped-dt"),
    pytest.param("time lag dt", lambda x: regulated_integrand_reduction(WATER, 1e-6, x, 1e-7),
                 id="spectral-reduction-dt"),
    pytest.param("time lag dt", lambda x: extrapolated_correlator(WATER, 1e-6, x),
                 id="spectral-extrapolated-dt"),
    pytest.param("scattering angle theta",
                 lambda x: polarization_factor(x, Polarization.PARALLEL), id="polarization-theta"),
    pytest.param("time lag dt", lambda x: rejected_variant_correlator(WATER, 1e-9, x),
                 id="rejected-variant-dt"),
]


@pytest.mark.parametrize("value, text", BAD)
@pytest.mark.parametrize("what, call", SITES)
def test_each_site_refuses_with_the_one_message(what, call, value, text):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{what} must be positive and finite, got {text}"


@pytest.mark.parametrize("value, text", BAD[1:])
@pytest.mark.parametrize("what, call", CONTACT_SITES)
def test_each_contact_site_refuses_with_the_one_message(what, call, value, text):
    test_each_site_refuses_with_the_one_message(what, call, value, text)


def _spelled_outside_errors(phrase=PHRASE):
    for path in sorted(SOURCES.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text())
        docstrings = {
            id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
        }
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docstrings and phrase in node.value):
                yield f"{path.name}:{node.lineno}"


def test_only_errors_spells_the_positive_and_finite_refusal():
    assert list(_spelled_outside_errors()) == []


def test_only_errors_spells_the_nonnegative_refusal():
    assert list(_spelled_outside_errors("must be finite and >= 0")) == []


@pytest.mark.parametrize("value, text", BAD[1:])
@pytest.mark.parametrize("what, call", NONNEGATIVE_SITES)
def test_each_nonnegative_site_refuses_with_the_one_message(what, call, value, text):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{what} must be finite and >= 0, got {text}"


@pytest.mark.parametrize("value, text", BAD[2:])
@pytest.mark.parametrize("what, call", REAL_SITES)
def test_each_real_site_refuses_with_the_one_message(what, call, value, text):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{what} must be finite, got {text}"
