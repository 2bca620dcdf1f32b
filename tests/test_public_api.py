"""The names the ``fluctus`` package exports, pinned.

Adding or removing a public name is an API change: it shows up here as
a test edit, and CHANGES.md declares it.
"""

import dataclasses
import inspect
import math
import pickle

import pytest

import fluctus

PUBLIC_NAMES = [
    "AliasingError", "BoundaryContactError", "CoincidenceDivergenceError",
    "ConvergenceError", "ConvergenceStudy", "CorrelatorValue", "CrossSectionValue",
    "DEFAULT_TEMPERATURE", "FluctusError", "FluidMedium", "IllPosedStudyError",
    "Kinematics", "MaterialError", "MaterialFileError", "MaterialValidationError",
    "MissingPropertyError", "ModeGrid", "Polarization", "Regime", "ScatteringConfig",
    "Separation", "SoundConeSingularityError", "SpectralEstimate",
    "UnknownMaterialError", "adiabatic_compressibility", "boundary_correlator",
    "boundary_image_term", "boundary_shift_planar", "builtin_material",
    "builtin_names", "convergence_study", "correlator", "damped_closed_form",
    "density_of_states", "dumps_material", "em_vacuum_shift_plate",
    "equal_time_correlator", "extrapolated_correlator", "fluid_medium",
    "incident_flux", "lattice_correlator", "load_material", "matrix_element_sq",
    "omega_from_wavelength", "parse_material", "phonon_kinematics",
    "polarization_factor", "ratio_zp_thermal", "regulated_integrand_reduction",
    "resolve_material", "scalar_field_analog", "thermal_brillouin_cross_section",
    "thermal_total_cross_section", "verify_all", "verify_chain",
    "verify_lattice", "verify_spectral", "zero_point_structure_factor",
    "zp_cross_section_chain", "zp_cross_section_exact", "zp_cross_section_reduced",
]


def test_public_names_are_pinned():
    # submodules are left out: which of them are attributes depends on
    # what else has been imported
    exported = sorted(name for name, value in vars(fluctus).items()
                      if not name.startswith("_") and not inspect.ismodule(value))
    assert exported == PUBLIC_NAMES


@pytest.mark.parametrize("result", [
    fluctus.correlator(fluctus.builtin_material("water"), fluctus.Separation(1e-9)),
    fluctus.zp_cross_section_exact(fluctus.builtin_material("water"),
                                   fluctus.ScatteringConfig(omega=5.4e15, theta=math.pi)),
    fluctus.phonon_kinematics(fluctus.builtin_material("water"),
                              fluctus.ScatteringConfig(omega=5.4e15, theta=math.pi)),
], ids=["CorrelatorValue", "CrossSectionValue", "Kinematics"])
def test_result_types_are_frozen(result):
    for field in dataclasses.fields(result):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(result, field.name, getattr(result, field.name))


@pytest.mark.parametrize("cls, args", [
    (fluctus.CorrelatorValue, (-1.25e-3, "formula")),
    (fluctus.CrossSectionValue, (-1.25e-3, "formula", 0.5)),
], ids=["CorrelatorValue", "CrossSectionValue"])
def test_result_types_behave_as_generated_frozen_dataclasses(cls, args):
    # the hand-written __init__ against a generated frozen dataclass of the
    # same name and fields
    names = [field.name for field in dataclasses.fields(cls)]
    generated = dataclasses.make_dataclass(cls.__name__, names, frozen=True)
    value, reference = cls(*args), generated(*args)
    assert cls(**dict(zip(names, args))) == value
    assert dataclasses.asdict(value) == dataclasses.asdict(reference)
    assert dataclasses.astuple(value) == dataclasses.astuple(reference)
    assert repr(value) == repr(reference)
    assert value == cls(*args) and value != cls(2.0, *args[1:]) and value != reference
    changed = dataclasses.replace(value, value=2.0)
    assert type(changed) is cls and changed == cls(2.0, *args[1:]) and value.value == -1.25e-3
    restored = pickle.loads(pickle.dumps(value))
    assert type(restored) is cls and restored == value
    assert dataclasses.astuple(restored) == args
    assert hash(value) == hash(reference)
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.formula = "other"


def test_fluid_medium_is_the_class():
    # the converting wrapper's rule now lives in FluidMedium itself
    assert fluctus.fluid_medium is fluctus.FluidMedium
