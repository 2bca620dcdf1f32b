"""Zero-point density fluctuations in classical liquids and their light scattering.

The phonon ground state of a fluid carries density fluctuations even at
zero temperature.  This package evaluates their two-point correlator in
closed form, cross-validates it against two independent numerical
routes (a regulated spectral quadrature and a finite-box mode sum), and
propagates the fluctuations into light-scattering observables: the
fifth-power-of-frequency zero-point cross section, the thermal Brillouin
and Rayleigh cross sections, and the zero-point share of the Stokes
line.
"""

from .correlator import (
    CorrelatorValue,
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
from .errors import (
    AliasingError,
    BoundaryContactError,
    CoincidenceDivergenceError,
    ConvergenceError,
    FluctusError,
    IllPosedStudyError,
    MaterialError,
    MaterialFileError,
    MaterialValidationError,
    MissingPropertyError,
    SoundConeSingularityError,
    UnknownMaterialError,
)
from .lattice import ConvergenceStudy, ModeGrid, convergence_study, lattice_correlator
from .medium import (
    DEFAULT_TEMPERATURE,
    FluidMedium,
    builtin_material,
    builtin_names,
    dumps_material,
    fluid_medium,
    load_material,
    parse_material,
    resolve_material,
)
from .scattering import (
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
from .spectral import (
    SpectralEstimate,
    damped_closed_form,
    extrapolated_correlator,
    regulated_integrand_reduction,
)
from .verify import verify_all, verify_chain, verify_lattice, verify_spectral

__version__ = "0.1.0"
