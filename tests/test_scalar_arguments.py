"""Numpy scalars passed as bare arguments are read as Python floats.

Every scalar argument of a public call goes through ``fluctus.errors``
(``positive``, ``nonnegative`` or ``real``), which converts it with
``float(x)`` before it is checked or used.  These are the calls that
returned a ``numpy.float64`` when an argument was one, and those that
raised a numpy ``RuntimeWarning`` (an error under the project's warning
filter) where the float call raises its typed error.  Each returns the
float call's value, as a ``float``, or raises the float call's error.
"""

import numpy as np
import pytest

from fluctus.correlator import (
    Separation,
    boundary_correlator,
    boundary_shift_planar,
    equal_time_correlator,
    scalar_field_analog,
)
from fluctus.errors import FluctusError
from fluctus.lattice import ModeGrid, convergence_study, lattice_correlator
from fluctus.medium import builtin_material
from fluctus.scattering import (
    density_of_states,
    incident_flux,
    matrix_element_sq,
    omega_from_wavelength,
)
from fluctus.spectral import regulated_integrand_reduction
from fluctus.verify import rejected_variant_correlator

WATER = builtin_material("water")

# Each probe takes the converter of its bare numbers: float or np.float64.
VALUES = [
    pytest.param(lambda n: equal_time_correlator(WATER, n(1e-9)).value, id="equal-time"),
    pytest.param(lambda n: boundary_shift_planar(WATER, n(1e-9)).value, id="wall"),
    pytest.param(lambda n: boundary_correlator(WATER, n(1e-9), n(2e-9), n(1e-9),
                                               n(1e-13)).value, id="boundary"),
    pytest.param(lambda n: scalar_field_analog(n(3e8), Separation(1e-9)), id="analog"),
    pytest.param(lambda n: omega_from_wavelength(n(350e-9)), id="omega-from-wavelength"),
    pytest.param(lambda n: matrix_element_sq(WATER, n(1e15), n(1e15), n(1e10), n(1.0),
                                             n(1.0)), id="m2"),
    pytest.param(lambda n: density_of_states(n(1e15), n(1.96), n(1.0)), id="dos"),
    pytest.param(lambda n: incident_flux(n(1.96), n(1.0)), id="flux"),
    pytest.param(lambda n: convergence_study(WATER, n(16e-9)).r, id="convergence-study-r"),
    pytest.param(lambda n: rejected_variant_correlator(WATER, n(1e-9), n(1e-13)),
                 id="rejected-variant"),
]

# Each probe with the FluctusError the float call raises.
REFUSALS = [
    pytest.param(lambda n: equal_time_correlator(WATER, n(1e-300)),
                 "correlator at r = 1e-300 m, c*|dt| = 0.0 m is outside the float range",
                 id="equal-time"),
    pytest.param(lambda n: regulated_integrand_reduction(WATER, n(1e-300), 0.0, 1e300),
                 "regulated_integrand_reduction at r = 1e-300 m, dt = 0.0 s, eps = 1e+300 m: "
                 "eps / r is outside the float range", id="spectral"),
    pytest.param(lambda n: lattice_correlator(WATER, ModeGrid(1e-300, 64), (0, 0, 1e-301),
                                              n(1e300)),
                 "lattice_correlator at L = 1e-300 m: eps / L is outside the float range",
                 id="lattice"),
    pytest.param(lambda n: scalar_field_analog(n(1e200), Separation(1e-9)),
                 "correlator at r = 1e-09 m, c*|dt| = 0.0 m is outside the float range",
                 id="analog"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("probe", VALUES)
def test_a_numpy_argument_gives_the_float_value(probe):
    value = probe(np.float64)
    assert type(value) is float
    assert value.hex() == probe(float).hex()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("probe, message", REFUSALS)
def test_a_numpy_argument_meets_the_float_refusal(probe, message):
    for n in (float, np.float64):
        with pytest.raises(FluctusError) as info:
            probe(n)
        assert type(info.value) is FluctusError and str(info.value) == message
