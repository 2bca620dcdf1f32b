"""A physical scalar that is not positive and finite is refused in one way.

Speeds, the light frequency, the bath temperature, lengths, damping
lengths and volumes go through ``fluctus.errors.positive``, which raises
``ValueError("<what> must be positive and finite, got <x>")``.  Every site
is pinned here by its full message, and no module but ``errors`` spells
the phrase in a string of its own.
"""

import argparse
import ast
import math
from pathlib import Path

import pytest

from fluctus import cli
from fluctus.correlator import Separation, scalar_field_analog
from fluctus.lattice import ModeGrid, convergence_study, lattice_correlator
from fluctus.medium import builtin_material
from fluctus.scattering import (
    ScatteringConfig,
    matrix_element_sq,
    omega_from_wavelength,
    zp_cross_section_chain,
)
from fluctus.spectral import damped_closed_form

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
]
BAD = [(0.0, "0.0"), (-1.0, "-1.0"), (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")]


@pytest.mark.parametrize("value, text", BAD)
@pytest.mark.parametrize("what, call", SITES)
def test_each_site_refuses_with_the_one_message(what, call, value, text):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{what} must be positive and finite, got {text}"


def _spelled_outside_errors():
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
                    and id(node) not in docstrings and PHRASE in node.value):
                yield f"{path.name}:{node.lineno}"


def test_only_errors_spells_the_positive_and_finite_refusal():
    assert list(_spelled_outside_errors()) == []
