"""The four checked value types store their numbers as Python floats.

``FluidMedium``, ``Separation``, ``ScatteringConfig`` and ``ModeGrid``
convert each number with ``float(x)`` (``ModeGrid.N`` with
``operator.index``) before checking it.  Built from numpy scalars, ints
or numeric strings, they give every closed form and both oracles the
same floats, so the results keep their type and bits, and a non-finite
value of any real type meets the same refusal as a float.
"""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from fluctus import (
    FluctusError,
    FluidMedium,
    MaterialValidationError,
    ModeGrid,
    ScatteringConfig,
    Separation,
    boundary_correlator,
    correlator,
    equal_time_correlator,
    extrapolated_correlator,
    lattice_correlator,
    ratio_zp_thermal,
    scalar_field_analog,
    thermal_brillouin_cross_section,
    thermal_total_cross_section,
    zp_cross_section_chain,
    zp_cross_section_exact,
    zp_cross_section_reduced,
)
from fluctus.medium import C_LIGHT

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fluctus"

# A lab-scale input: water with its thermal coefficients, a spacelike
# nanometre separation, visible light, a 16-mode box.
MEDIUM = dict(name="lab", rho0=997.0, cs=1480.0, eta=1.4, drho=0.79, cp=4181.0,
              deps_dt=-1e-4, default_temperature=295.0)
SEPARATION = dict(r=2e-9, dt=1e-12)
CONFIG = dict(omega=5.4e15, theta=2.0, temperature=300.0)
GRID = dict(L=3.2e-8, N=16)


def _copy(values, kind):
    # numpy copies of the numbers: all np.float64, or np.int64 where integral
    def convert(x):
        if not isinstance(x, (int, float)):
            return x
        if kind == "int64" and float(x).is_integer():
            return np.int64(x)
        return np.float64(x) if isinstance(x, float) else np.int64(x)
    return {key: convert(x) for key, x in values.items()}


def _calls(medium, sep, cfg, grid):
    return {
        "correlator": correlator(medium, sep).value,
        "equal_time_correlator": equal_time_correlator(medium, 2e-9).value,
        "boundary_correlator": boundary_correlator(medium, 1e-9, 3e-9, 1e-9, 1e-12).value,
        "scalar_field_analog": scalar_field_analog(C_LIGHT, sep),
        "zp_cross_section_chain": zp_cross_section_chain(medium, cfg).value,
        "zp_cross_section_exact": zp_cross_section_exact(medium, cfg).value,
        "zp_cross_section_reduced": zp_cross_section_reduced(medium, cfg).value,
        "thermal_brillouin_cross_section": thermal_brillouin_cross_section(medium, cfg).value,
        "ratio_zp_thermal": ratio_zp_thermal(medium, cfg),
        "thermal_total_cross_section": thermal_total_cross_section(medium, cfg).value,
        "extrapolated_correlator": extrapolated_correlator(medium, 2e-9, 1e-12).value,
        "lattice_correlator": lattice_correlator(medium, grid, (2e-9, 1e-9, 3e-9), grid.L / 32),
    }


def _build(kind):
    if kind == "float":
        values = (MEDIUM, SEPARATION, CONFIG, GRID)
    else:
        values = [_copy(v, kind) for v in (MEDIUM, SEPARATION, CONFIG, GRID)]
    medium, sep, cfg, grid = values
    return (FluidMedium(**medium), Separation(**sep), ScatteringConfig(**cfg),
            ModeGrid(**grid))


@pytest.mark.parametrize("kind", ["float64", "int64"])
def test_numpy_built_value_types_give_the_float_results_bit_for_bit(kind):
    want = _calls(*_build("float"))
    got = _calls(*_build(kind))
    assert {name: type(v) for name, v in got.items()} == dict.fromkeys(want, float)
    assert {name: v.hex() for name, v in got.items()} == \
        {name: v.hex() for name, v in want.items()}


@pytest.mark.parametrize("kind", ["float64", "int64", "int", "str"])
def test_every_number_of_the_value_types_is_stored_as_a_float(kind):
    def copy(values):
        if kind == "int":
            return {k: int(x) if isinstance(x, float) and x.is_integer() else x
                    for k, x in values.items()}
        if kind == "str":
            return {k: repr(x) if isinstance(x, (int, float)) and k != "N" else x
                    for k, x in values.items()}
        return _copy(values, kind)
    medium = FluidMedium(**copy(MEDIUM))
    sep, cfg, grid = Separation(**copy(SEPARATION)), ScatteringConfig(**copy(CONFIG)), \
        ModeGrid(**copy(GRID))
    for value, fields in ((medium, MEDIUM), (sep, SEPARATION), (cfg, CONFIG), (grid, GRID)):
        for key, x in fields.items():
            stored = getattr(value, key)
            assert type(stored) is type(x) and stored == x, (key, stored)
    assert FluidMedium(**copy(dict(MEDIUM, cp=None, deps_dt=None))).cp is None
    assert ScatteringConfig(**copy(dict(CONFIG, temperature=None))).temperature is None


NUMBERS = ["rho0", "cs", "eta", "drho", "cp", "deps_dt", "default_temperature"]


@pytest.mark.parametrize("value, error", [("abc", ValueError), (None, TypeError)])
def test_a_number_float_refuses_raises_what_float_raises(value, error):
    # cp and deps_dt may be absent (None); every other number may not
    for field in NUMBERS if value is not None else set(NUMBERS) - {"cp", "deps_dt"}:
        with pytest.raises(error):
            FluidMedium(**dict(MEDIUM, **{field: value}))
    builds = [lambda x: Separation(x), lambda x: Separation(1e-9, x),
              lambda x: ScatteringConfig(omega=x, theta=2.0),
              lambda x: ScatteringConfig(omega=5.4e15, theta=x), lambda x: ModeGrid(x, 16)]
    if value is not None:  # an absent temperature defers to the medium's
        builds.append(lambda x: ScatteringConfig(omega=5.4e15, theta=2.0, temperature=x))
    for build in builds:
        with pytest.raises(error):
            build(value)


@pytest.mark.parametrize("build", ["direct", "replace"])
@pytest.mark.parametrize("bad", [np.float32("inf"), np.float32("nan"), np.longdouble("inf"),
                                 np.longdouble("-inf")], ids=repr)
@pytest.mark.parametrize("field", NUMBERS)
def test_non_finite_numbers_of_any_real_type_are_refused(field, bad, build):
    with pytest.raises(MaterialValidationError) as exc:
        if build == "direct":
            FluidMedium(**dict(MEDIUM, **{field: bad}))
        else:
            dataclasses.replace(FluidMedium(**MEDIUM), **{field: bad})
    assert f"|{field}| < inf" in exc.value.violations


@pytest.mark.parametrize("call, message", [
    (lambda: correlator(FluidMedium(**MEDIUM), Separation(np.float64(1e-9), np.float64(1e306))),
     "correlator at r = 1e-09 m, c*|dt| = inf m is outside the float range"),
    (lambda: zp_cross_section_reduced(
        FluidMedium(**MEDIUM), ScatteringConfig(omega=np.float64(1e300), theta=np.float64(2.0))),
     "zp_cross_section_reduced for 'lab' at omega = 1e+300 rad/s is outside the float range"),
    (lambda: zp_cross_section_chain(
        FluidMedium("d", rho0=np.float64(1.0), cs=np.float64(1.0), eta=np.float64(1e103),
                    drho=np.float64(1.0)), ScatteringConfig(omega=5.4e15, theta=2.0)),
     "zp_cross_section_chain for 'd' at omega = 5.4e+15 rad/s is outside the float range"),
], ids=["separation", "config", "chain-eta"])
def test_range_edges_from_numpy_scalars_raise_the_typed_error(call, message):
    # under the warnings-as-errors config a numpy overflow warning would come first
    with pytest.raises(FluctusError) as exc:
        call()
    assert str(exc.value) == message


def _post_init_instance_dict_reads(paths):
    # vars(self) or self.__dict__ inside any __post_init__
    for path in paths:
        for func in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(func, ast.FunctionDef) and func.name == "__post_init__"):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "vars"
                        or isinstance(node, ast.Attribute) and node.attr == "__dict__"):
                    yield f"{path.name}:{node.lineno}"


def test_no_post_init_reads_the_instance_dict():
    """A ``__post_init__`` that reads ``vars(self)`` or ``self.__dict__``
    materialises the instance dict on CPython 3.11, and every attribute read
    of that instance then slows: four reads on a FluidMedium took 95-101 ns
    against 27 ns once its __post_init__ stopped reading vars(self)."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "medium.py" in paths
    assert list(_post_init_instance_dict_reads(paths)) == []


def test_the_instance_dict_guard_finds_both_reads(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("class A:\n    def __post_init__(self):\n        vars(self)\n"
                     "        self.__dict__['x'] = 1\n"
                     "    def __init__(self):\n        self.__dict__['x'] = 1\n")
    assert list(_post_init_instance_dict_reads([probe])) == ["probe.py:3", "probe.py:4"]
