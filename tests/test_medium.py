import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from fluctus.errors import (
    MaterialError,
    MaterialFileError,
    MaterialValidationError,
    UnknownMaterialError,
)
from fluctus.medium import (
    C_LIGHT,
    DEFAULT_TEMPERATURE,
    HBAR,
    K_B,
    FluidMedium,
    builtin_material,
    builtin_names,
    dumps_material,
    fluid_medium,
    load_material,
    parse_material,
    resolve_material,
)

WATER_FILE = """\
# water, handbook values
name = water
rho0_kg_m3 = 997
cs_m_s = 1480
refractive_index = 1.4
depsilon_drho = 0.79
"""


def test_constants_are_the_expected_si_values():
    assert HBAR == 1.054571817e-34
    assert C_LIGHT == 299792458.0
    assert K_B == 1.380649e-23


def test_builtin_water_matches_handbook_values():
    w = builtin_material("water")
    assert w.cs == 1480.0
    assert w.eta == 1.4
    assert w.drho == 0.79
    assert w.rho0 == 997.0
    assert w.epsilon0 == pytest.approx(1.96, rel=1e-12, abs=0)
    assert w.default_temperature == DEFAULT_TEMPERATURE
    assert dataclasses.replace(w) == w  # constructs, so every invariant holds


def test_unknown_builtin_lists_available_names():
    with pytest.raises(UnknownMaterialError) as exc:
        builtin_material("mercury")
    assert "water" in str(exc.value)


def test_water_file_round_trips_to_builtin():
    m = parse_material(WATER_FILE)
    w = builtin_material("water")
    assert m == w


def test_load_material(tmp_path):
    path = tmp_path / "water.mat"
    path.write_text(WATER_FILE)
    assert load_material(path) == builtin_material("water")


def test_superluminal_sound_speed_is_a_validation_error():
    text = WATER_FILE.replace("cs_m_s = 1480", "cs_m_s = 3.1e8")
    with pytest.raises(MaterialValidationError) as exc:
        parse_material(text)
    assert "cS < c/2 violated" in str(exc.value)


def test_missing_required_key_names_it():
    text = "\n".join(l for l in WATER_FILE.splitlines() if "rho0" not in l)
    with pytest.raises(MaterialFileError) as exc:
        parse_material(text)
    assert "rho0_kg_m3" in str(exc.value)


def test_unknown_key_is_rejected_with_line_number():
    with pytest.raises(MaterialFileError) as exc:
        parse_material(WATER_FILE + "viscosity = 1e-3\n", source="f.mat")
    assert "viscosity" in str(exc.value)
    assert "f.mat:7" in str(exc.value)


def test_bad_number_reports_line():
    text = WATER_FILE.replace("1480", "fast")
    with pytest.raises(MaterialFileError) as exc:
        parse_material(text)
    assert ":4" in str(exc.value)


@pytest.mark.parametrize("old, new, message", [
    ("cs_m_s = 1480", "cs_m_s 1480", "expected 'key = value', got 'cs_m_s 1480'"),
    ("name = water", "name =", "empty value for 'name'"),
], ids=["no-equals-sign", "empty-name"])
def test_malformed_line_reports_line(old, new, message):
    with pytest.raises(MaterialFileError) as exc:
        parse_material(WATER_FILE.replace(old, new), source="f.mat")
    line = WATER_FILE.splitlines().index(old) + 1
    assert str(exc.value) == f"f.mat:{line}: {message}"


def test_duplicate_key_is_rejected():
    with pytest.raises(MaterialFileError):
        parse_material(WATER_FILE + "cs_m_s = 1500\n")


def test_scientific_notation_and_optional_keys():
    m = parse_material(
        WATER_FILE
        + "cp_j_kg_k = 4.181e3\ndepsilon_dt_per_k = -1.0e-4\ntemperature_k = 300\n"
    )
    assert m.cp == 4181.0
    assert m.deps_dt == -1.0e-4
    assert m.default_temperature == 300.0


def test_validate_reports_violations_as_data():
    with pytest.raises(MaterialValidationError) as exc:
        FluidMedium(name="x", rho0=-1.0, cs=1480.0, eta=0.5, drho=0.79)
    v = exc.value.violations
    assert "rho0 > 0" in v
    assert "eta >= 1" in v
    with pytest.raises(MaterialValidationError) as exc:
        FluidMedium(name="x", rho0=997.0, cs=1480.0, eta=math.inf,
                    drho=math.nan, cp=math.inf, deps_dt=-math.inf)
    assert exc.value.violations == ["|eta| < inf", "|drho| < inf", "|cp| < inf",
                                    "|deps_dt| < inf"]


def test_epsilon0_pinned_to_eta_squared():
    good = fluid_medium("x", rho0=1.0, cs=1000.0, eta=1.4, drho=0.5)
    assert good.epsilon0 == 1.4 * 1.4


@given(
    rho0=st.floats(1.0, 1e5),
    cs=st.floats(1.0, 1e5),
    eta=st.floats(1.0, 5.0),
    drho=st.floats(-2.0, 2.0),
    cp=st.one_of(st.none(), st.floats(1.0, 1e5)),
    deps_dt=st.one_of(st.none(), st.floats(-1.0, 1.0)),
    temperature=st.floats(1.0, 1e4),
)
def test_serialize_parse_round_trip(rho0, cs, eta, drho, cp, deps_dt, temperature):
    m = fluid_medium("roundtrip", rho0=rho0, cs=cs, eta=eta, drho=drho,
                     cp=cp, deps_dt=deps_dt, default_temperature=temperature)
    again = parse_material(dumps_material(m))
    assert again == m


def _float_or(valid):
    # Mixing in a valid value lets most draws reach validation with only
    # one or two keys off, non-finite ones included.
    return st.floats() | st.just(valid)


@given(st.fixed_dictionaries(
    {"rho0_kg_m3": _float_or(997.0), "cs_m_s": _float_or(1480.0),
     "refractive_index": _float_or(1.4), "depsilon_drho": _float_or(0.79)},
    optional={"cp_j_kg_k": _float_or(4181.0), "depsilon_dt_per_k": _float_or(-1e-4),
              "temperature_k": _float_or(295.0)}))
def test_parsed_media_are_finite_or_refused(values):
    text = "name = drawn\n" + "".join(f"{k} = {v!r}\n" for k, v in values.items())
    try:
        m = parse_material(text)
    except MaterialError:
        return
    numbers = [m.rho0, m.cs, m.eta, m.drho, m.cp, m.deps_dt, m.default_temperature]
    assert all(math.isfinite(x) for x in numbers if x is not None)


def test_dumps_material_text_is_pinned():
    m = fluid_medium("glycerol", rho0=1261, cs=1920, eta=1.47, drho=1.1,
                     cp=2430, deps_dt=-2e-4, default_temperature=300)
    assert dumps_material(m) == (
        "name = glycerol\n"
        "rho0_kg_m3 = 1261.0\n"
        "cs_m_s = 1920.0\n"
        "refractive_index = 1.47\n"
        "depsilon_drho = 1.1\n"
        "cp_j_kg_k = 2430.0\n"
        "depsilon_dt_per_k = -0.0002\n"
        "temperature_k = 300.0\n"
    )


def test_resolve_material_builtin_file_and_search_dir(tmp_path, monkeypatch):
    assert resolve_material("water") == builtin_material("water")
    path = tmp_path / "brine.mat"
    path.write_text(WATER_FILE.replace("name = water", "name = brine"))
    assert resolve_material(str(path)).name == "brine"
    monkeypatch.setenv("FLUCTUS_MATERIAL_PATH", str(tmp_path))
    assert resolve_material("brine").name == "brine"
    monkeypatch.delenv("FLUCTUS_MATERIAL_PATH")
    with pytest.raises(UnknownMaterialError):
        resolve_material("brine")


def test_builtin_names_contains_water_only():
    assert builtin_names() == ["water"]


def test_media_are_immutable():
    w = builtin_material("water")
    with pytest.raises(Exception):
        w.rho0 = 1000.0


def test_cs_below_light_speed_for_any_valid_medium():
    assert builtin_material("water").cs < C_LIGHT
    with pytest.raises(MaterialValidationError):
        fluid_medium("fast", rho0=1.0, cs=C_LIGHT, eta=1.0, drho=0.1)
