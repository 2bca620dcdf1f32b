"""Physical constants, fluid material data, and material-file ingestion.

A :class:`FluidMedium` bundles everything the correlator and scattering
formulas need to know about a fluid: mean density, sound speed, optical
constants, and (optionally) the thermal coefficients entering the
Rayleigh line.  One material is built in (water near room temperature);
anything else comes from a small ``key = value`` text file, see
:func:`load_material`.

The refractive index ``eta`` is the measured index at the probe
frequency and the mean dielectric constant is derived from it,
``epsilon0 = eta**2``.  The dimensionless product rho0 * (d eps / d rho)_S
is stored directly (``drho``) because only the product ever enters an
observable.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .errors import (
    MaterialFileError,
    MaterialValidationError,
    UnknownMaterialError,
)

__all__ = [
    "HBAR",
    "C_LIGHT",
    "K_B",
    "DEFAULT_TEMPERATURE",
    "FluidMedium",
    "fluid_medium",
    "builtin_material",
    "builtin_names",
    "load_material",
    "parse_material",
    "dumps_material",
    "resolve_material",
    "MATERIAL_PATH_ENV",
]


# SI values of the three constants used throughout the package; every
# module imports them from here.
HBAR = 1.054571817e-34  # reduced Planck constant, J s
C_LIGHT = 299792458.0   # speed of light in vacuum, m/s
K_B = 1.380649e-23      # Boltzmann constant, J/K

#: "Room temperature" used when a material file or call gives no temperature.
DEFAULT_TEMPERATURE = 295.0


@dataclass(frozen=True)
class FluidMedium:
    """Material properties of a fluid.

    Attributes
    ----------
    name : str
        Identifier used in output records and error messages.
    rho0 : float
        Mean mass density, kg/m^3.
    cs : float
        Speed of sound, m/s.
    eta : float
        Refractive index at the probe frequency (dimensionless, >= 1).
    drho : float
        Dimensionless product rho0 * (d eps / d rho0) at constant entropy.
    cp : float or None
        Heat capacity per unit mass at constant pressure, J/(kg K).
        Optional; only the Rayleigh term of the thermal cross section
        needs it.
    deps_dt : float or None
        (d eps / d T) at constant pressure, 1/K.  Optional, as above.
    default_temperature : float
        Reference temperature in K used when a call supplies none.

    Construction, ``dataclasses.replace`` included, stores the name as a
    ``str`` and every present number as a Python float (``float(x)``:
    numpy scalars and numeric strings are converted), then raises
    MaterialValidationError listing every violated invariant: finite
    numbers (a non-finite value of any real type is refused), rho0, cs,
    cp and default_temperature > 0, eta >= 1, and cs < c/2, under which
    the emitted phonon stays below the photon's energy at every angle
    (omega' > 0 for every normal omega).  ``fluid_medium`` is this class.
    """

    name: str
    rho0: float
    cs: float
    eta: float
    drho: float
    cp: float | None = None
    deps_dt: float | None = None
    default_temperature: float = DEFAULT_TEMPERATURE

    def __post_init__(self):
        # Stored with object.__setattr__, as the generated frozen __init__ stores
        # them: reading vars(self) here would materialise the instance dict, and
        # four attribute reads would then take 95-101 ns instead of 27 (CPython 3.11).
        object.__setattr__(self, "name", str(self.name))
        v = []
        for field in ("rho0", "cs", "eta", "drho", "cp", "deps_dt", "default_temperature"):
            x = getattr(self, field)
            if x is not None or field not in ("cp", "deps_dt"):  # those two may be absent
                object.__setattr__(self, field, x := float(x))
                if not math.isfinite(x):
                    v.append(f"|{field}| < inf")
        if not self.rho0 > 0:
            v.append("rho0 > 0")
        if not self.cs > 0:
            v.append("cS > 0")
        if not self.eta >= 1:
            v.append("eta >= 1")
        if not self.default_temperature > 0:
            v.append("defaultT > 0")
        if not 2.0 * self.cs < C_LIGHT:
            v.append("cS < c/2")
        if self.cp is not None and not self.cp > 0:
            v.append("cP > 0")
        if v:
            raise MaterialValidationError(v)

    @property
    def epsilon0(self) -> float:
        """Mean dielectric constant, eta**2."""
        return self.eta * self.eta


#: FluidMedium under its older public name, which callers still use.
fluid_medium = FluidMedium


# Water near room temperature.  cs, eta and drho are the standard handbook
# values for the optical regime; rho0 is the standard-table density, an
# external input the user may override via a material file (it cancels in
# the zero-point/thermal ratio anyway).
_WATER = FluidMedium(
    name="water",
    rho0=997.0,
    cs=1480.0,
    eta=1.4,
    drho=0.79,
    default_temperature=DEFAULT_TEMPERATURE,
)

_BUILTINS = {"water": _WATER}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def builtin_material(name: str) -> FluidMedium:
    """Return a built-in material by name.

    Raises
    ------
    UnknownMaterialError
        Listing the available names.
    """
    try:
        return _BUILTINS[name]
    except KeyError:
        raise UnknownMaterialError(
            f"unknown material '{name}'; available built-ins: "
            + ", ".join(builtin_names())
        ) from None


# --- material files -------------------------------------------------------
#
# UTF-8 text, one `key = value` per line, `#` starts a comment.  Unknown
# keys are an error (typo protection).

#: (file key, FluidMedium field) in file order; the first
#: _REQUIRED_COUNT keys are required.  The name is text, the rest numbers.
_FILE_KEYS = (
    ("name", "name"),
    ("rho0_kg_m3", "rho0"),
    ("cs_m_s", "cs"),
    ("refractive_index", "eta"),
    ("depsilon_drho", "drho"),
    ("cp_j_kg_k", "cp"),
    ("depsilon_dt_per_k", "deps_dt"),
    ("temperature_k", "default_temperature"),
)
_REQUIRED_COUNT = 5


def parse_material(text: str, source: str = "<string>") -> FluidMedium:
    """Parse material-file text into a validated FluidMedium.

    Raises
    ------
    MaterialFileError
        On any syntax problem, with the offending line number.
    MaterialValidationError
        If the parsed material violates an invariant.
    """
    field_of = dict(_FILE_KEYS)
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MaterialFileError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        field = field_of.get(key)
        if field is None:
            raise MaterialFileError(f"{source}:{lineno}: unknown key '{key}'")
        if field in values:
            raise MaterialFileError(f"{source}:{lineno}: duplicate key '{key}'")
        if field != "name":
            try:
                value = float(value)
            except ValueError:
                raise MaterialFileError(
                    f"{source}:{lineno}: value for '{key}' is not a number: {value!r}"
                ) from None
        elif not value:
            raise MaterialFileError(f"{source}:{lineno}: empty value for '{key}'")
        values[field] = value
    for key, field in _FILE_KEYS[:_REQUIRED_COUNT]:
        if field not in values:
            raise MaterialFileError(f"{source}: missing required key '{key}'")
    return FluidMedium(**values)


def load_material(path) -> FluidMedium:
    """Load and validate a material file (see module docstring for format)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_material(text, source=str(path))


def dumps_material(medium: FluidMedium) -> str:
    """Serialize a FluidMedium in the material-file format.

    Loading the result reproduces the medium exactly (round-trip identity
    on every present field).
    """
    lines = []
    for key, field in _FILE_KEYS:
        value = getattr(medium, field)
        if value is not None:
            lines.append(f"{key} = {value if isinstance(value, str) else repr(value)}")
    return "\n".join(lines) + "\n"


MATERIAL_PATH_ENV = "FLUCTUS_MATERIAL_PATH"


def resolve_material(name_or_path: str) -> FluidMedium:
    """Resolve a material given by built-in name, file path, or search name.

    Resolution order: built-in name, then a literal file path, then
    ``<dir>/<name>`` and ``<dir>/<name>.mat`` under the directory named
    by the FLUCTUS_MATERIAL_PATH environment variable.
    """
    if name_or_path in _BUILTINS:
        return _BUILTINS[name_or_path]
    if os.path.exists(name_or_path):
        return load_material(name_or_path)
    search_dir = os.environ.get(MATERIAL_PATH_ENV)
    if search_dir:
        for candidate in (name_or_path, name_or_path + ".mat"):
            path = os.path.join(search_dir, candidate)
            if os.path.exists(path):
                return load_material(path)
    raise UnknownMaterialError(
        f"unknown material '{name_or_path}': not a built-in "
        f"({', '.join(builtin_names())}), not an existing file, and not "
        f"found under ${MATERIAL_PATH_ENV}"
    )
