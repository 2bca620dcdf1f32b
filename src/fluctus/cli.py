"""Command-line front end.

Subcommands
-----------
correlator   closed-form correlator values, optionally near a plane wall
xsection     zero-point and thermal light-scattering cross sections
ratio        zero-point share of the Stokes Brillouin line
verify       run the cross-validation suites (chain, spectral, lattice, all)
materials    list built-ins or pretty-print a material

Numeric options accept a single value or a sweep ``lo..hi:steps``
(linear) / ``lo..hi:stepsL`` (logarithmic).  Output defaults to an
aligned table; ``--format csv`` and ``--format json`` emit
machine-readable records with the fixed keys {inputs, value, unit,
formula, provenance}.  All I/O is SI; wavelengths are vacuum
wavelengths; angles on the command line are degrees.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import scattering, verify
from .correlator import (
    Separation,
    boundary_shift_planar,
    correlator,
    em_vacuum_shift_plate,
)
from .errors import FluctusError, finite, positive
from .medium import builtin_names, dumps_material, resolve_material

__all__ = ["main", "OutputRecord", "parse_range"]


@dataclass(frozen=True)
class OutputRecord:
    """One emitted number: echoed inputs, value, unit, formula, provenance."""

    inputs: dict
    value: float
    unit: str
    formula: str
    provenance: str = "closed-form"


def parse_range(text: str) -> list[float]:
    """Parse a scalar or a sweep expression ``lo..hi:steps`` / ``lo..hi:stepsL``."""
    if ".." not in text:
        return [float(text)]
    span, _, steps = text.partition(":")
    lo_s, _, hi_s = span.partition("..")
    if not steps:
        raise ValueError(f"sweep expression needs a step count: {text!r}")
    logarithmic = steps.endswith("L")
    if logarithmic:
        steps = steps[:-1]
    n = int(steps)
    if n < 2:
        raise ValueError(f"sweep needs at least 2 points, got {n}")
    lo, hi = float(lo_s), float(hi_s)
    if not math.isfinite(hi - lo):  # also an infinite or nan end
        raise ValueError(f"sweep ends and their difference must be finite, got {lo!r}..{hi!r}")
    if logarithmic:
        if lo <= 0 or hi <= 0:
            raise ValueError("logarithmic sweep needs positive endpoints")
        return [float(x) for x in np.geomspace(lo, hi, n)]
    return [float(x) for x in np.linspace(lo, hi, n)]


def _emit(records: list[OutputRecord], fmt: str) -> None:
    for r in records:  # a refusal names the record's inputs, as the library's refusals do
        finite(r.value, "{} at {}", r.formula,
               ", ".join(f"{k} = {v!r}" for k, v in r.inputs.items()))
    if fmt == "json":
        print(json.dumps([asdict(r) for r in records], indent=2, allow_nan=False))
        return
    keys = sorted({k for r in records for k in r.inputs})
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(keys + ["value", "unit", "formula", "provenance"])
        for r in records:
            writer.writerow([r.inputs.get(k, "") for k in keys]
                            + [repr(float(r.value)), r.unit, r.formula, r.provenance])
        return
    # aligned human table
    header = keys + ["value", "unit", "formula"]
    rows = [[_cell(r.inputs.get(k, "")) for k in keys]
            + [f"{r.value:.6e}", r.unit, r.formula] for r in records]
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


# --- subcommands -----------------------------------------------------------

def _cmd_correlator(args) -> int:
    medium = resolve_material(args.material)
    if args.r is None and args.boundary is None:
        raise ValueError("give --r (bulk correlator) and/or --boundary (wall shift)")
    rs = parse_range(args.r) if args.r is not None else []
    zs = parse_range(args.boundary) if args.boundary is not None else []
    if len(rs) > 1 and len(zs) > 1:
        raise ValueError("only one of --r and --boundary may sweep at a time")
    dt = float(args.dt)
    records = []
    for r in rs:
        value = correlator(medium, Separation(r, dt))
        records.append(OutputRecord(inputs={"material": medium.name, "r_m": r, "dt_s": dt},
                                    value=value.value, unit="kg^2/m^6", formula=value.formula))
    for z in zs:
        shift = boundary_shift_planar(medium, z)
        records.append(OutputRecord(inputs={"material": medium.name, "z_m": z},
                                    value=shift.value, unit="kg^2/m^6", formula=shift.formula))
        e2, b2 = em_vacuum_shift_plate(z)
        for tag, coeff in (("em-plate-shift-E2", e2), ("em-plate-shift-B2", b2)):
            records.append(OutputRecord(inputs={"z_m": z}, value=coeff,
                                        unit="hbar*c/z^4", formula=tag))
    _emit(records, args.format)
    return 0


_KINDS = {
    "zp": scattering.zp_cross_section_reduced,
    "zp-exact": scattering.zp_cross_section_exact,
    "thermal-brillouin": scattering.thermal_brillouin_cross_section,
    "thermal-total": scattering.thermal_total_cross_section,
}


def _config_from_args(args, theta_deg: float, medium) -> scattering.ScatteringConfig:
    # --theta checked in the degrees it is given in; the bath temperature resolved:
    # --temperature, else the medium's own.
    if not 0.0 < theta_deg <= 180.0:  # radians(180.0) is exactly pi
        raise ValueError(f"--theta must lie in (0, 180] degrees, got {theta_deg}")
    return scattering.ScatteringConfig(
        omega=(args.omega if args.wavelength is None  # argparse admits exactly one of the two
               else scattering.omega_from_wavelength(args.wavelength)),
        theta=math.radians(theta_deg),
        pol=scattering.Polarization(getattr(args, "pol", "perpendicular")),
        temperature=(medium.default_temperature if args.temperature is None
                     else args.temperature),
    )


def _cmd_xsection(args) -> int:
    positive(args.volume, "--volume")
    medium = resolve_material(args.material)
    thetas_deg = parse_range(args.theta)
    records = []
    for theta_deg in thetas_deg:
        cfg = _config_from_args(args, theta_deg, medium)
        xs = _KINDS[args.kind](medium, cfg)
        inputs = {
            "material": medium.name,
            "omega_rad_s": cfg.omega,
            "theta_deg": theta_deg,
            "pol": cfg.pol.value,
            "volume_m3": args.volume,
        }
        if args.kind.startswith("thermal"):
            inputs["temperature_k"] = cfg.temperature
        records.append(OutputRecord(inputs=inputs, value=xs.value * args.volume,
                                    unit="m^2/sr", formula=xs.formula))
    _emit(records, args.format)
    return 0


def _cmd_ratio(args) -> int:
    medium = resolve_material(args.material)
    cfg = _config_from_args(args, float(args.theta), medium)
    value = scattering.ratio_zp_thermal(medium, cfg)
    record = OutputRecord(
        inputs={"material": medium.name, "omega_rad_s": cfg.omega,
                "theta_deg": float(args.theta), "temperature_k": cfg.temperature},
        value=value, unit="dimensionless", formula="zp-thermal-ratio")
    _emit([record], args.format)
    share = 100.0 * value
    if args.format == "table" and math.isfinite(share):
        print(f"zero-point share of the Stokes line: {share:.2f}%")
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "all":
        suites = verify.verify_all()
    else:
        suites = {args.suite: getattr(verify, "verify_" + args.suite)()}
    for suite, checks in suites.items():
        print(f"suite: {suite}")
        for check in checks:
            status = "PASS" if check.passed else "FAIL"
            line = (f"  [{status}] {check.name}: tolerance={check.tolerance:.3e} "
                    f"achieved={check.achieved:.3e}")
            if check.detail:
                line += f"  ({check.detail})"
            print(line)
    return 0 if all(check.passed for checks in suites.values() for check in checks) else 1


def _cmd_materials(args) -> int:
    if args.action == "list":
        for name in builtin_names():
            print(name)
        return 0
    print(dumps_material(resolve_material(args.name)), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluctus",
        description="Zero-point density fluctuations in fluids and the light they scatter.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("table", "csv", "json"), default="table",
                       help="output format (default: aligned table)")

    p = sub.add_parser("correlator", help="vacuum density correlator")
    p.add_argument("--material", required=True, help="built-in name or material file")
    p.add_argument("--r", help="spatial distance in m (sweepable: lo..hi:steps[L])")
    p.add_argument("--dt", default="0", help="time lag in s (default 0)")
    p.add_argument("--boundary", metavar="Z",
                   help="also report the variance shift at distance Z from a plane "
                        "wall (sweepable)")
    add_format(p)
    p.set_defaults(func=_cmd_correlator)

    light = argparse.ArgumentParser(add_help=False)
    light.add_argument("--material", required=True, help="built-in name or material file")
    frequency = light.add_mutually_exclusive_group(required=True)
    frequency.add_argument("--lambda", dest="wavelength", type=float,
                           help="vacuum wavelength in m")
    frequency.add_argument("--omega", type=float, help="angular frequency in rad/s")
    light.add_argument("--temperature", type=float, help="bath temperature in K")

    p = sub.add_parser("xsection", parents=[light], help="light-scattering cross sections")
    p.add_argument("--theta", required=True,
                   help="scattering angle in degrees (sweepable: lo..hi:steps[L])")
    p.add_argument("--pol", default="perpendicular",
                   choices=[pol.value for pol in scattering.Polarization])
    p.add_argument("--kind", default="zp", choices=sorted(_KINDS))
    p.add_argument("--volume", type=float, default=1.0,
                   help="scattering volume multiplier in m^3 (default 1)")
    add_format(p)
    p.set_defaults(func=_cmd_xsection)

    p = sub.add_parser("ratio", parents=[light], help="zero-point / thermal Brillouin ratio")
    p.add_argument("--theta", required=True, help="scattering angle in degrees")
    add_format(p)
    p.set_defaults(func=_cmd_ratio)

    p = sub.add_parser("verify", help="run a cross-validation suite")
    p.add_argument("suite", choices=verify.SUITES + ("all",))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("materials", help="list or show materials")
    msub = p.add_subparsers(dest="action", required=True)
    mlist = msub.add_parser("list", help="list built-in materials")
    mlist.set_defaults(func=_cmd_materials)
    mshow = msub.add_parser("show", help="validate and pretty-print a material")
    mshow.add_argument("name", help="built-in name or material file path")
    mshow.set_defaults(func=_cmd_materials)

    return parser


#: The start of a negative number, also of a sweep with a negative lower end.
_NEGATIVE = re.compile(r"-\.?\d")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join an option and a negative value after it, '--dt -1e-13' ->
    '--dt=-1e-13'; argparse reads a bare '-1e-13' as an option."""
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NEGATIVE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse printed a usage error (2) or the help (0)
        return exc.code
    try:
        return args.func(args)
    except (FluctusError, ValueError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
