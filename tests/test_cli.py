import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from fluctus.cli import main, parse_range
from fluctus.medium import builtin_material
from fluctus.scattering import (
    Polarization,
    ScatteringConfig,
    zp_cross_section_reduced,
)

WATER = builtin_material("water")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- range syntax -----------------------------------------------------------

def test_parse_range_scalar_and_sweeps():
    assert parse_range("1e-9") == [1e-9]
    lin = parse_range("1..3:3")
    assert lin == pytest.approx([1.0, 2.0, 3.0])
    log = parse_range("1..100:3L")
    assert log == pytest.approx([1.0, 10.0, 100.0])
    with pytest.raises(ValueError):
        parse_range("1..2")
    with pytest.raises(ValueError):
        parse_range("1..2:1")
    with pytest.raises(ValueError, match="logarithmic sweep needs positive endpoints"):
        parse_range("0..1e-8:3L")


@pytest.mark.parametrize("sweep", ["1e-9..inf:3", "nan..1e-8:3", "1e-9..inf:3L",
                                   "-1e308..1e308:3"])
def test_sweep_ends_and_their_difference_must_be_finite(capsys, sweep):
    code, out, err = run_cli(capsys, "correlator", "--material", "water", "--r", sweep)
    assert (code, out) == (2, "")
    assert err.startswith("error: sweep ends and their difference must be finite")


def test_a_sweep_numpy_cannot_allocate_exits_2(capsys):
    # 10**15 points need 7 PiB: the allocation is refused before anything is written
    code, out, err = run_cli(capsys, "correlator", "--material", "water",
                             "--r", "1e-9..1e-8:1000000000000000")
    assert (code, out) == (2, "")
    assert err.startswith("error: Unable to allocate")


# --- correlator command ------------------------------------------------------

def test_correlator_single_value(capsys):
    code, out, _ = run_cli(capsys, "correlator", "--material", "water",
                           "--r", "1e-9", "--dt", "0", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 1
    assert records[0]["value"] == pytest.approx(-3.598983558786755, rel=1e-12, abs=0)
    assert records[0]["unit"] == "kg^2/m^6"
    assert set(records[0]) == {"inputs", "value", "unit", "formula", "provenance"}


def test_correlator_timelike_positive(capsys):
    code, out, _ = run_cli(capsys, "correlator", "--material", "water",
                           "--r", "1e-9", "--dt", "1e-12", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["value"] > 0


def test_negative_values_in_exponent_notation_are_accepted(capsys):
    def value(*dt):
        code, out, _ = run_cli(capsys, "correlator", "--material", "water",
                               "--r", "1e-9", *dt, "--format", "json")
        assert code == 0
        return json.loads(out)[0]["value"]

    # the correlator is even in dt; argparse alone reads -1e-13 as an option
    assert value("--dt", "-1e-13") == value("--dt=-1e-13") == value("--dt", "1e-13")
    assert value("--dt", "-.5e-13") == value("--dt", "5e-14")


def test_correlator_on_cone_exits_2(capsys):
    code, _, err = run_cli(capsys, "correlator", "--material", "water",
                           "--r", "1", "--dt", "6.7568e-4")
    assert code == 2
    assert "sound cone" in err


def test_correlator_sweep_table(capsys):
    code, out, _ = run_cli(capsys, "correlator", "--material", "water",
                           "--r", "1e-9..1e-8:4", "--dt", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # header + 4 rows
    assert "value" in lines[0]


def test_correlator_boundary_records(capsys):
    code, out, _ = run_cli(capsys, "correlator", "--material", "water",
                           "--r", "1e-9", "--boundary", "1e-9", "--format", "json")
    assert code == 0
    records = json.loads(out)
    formulas = {r["formula"] for r in records}
    assert formulas == {"density-correlator", "planar-boundary-shift",
                        "em-plate-shift-E2", "em-plate-shift-B2"}
    shift = next(r for r in records if r["formula"] == "planar-boundary-shift")
    assert shift["value"] == pytest.approx(-0.22493647242417219, rel=1e-12, abs=0)
    e2 = next(r for r in records if r["formula"] == "em-plate-shift-E2")
    b2 = next(r for r in records if r["formula"] == "em-plate-shift-B2")
    assert e2["value"] == -b2["value"]


def test_correlator_requires_r_or_boundary(capsys):
    code, _, err = run_cli(capsys, "correlator", "--material", "water")
    assert code == 2
    assert "r" in err


def test_double_sweep_rejected(capsys):
    code, _, err = run_cli(capsys, "correlator", "--material", "water",
                           "--r", "1e-9..1e-8:3", "--boundary", "1e-9..1e-8:3")
    assert code == 2
    assert "sweep" in err


# --- xsection command ---------------------------------------------------------

def test_xsection_zp_benchmark(capsys):
    code, out, _ = run_cli(capsys, "xsection", "--material", "water",
                           "--lambda", "350e-9", "--theta", "180",
                           "--pol", "perpendicular", "--kind", "zp",
                           "--format", "json")
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["value"] == pytest.approx(3.2416850774369512e-06, rel=1e-12, abs=0)
    assert rec["formula"] == "zp-omega5"


def test_xsection_crossed_is_zero_for_every_kind(capsys):
    for kind in ("zp", "zp-exact", "thermal-brillouin"):
        code, out, _ = run_cli(capsys, "xsection", "--material", "water",
                               "--lambda", "350e-9", "--theta", "90",
                               "--pol", "crossed", "--kind", kind,
                               "--format", "json")
        assert code == 0
        assert json.loads(out)[0]["value"] == 0.0


def test_xsection_thermal_total_without_cp_exits_2(capsys):
    code, _, err = run_cli(capsys, "xsection", "--material", "water",
                           "--lambda", "350e-9", "--theta", "90",
                           "--kind", "thermal-total")
    assert code == 2
    assert "cp" in err


def test_xsection_theta_sweep_csv_round_trips(capsys):
    code, out, _ = run_cli(capsys, "xsection", "--material", "water",
                           "--lambda", "350e-9", "--theta", "30..180:6",
                           "--kind", "zp", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 6
    for row in rows:
        theta = math.radians(float(row["theta_deg"]))
        cfg = ScatteringConfig(omega=float(row["omega_rad_s"]), theta=theta,
                               pol=Polarization(row["pol"]))
        expected = zp_cross_section_reduced(WATER, cfg).value
        assert float(row["value"]) == pytest.approx(expected, rel=1e-12, abs=0)


def test_xsection_volume_multiplier(capsys):
    code, out, _ = run_cli(capsys, "xsection", "--material", "water",
                           "--lambda", "350e-9", "--theta", "180",
                           "--kind", "zp", "--volume", "2.5", "--format", "json")
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["value"] == pytest.approx(2.5 * 3.2416850774369512e-06, rel=1e-12, abs=0)


def test_xsection_needs_lambda_or_omega(capsys):
    code, _, err = run_cli(capsys, "xsection", "--material", "water",
                           "--theta", "90", "--kind", "zp")
    assert code == 2
    assert "lambda" in err or "omega" in err


@pytest.mark.parametrize("theta, got", [("0..200:3", "0.0"), ("180..200:2", "200.0"),
                                        ("-90", "-90.0"), ("nan", "nan")])
def test_xsection_refuses_theta_outside_its_degrees(capsys, theta, got):
    code, out, err = run_cli(capsys, "xsection", "--material", "water",
                             "--lambda", "350e-9", "--theta", theta)
    assert code == 2 and out == ""
    assert err == f"error: --theta must lie in (0, 180] degrees, got {got}\n"


def test_xsection_overflow_refusal_names_the_record_inputs(capsys):
    code, out, err = run_cli(capsys, "xsection", "--material", "water", "--omega", "1e17",
                             "--theta", "180", "--volume", "1e308")
    assert code == 2 and out == ""
    assert err == ("error: zp-omega5 at material = 'water', omega_rad_s = 1e+17, "
                   "theta_deg = 180.0, pol = 'perpendicular', volume_m3 = 1e+308 "
                   "is outside the float range\n")


@pytest.mark.parametrize("argv", [
    ("ratio", "--material", "water", "--theta", "180"),
    ("xsection", "--material", "water", "--theta", "180", "--lambda", "350e-9",
     "--omega", "5.4e15"),
], ids=["ratio-neither", "xsection-both"])
def test_exactly_one_of_lambda_and_omega_is_a_usage_rule(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "--lambda" in err and "--omega" in err


# --- ratio command ---------------------------------------------------------------

def test_ratio_benchmark(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--material", "water",
                           "--lambda", "350e-9", "--theta", "180",
                           "--temperature", "295", "--format", "json")
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["value"] == pytest.approx(0.0042345021887880737, rel=1e-12, abs=0)
    assert rec["formula"] == "zp-thermal-ratio"


@pytest.mark.parametrize("theta", ["200", "0", "-1e-300", "inf"])
def test_ratio_refuses_theta_outside_its_degrees(capsys, theta):
    code, out, err = run_cli(capsys, "ratio", "--material", "water",
                             "--lambda", "350e-9", "--theta", theta)
    assert code == 2 and out == ""
    assert err == f"error: --theta must lie in (0, 180] degrees, got {float(theta)}\n"


def test_ratio_prints_percentage_in_table_mode(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--material", "water",
                           "--lambda", "350e-9", "--theta", "180",
                           "--temperature", "295")
    assert code == 0
    assert "%" in out
    assert "0.42" in out


def test_ratio_halves_at_double_wavelength_and_double_temperature(capsys):
    def value(*argv):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        return json.loads(out)[0]["value"]

    base = value("ratio", "--material", "water", "--lambda", "350e-9",
                 "--theta", "180", "--temperature", "295")
    half_w = value("ratio", "--material", "water", "--lambda", "700e-9",
                   "--theta", "180", "--temperature", "295")
    half_t = value("ratio", "--material", "water", "--lambda", "350e-9",
                   "--theta", "180", "--temperature", "590")
    assert half_w == pytest.approx(base / 2.0, rel=1e-12, abs=0)
    assert half_t == pytest.approx(base / 2.0, rel=1e-12, abs=0)


# --- materials command --------------------------------------------------------------

def test_materials_list_includes_water(capsys):
    code, out, _ = run_cli(capsys, "materials", "list")
    assert code == 0
    assert "water" in out.split()


def test_materials_show_water(capsys):
    code, out, _ = run_cli(capsys, "materials", "show", "water")
    assert code == 0
    assert "cs_m_s = 1480.0" in out
    assert "refractive_index = 1.4" in out


def test_materials_show_invalid_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text("name = bad\nrho0_kg_m3 = 997\ncs_m_s = 1480\n"
                   "refractive_index = 0.5\ndepsilon_drho = 0.79\n")
    code, _, err = run_cli(capsys, "materials", "show", str(bad))
    assert code == 2
    assert "eta >= 1" in err


def test_material_search_path_env(tmp_path, capsys, monkeypatch):
    mat = tmp_path / "glycerol.mat"
    mat.write_text("name = glycerol\nrho0_kg_m3 = 1261\ncs_m_s = 1920\n"
                   "refractive_index = 1.47\ndepsilon_drho = 1.1\n")
    monkeypatch.setenv("FLUCTUS_MATERIAL_PATH", str(tmp_path))
    code, out, _ = run_cli(capsys, "materials", "show", "glycerol")
    assert code == 0
    assert "glycerol" in out


def test_unknown_material_exits_2(capsys):
    code, _, err = run_cli(capsys, "ratio", "--material", "unobtainium",
                           "--lambda", "350e-9", "--theta", "180")
    assert code == 2
    assert "unknown material" in err


# --- verify command -----------------------------------------------------------------

def test_verify_chain_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "chain")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_failure_exits_1(capsys, monkeypatch):
    from fluctus.verify import CheckResult

    def broken():
        return [CheckResult(name="synthetic failing check", tolerance=1e-12,
                            achieved=1.0, passed=False)]

    monkeypatch.setattr("fluctus.cli.verify.verify_chain", broken)
    code, out, _ = run_cli(capsys, "verify", "chain")
    assert code == 1
    assert "FAIL" in out


def test_verify_all_prints_what_verify_all_returns(capsys, monkeypatch):
    from fluctus.verify import verify_all

    returned = []

    def spy():
        returned.append(verify_all())
        return returned[-1]

    monkeypatch.setattr("fluctus.cli.verify.verify_all", spy)
    code, out, _ = run_cli(capsys, "verify", "all")
    assert code == 0 and len(returned) == 1
    suites = [line[len("suite: "):] for line in out.splitlines() if line.startswith("suite: ")]
    assert suites == list(returned[0]) == ["chain", "spectral", "lattice"]
    assert out.count("[PASS]") == sum(map(len, returned[0].values()))
    assert "FAIL" not in out


def test_verify_all_fails_with_one_failing_suite(capsys, monkeypatch):
    from fluctus.verify import CheckResult

    monkeypatch.setattr("fluctus.cli.verify.verify_chain", lambda: [CheckResult(
        name="synthetic failing check", tolerance=1e-12, achieved=1.0, passed=False)])
    code, out, _ = run_cli(capsys, "verify", "all")
    assert code == 1
    assert out.count("[FAIL]") == 1 and "suite: lattice" in out


# --- json/csv structural round trips ---------------------------------------------------

def test_json_schema_is_stable(capsys):
    _, out, _ = run_cli(capsys, "xsection", "--material", "water",
                        "--lambda", "350e-9", "--theta", "180",
                        "--kind", "zp-exact", "--format", "json")
    rec = json.loads(out)[0]
    assert list(rec) == ["inputs", "value", "unit", "formula", "provenance"]
    assert isinstance(rec["inputs"], dict)


def test_csv_round_trip_correlator(capsys):
    _, out, _ = run_cli(capsys, "correlator", "--material", "water",
                        "--r", "1e-9..4e-9:4", "--dt", "0", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    for row in rows:
        assert float(row["value"]) < 0
        assert row["formula"] == "density-correlator"


# --- process-level behaviour -----------------------------------------------------------

def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fluctus.cli", "ratio", "--material", "water",
         "--lambda", "350e-9", "--theta", "180", "--temperature", "295",
         "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)[0]
    assert rec["value"] == pytest.approx(0.0042345021887880737, rel=1e-12, abs=0)


NON_FINITE_MATERIAL = ("name = bad\nrho0_kg_m3 = 997\ncs_m_s = 1480\n"
                       "refractive_index = inf\ndepsilon_drho = nan\n")


@pytest.mark.parametrize("argv", [
    ["materials", "show", "{bad}"],
    ["ratio", "--material", "{bad}", "--lambda", "350e-9", "--theta", "180"],
    ["xsection", "--material", "water", "--omega", "inf", "--theta", "90"],
    ["xsection", "--material", "water", "--omega", "inf", "--theta", "90",
     "--format", "json"],
    ["ratio", "--material", "water", "--lambda", "350e-9", "--theta", "180",
     "--temperature", "inf"],
    ["xsection", "--material", "water", "--lambda", "350e-9", "--theta", "90",
     "--kind", "thermal-brillouin", "--temperature", "inf"],
    ["xsection", "--material", "water", "--lambda", "350e-9", "--theta", "90",
     "--volume", "-1"],
    ["xsection", "--material", "water", "--lambda", "350e-9", "--theta", "90",
     "--volume", "inf"],
    ["xsection", "--material", "water", "--omega", "1e100", "--theta", "90"],
    ["xsection", "--material", "water", "--omega", "1e60", "--theta", "90",
     "--volume", "1e300", "--format", "json"],
    ["xsection", "--material", "water", "--omega", "1e60", "--theta", "90",
     "--volume", "1e300", "--format", "csv"],
    ["xsection", "--material", "water", "--omega", "1e60", "--theta", "90",
     "--volume", "1e300"],
])
def test_non_finite_inputs_and_results_exit_2(argv, tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text(NON_FINITE_MATERIAL)
    code, out, err = run_cli(capsys, *(a.replace("{bad}", str(bad)) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_ratio_share_beyond_the_float_range_is_not_printed(tmp_path, capsys):
    # depsilon_drho**2 is subnormal: the ratio is finite (~2e306), 100x it is not
    tiny = tmp_path / "tiny.mat"
    tiny.write_text("name = tiny\nrho0_kg_m3 = 997\ncs_m_s = 1480\n"
                    "refractive_index = 1.33\ndepsilon_drho = 3e-155\n")
    code, out, _ = run_cli(capsys, "ratio", "--material", str(tiny),
                           "--lambda", "350e-9", "--theta", "180")
    assert code == 0
    assert "e+306" in out
    assert "inf" not in out and "%" not in out


def test_ratio_with_vanishing_drho_exits_2_with_the_reason(tmp_path, capsys):
    # depsilon_drho**2 underflows to 0: the ratio is undefined, a typed error
    flat = tmp_path / "flat.mat"
    flat.write_text("name = flat\nrho0_kg_m3 = 997\ncs_m_s = 1480\n"
                    "refractive_index = 1.33\ndepsilon_drho = 1e-200\n")
    code, out, err = run_cli(capsys, "ratio", "--material", str(flat),
                             "--lambda", "350e-9", "--theta", "180")
    assert code == 2 and out == ""
    assert err.startswith("error: ratio_zp_thermal: ") and "ratio is undefined" in err


def test_ratio_beyond_its_classical_domain_exits_2(capsys):
    # x = hbar Omega_q / kB T = 406 at 1 mK, where a share of 124917.81 % used to print
    code, out, err = run_cli(capsys, "ratio", "--material", "water", "--lambda", "350e-9",
                             "--theta", "180", "--temperature", "1e-3")
    assert code == 2 and out == ""
    assert err.startswith("error: ratio_zp_thermal for 'water' at omega = ")
    assert "x = hbar Omega_q / kB T = 405.879 is above 0.1" in err
    assert err.count("\n") == 1 and err.endswith("\n")


def test_underflowing_medium_is_refused_by_name(tmp_path, capsys):
    # cs^2 rho0 underflows to 0; the parent printed "float division by zero"
    thin = tmp_path / "thin.mat"
    thin.write_text("name = thin\nrho0_kg_m3 = 1e-200\ncs_m_s = 1e-100\n"
                    "refractive_index = 1.33\ndepsilon_drho = 0.8\n"
                    "cp_j_kg_k = 1e-200\ndepsilon_dt_per_k = 1.0\n")
    for kind, name in (("zp-exact", "zp_cross_section_exact"),
                       ("thermal-brillouin", "thermal_brillouin_cross_section"),
                       ("thermal-total", "thermal_total_cross_section")):
        code, out, err = run_cli(capsys, "xsection", "--material", str(thin),
                                 "--lambda", "350e-9", "--theta", "90", "--kind", kind)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {name} for 'thin'"), err


def test_bad_usage_never_tracebacks():
    proc = subprocess.run(
        [sys.executable, "-m", "fluctus.cli", "correlator", "--material",
         "water", "--r", "not-a-number"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["--r", "1e100"],              # r^6 once overflowed
    ["--r", "1e-300"],             # r^4 once underflowed to a division by zero
    ["--r", "1e-9", "--dt=1e300"],
])
def test_extreme_separations_never_traceback(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "fluctus.cli", "correlator", "--material", "water",
         *argv, "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode in (0, 2)
    assert "Traceback" not in proc.stderr
    if proc.returncode == 0:
        assert all(math.isfinite(rec["value"]) for rec in json.loads(proc.stdout))


def _numbers(draw, defaults):
    """``defaults`` with one or two values drawn from st.floats() instead,
    which brings nan, +-inf and extremes to an otherwise valid call."""
    wild = draw(st.sets(st.sampled_from(sorted(defaults)), min_size=1, max_size=2))
    return {k: draw(st.floats()) if k in wild else v for k, v in defaults.items()}


_MATERIAL = {"rho0_kg_m3": 997.0, "cs_m_s": 1480.0, "refractive_index": 1.4,
             "depsilon_drho": 0.79, "cp_j_kg_k": 4181.0, "depsilon_dt_per_k": -1e-4,
             "temperature_k": 295.0}
_FORMAT = st.sampled_from(["table", "csv", "json"])


@st.composite
def _argv(draw):
    """(argv, material-file text); "{file}" in argv names that file."""
    material = "name = drawn\n" + "".join(
        f"{k} = {v!r}\n" for k, v in _numbers(draw, _MATERIAL).items())
    command = draw(st.sampled_from(["correlator", "xsection", "ratio", "materials"]))
    if command == "materials":
        return ["materials", "show", "{file}"], material
    argv = [command, "--material", draw(st.sampled_from(["water", "{file}"]))]
    if command == "correlator":
        n = _numbers(draw, {"r": 1e-9, "dt": 0.0, "boundary": 1e-9})
        argv += [f"--r={n['r']!r}", f"--dt={n['dt']!r}"]
        if draw(st.booleans()):
            argv.append(f"--boundary={n['boundary']!r}")
    else:
        light = draw(st.sampled_from([("lambda", 350e-9), ("omega", 5.4e15)]))
        n = _numbers(draw, {light[0]: light[1], "theta": 90.0, "temperature": 295.0,
                            "volume": 1.0})
        argv += [f"--{light[0]}={n[light[0]]!r}", f"--theta={n['theta']!r}"]
        if draw(st.booleans()):
            argv.append(f"--temperature={n['temperature']!r}")
        if command == "xsection":
            argv += ["--kind", draw(st.sampled_from(["zp", "zp-exact", "thermal-brillouin",
                                                     "thermal-total"])),
                     f"--volume={n['volume']!r}"]
    return argv + ["--format", draw(_FORMAT)], material


def _finite_json(node) -> bool:
    if isinstance(node, float):
        return math.isfinite(node)
    if isinstance(node, dict):
        return all(_finite_json(v) for v in node.values())
    if isinstance(node, list):
        return all(_finite_json(v) for v in node)
    return True


@settings(max_examples=300, deadline=None)
@given(case=_argv())
def test_drawn_argv_exits_cleanly_with_finite_output(case):
    # In process; ``verify`` is left out (seconds per call, and no inputs).
    argv, material = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drawn.mat")
        with open(path, "w") as fh:
            fh.write(material)
        argv = [a.replace("{file}", path) for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refusals
                code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert not re.search(r"\(\d+, '", err.getvalue()), err.getvalue()
    if code == 0 and argv[-2:] == ["--format", "json"]:
        assert _finite_json(json.loads(out.getvalue())), out.getvalue()
