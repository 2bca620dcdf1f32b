"""The four benchmark workloads: inputs from a seed, one timed step, its checks.

Every workload is a closed loop with one caller.  ``step(timed)``
performs one unit of work and returns a :class:`Step`; ``timed`` is a
context manager factory wrapped around exactly the calls being timed,
so that a traced run records spans there and nowhere else.  Checks run
outside it.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import reference
import tracing

verify = importlib.import_module("fluctus.verify")
lattice = importlib.import_module("fluctus.lattice")
scattering = importlib.import_module("fluctus.scattering")
medium_mod = importlib.import_module("fluctus.medium")
cli = importlib.import_module("fluctus.cli")
# ``fluctus.correlator`` the attribute is the function; this is the module.
corr_mod = importlib.import_module("fluctus.correlator")
errors = importlib.import_module("fluctus.errors")


@dataclass
class Step:
    """One timed unit: per-operation latencies, timed seconds in all,
    operations attempted and failed, the kind of each operation where a
    step mixes kinds, and the seconds of each named piece of the step
    where it is timed piece by piece."""

    samples: list[float]
    busy: float
    attempted: int
    failed: int
    kinds: list[str] | None = None
    stdout_bytes: int = 0
    pieces: dict[str, float] | None = None


def _u_ratio(rng, size=None):
    """cs|dt|/r in [0.1, 0.94] or [1.06, 3.0], half spacelike, half timelike.

    The 0.95..1.05 band around the cone is left out, as on the
    program's standard 40-point grid.
    """
    timelike = rng.random(size) < 0.5
    return np.where(timelike, rng.uniform(1.06, 3.0, size), rng.uniform(0.10, 0.94, size))


def piece_timer(out):
    """Wrapper factory for ``tracing.patched``: appends (key, seconds) of each call to ``out``."""
    def wrap(fn, key):
        def timed_piece(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                out.append((key, perf_counter() - t0))
        return timed_piece
    return wrap


class VerifyAll:
    """One in-process ``verify.verify_all()``: the certification users run.

    Its inputs are the program's own fixed ones (the 40-point grid, the
    standard lattice geometry, the chain suite's seeded configurations),
    so the seed changes nothing here.
    """

    name = "verify-all"
    headline = ("verify_all_s", "op_p50_s", "s", "median per verify_all() call")
    tail_name = "op_tail_s"
    CHECKS = 9
    # The call is also timed in pieces: each suite other than spectral,
    # and each spectral oracle call, which the suite makes in a fixed order.
    PIECES = (("fluctus.verify", "verify_chain", "verify_chain"),
              ("fluctus.verify", "verify_lattice", "verify_lattice"),
              ("fluctus.spectral", "extrapolated_correlator", "extrapolated_correlator"),
              ("fluctus.spectral", "regulated_integrand_reduction",
               "regulated_integrand_reduction"))

    def __init__(self, seed, workdir):
        pass

    def step(self, timed):
        calls = []
        with tracing.patched(self.PIECES, piece_timer(calls)), timed():
            t0 = perf_counter()
            suites = verify.verify_all()
            elapsed = perf_counter() - t0
        checks = [c for results in suites.values() for c in results]
        failed = len(checks) != self.CHECKS or not all(c.passed for c in checks)
        pieces, seen = {}, {}
        for attr, seconds in calls:
            seen[attr] = seen.get(attr, 0) + 1
            pieces[f"{attr}#{seen[attr]}"] = seconds
        pieces["rest"] = elapsed - sum(seconds for _, seconds in calls)
        return Step([elapsed], elapsed, 1, int(failed), pieces=pieces)


class LatticeLadder:
    """One ``lattice.convergence_study`` over N = 64..512 at the study geometry.

    The N = 512 mode sum dominates; ``verify-all`` stops at N = 256, so a
    lattice gain shows here and not there.  Fixed inputs (water, r = 16 nm).
    """

    name = "lattice-ladder"
    headline = ("lattice_study_s", "op_p50_s", "s", "median per study")
    tail_name = "op_tail_s"
    NS = (64, 128, 256, 512)
    R = 16e-9

    def __init__(self, seed, workdir):
        self.water = medium_mod.builtin_material("water")

    def step(self, timed):
        with timed():
            t0 = perf_counter()
            study = lattice.convergence_study(self.water, r=self.R, ns=self.NS)
            elapsed = perf_counter() - t0
        return Step([elapsed], elapsed, 1, int(not self.check(study)))

    @staticmethod
    def check(study) -> bool:
        """The program's own gates: monotone rows, N = 64..256 slope in the frozen band."""
        rows = study.rows
        if [n for n, _ in rows] != list(LatticeLadder.NS) or not study.monotone:
            return False
        first = rows[:3]
        slope = float(np.polyfit(np.log([study.L / n / study.r for n, _ in first]),
                                 np.log([e for _, e in first]), 1)[0])
        lo, hi = verify.LATTICE_SLOPE_BAND
        return lo <= slope <= hi and rows[3][1] < rows[2][1]


# One closed-form batch calls every public closed-form function equally
# often.  No usage data ranks them, so none is weighted above another.
# Of each function's calls, ERROR_CALLS go to on-cone inputs if it can
# raise SoundConeSingularityError, and as many to coincident inputs if it
# can raise CoincidenceDivergenceError; they probe the error paths, and
# at 2 % they leave the time to the ordinary calls.  The seed places them.
CALLS_PER_KIND = 450
ERROR_CALLS = 9
# (kind, raises on the cone, raises on coincidence)
BATCH = (
    ("correlator", True, True),
    ("equal_time_correlator", False, True),
    ("boundary_correlator", True, True),
    ("scalar_field_analog", True, True),
    ("zp_cross_section_chain", False, False),
    ("zp_cross_section_exact", False, False),
    ("zp_cross_section_reduced", False, False),
    ("thermal_brillouin_cross_section", False, False),
    ("ratio_zp_thermal", False, False),
)
BATCH_SIZE = CALLS_PER_KIND * len(BATCH)
CORRELATOR_KINDS = ("correlator", "equal_time_correlator", "boundary_correlator",
                    "scalar_field_analog")
REL_TOL = 1e-12


class ClosedFormBatch:
    """Seeded public closed-form calls, checked against an independent numpy evaluation.

    ``correlator`` and ``scattering`` do all the work; the oracles none.
    One step is one batch of ``BATCH_SIZE`` calls; the operation counted
    is one public call.
    """

    name = "closed-form-batch"
    headline = ("closed_form_evals_per_s", "ops_per_s", "1/s",
                f"correct public calls per timed second, batches of {BATCH_SIZE}")
    tail_name = "op_tail_s"

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        pols = list(scattering.Polarization)
        self.media = [medium_mod.fluid_medium(
            name=f"seeded-{k}", rho0=rng.uniform(100.0, 2500.0), cs=rng.uniform(200.0, 3500.0),
            eta=rng.uniform(1.0, 2.0), drho=rng.uniform(0.1, 1.5),
            default_temperature=rng.uniform(150.0, 450.0)) for k in range(8)]
        self.calls = []      # (kind, args)
        self.expected = []   # float reference value, or the typed error class
        for kind, cone, coincident in BATCH:
            if kind in CORRELATOR_KINDS:
                getattr(self, "_gen_" + kind)(rng, kind, CALLS_PER_KIND,
                                              ERROR_CALLS * cone, ERROR_CALLS * coincident)
            else:
                self._gen_scattering(rng, kind, CALLS_PER_KIND, pols)
        order = rng.permutation(len(self.calls))
        self.calls = [self.calls[i] for i in order]
        self.expected = [self.expected[i] for i in order]

    def _pick_media(self, rng, n):
        idx = rng.integers(len(self.media), size=n)
        return [self.media[i] for i in idx]

    def _errors(self, rng, n, n_cone, n_coinc):
        # Positions (within this kind) of the on-cone and coincident inputs.
        slots = rng.permutation(n)
        return set(slots[:n_cone].tolist()), set(slots[n_cone:n_cone + n_coinc].tolist())

    def _gen_correlator(self, rng, kind, n, n_cone, n_coinc):
        media = self._pick_media(rng, n)
        cs = np.array([m.cs for m in media])
        rho0 = np.array([m.rho0 for m in media])
        r = 10.0 ** rng.uniform(-9.0, -8.5, n)
        dt = np.where(rng.random(n) < 0.5, -1.0, 1.0) * _u_ratio(rng, n) * r / cs
        cone, coinc = self._errors(rng, n, n_cone, n_coinc)
        ref = reference.density_correlator(rho0, cs, r, dt)
        for i in range(n):
            if i in cone:
                sep, exp = corr_mod.Separation(float(r[i]), float(r[i] / cs[i])), \
                    errors.SoundConeSingularityError
            elif i in coinc:
                sep, exp = corr_mod.Separation(0.0, 0.0), errors.CoincidenceDivergenceError
            else:
                sep, exp = corr_mod.Separation(float(r[i]), float(dt[i])), float(ref[i])
            self.calls.append((kind, (media[i], sep)))
            self.expected.append(exp)

    def _gen_equal_time_correlator(self, rng, kind, n, n_cone, n_coinc):
        media = self._pick_media(rng, n)
        r = 10.0 ** rng.uniform(-9.0, -8.5, n)
        ref = reference.equal_time_correlator(
            np.array([m.rho0 for m in media]), np.array([m.cs for m in media]), r)
        _, coinc = self._errors(rng, n, n_cone, n_coinc)
        for i in range(n):
            if i in coinc:
                self.calls.append((kind, (media[i], 0.0)))
                self.expected.append(errors.CoincidenceDivergenceError)
            else:
                self.calls.append((kind, (media[i], float(r[i]))))
                self.expected.append(float(ref[i]))

    def _gen_boundary_correlator(self, rng, kind, n, n_cone, n_coinc):
        media = self._pick_media(rng, n)
        cone, coinc = self._errors(rng, n, n_cone, n_coinc)
        for i in range(n):
            m = media[i]
            while True:
                z1, z2 = 10.0 ** rng.uniform(-9.3, -8.3, 2)
                tr = rng.uniform(0.0, 3e-9)
                direct, image = math.hypot(tr, z1 - z2), math.hypot(tr, z1 + z2)
                dt = (-1.0 if rng.random() < 0.5 else 1.0) * float(_u_ratio(rng)) * direct / m.cs
                u_image = m.cs * abs(dt) / image
                if not 0.95 <= u_image <= 1.05:
                    break
            if i in cone:
                args, exp = (m, z1, z2, tr, direct / m.cs), errors.SoundConeSingularityError
            elif i in coinc:
                args, exp = (m, z1, z1, 0.0, 0.0), errors.CoincidenceDivergenceError
            else:
                args = (m, z1, z2, tr, dt)
                exp = float(reference.boundary_correlator(m.rho0, m.cs, z1, z2, tr, dt))
            self.calls.append((kind, args))
            self.expected.append(exp)

    def _gen_scalar_field_analog(self, rng, kind, n, n_cone, n_coinc):
        c = reference.C_LIGHT
        r = 10.0 ** rng.uniform(-9.0, -8.5, n)
        dt = np.where(rng.random(n) < 0.5, -1.0, 1.0) * _u_ratio(rng, n) * r / c
        ref = reference.scalar_field_analog(c, r, dt)
        cone, coinc = self._errors(rng, n, n_cone, n_coinc)
        for i in range(n):
            if i in cone:
                sep, exp = corr_mod.Separation(float(r[i]), float(r[i] / c)), \
                    errors.SoundConeSingularityError
            elif i in coinc:
                sep, exp = corr_mod.Separation(0.0, 0.0), errors.CoincidenceDivergenceError
            else:
                sep, exp = corr_mod.Separation(float(r[i]), float(dt[i])), float(ref[i])
            self.calls.append((kind, (c, sep)))
            self.expected.append(exp)

    def _gen_scattering(self, rng, kind, n, pols):
        media = self._pick_media(rng, n)
        omega = 2.0 * math.pi * reference.C_LIGHT / rng.uniform(200e-9, 700e-9, n)
        theta = rng.uniform(0.05, math.pi, n)
        pol = [pols[k] for k in rng.integers(len(pols), size=n)]
        temperature = rng.uniform(150.0, 450.0, n)
        rho0 = np.array([m.rho0 for m in media])
        cs = np.array([m.cs for m in media])
        eta = np.array([m.eta for m in media])
        drho = np.array([m.drho for m in media])
        pf = np.array([float(reference.POL_FACTORS[p.value](np.cos(t)))
                       for p, t in zip(pol, theta)])
        if kind in ("zp_cross_section_chain", "zp_cross_section_exact"):
            ref = reference.zp_cross_section_exact(rho0, cs, eta, omega, theta, pf)
        elif kind == "zp_cross_section_reduced":
            ref = reference.zp_cross_section_reduced(rho0, cs, eta, omega, theta, pf)
        elif kind == "thermal_brillouin_cross_section":
            ref = reference.thermal_brillouin_cross_section(rho0, cs, drho, omega, temperature, pf)
        else:
            ref = reference.ratio_zp_thermal(cs, eta, drho, omega, theta, temperature)
        for i in range(n):
            cfg = scattering.ScatteringConfig(omega=float(omega[i]), theta=float(theta[i]),
                                              pol=pol[i], temperature=float(temperature[i]))
            self.calls.append((kind, (media[i], cfg)))
            self.expected.append(float(ref[i]))

    def run_batch(self):
        """Evaluate every call through its module attribute; errors are kept as results."""
        table = {kind: getattr(corr_mod if kind in CORRELATOR_KINDS else scattering, kind)
                 for kind, _, _ in BATCH}
        out = []
        append = out.append
        for kind, args in self.calls:
            try:
                append(table[kind](*args))
            except Exception as exc:  # classified by the check, untyped ones fail
                # The class only: a kept exception holds its traceback, whose
                # frame holds this list, a cycle left to the garbage collector.
                append(type(exc))
        return out

    def step(self, timed):
        with timed():
            t0 = perf_counter()
            results = self.run_batch()
            elapsed = perf_counter() - t0
        failed = check_batch(results, self.expected)
        return Step([elapsed / len(results)], elapsed, len(results), failed)


def check_batch(results, expected) -> int:
    """Number of results that differ from the reference by more than REL_TOL
    or that raise anything but the expected typed error.

    ``results`` holds values, or the class of the exception a call raised.
    """
    failed = 0
    for got, exp in zip(results, expected):
        if isinstance(exp, type):
            failed += not (isinstance(got, type) and issubclass(got, exp))
            continue
        if isinstance(got, type):
            failed += 1
            continue
        value = float(getattr(got, "value", got))
        if exp == 0.0:
            failed += value != 0.0
        else:
            failed += not abs(value - exp) <= REL_TOL * abs(exp)
    if len(results) != len(expected):
        failed += abs(len(results) - len(expected))
    return failed


# --- CLI queries ---------------------------------------------------------

QUERY_KINDS = ("point", "sweep-csv", "sweep-json", "boundary", "xsection", "ratio",
               "materials-show", "on-cone")
SWEEP_POINTS = 2000
XSECTION_KINDS = ("zp", "zp-exact", "thermal-brillouin")


@dataclass(frozen=True)
class Query:
    kind: str
    argv: tuple[str, ...]


class CliQueries:
    """Fresh ``python -m fluctus.cli`` processes over a seeded query mix.

    Cold start dominates.  One step is one cycle with each query kind
    once, in a seeded order; the operation counted is one query.
    """

    name = "cli-queries"
    headline = ("cli_latency_p50_s", "op_p50_s", "s", "median per query")
    tail_name = "cli_latency_tail_s"
    CYCLES = 64

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(corr_mod.__file__)))
        self.water = medium_mod.builtin_material("water")
        material = medium_mod.fluid_medium(
            name="bench-fluid", rho0=rng.uniform(500.0, 2000.0), cs=rng.uniform(500.0, 3000.0),
            eta=rng.uniform(1.1, 1.8), drho=rng.uniform(0.2, 1.2),
            default_temperature=rng.uniform(250.0, 350.0))
        self.material_path = os.path.join(workdir, "bench-fluid.mat")
        self.material_text = medium_mod.dumps_material(material)
        with open(self.material_path, "w", encoding="utf-8") as fh:
            fh.write(self.material_text)
        self.cycles = [self._cycle(rng) for _ in range(self.CYCLES)]
        self.next_cycle = 0
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=self.root)
        self.child_maxrss_kib = 0

    def _cycle(self, rng):
        cs = self.water.cs
        out = []
        for kind in rng.permutation(QUERY_KINDS):
            if kind == "point":
                r = 10.0 ** rng.uniform(-10.0, -7.0)
                dt = (-1.0 if rng.random() < 0.5 else 1.0) * float(_u_ratio(rng)) * r / cs
                # "--dt=<value>": argparse would take a bare "-1e-13" for an option.
                argv = ("correlator", "--material", "water", "--r", repr(r), f"--dt={dt!r}",
                        "--format", "json")
            elif kind in ("sweep-csv", "sweep-json"):
                lo = 10.0 ** rng.uniform(-10.0, -8.0)
                hi = lo * 10.0 ** rng.uniform(1.0, 2.0)
                argv = ("correlator", "--material", "water",
                        "--r", f"{lo!r}..{hi!r}:{SWEEP_POINTS}L", "--dt", "0",
                        "--format", kind.split("-")[1])
            elif kind == "boundary":
                argv = ("correlator", "--material", "water",
                        "--boundary", repr(10.0 ** rng.uniform(-10.0, -6.0)), "--format", "json")
            elif kind == "xsection":
                lo, hi = rng.uniform(1.0, 60.0), rng.uniform(120.0, 180.0)
                argv = ("xsection", "--material", "water",
                        "--lambda", repr(rng.uniform(200e-9, 700e-9)),
                        "--theta", f"{lo!r}..{hi!r}:19",
                        "--kind", XSECTION_KINDS[rng.integers(len(XSECTION_KINDS))],
                        "--pol", rng.choice([p.value for p in scattering.Polarization]),
                        "--temperature", repr(rng.uniform(150.0, 450.0)), "--format", "json")
            elif kind == "ratio":
                argv = ("ratio", "--material", self.material_path,
                        "--lambda", repr(rng.uniform(200e-9, 700e-9)),
                        "--theta", repr(rng.uniform(1.0, 180.0)),
                        "--temperature", repr(rng.uniform(150.0, 450.0)), "--format", "json")
            elif kind == "materials-show":
                argv = ("materials", "show", self.material_path)
            else:  # on-cone: must exit 2 with a one-line error
                r = 10.0 ** rng.uniform(-10.0, -7.0)
                argv = ("correlator", "--material", "water", "--r", repr(r),
                        "--dt", repr(r / cs), "--format", "json")
            out.append(Query(str(kind), tuple(str(a) for a in argv)))
        return out

    def take_cycle(self):
        cycle = self.cycles[self.next_cycle % len(self.cycles)]
        self.next_cycle += 1
        return cycle

    def run_subprocess(self, query):
        """One fresh interpreter; returns (code, stdout, stderr, seconds, maxrss KiB)."""
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "fluctus.cli", *query.argv],
                                    stdout=out, stderr=err, env=self.env, cwd=self.workdir)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8") as fh:
            stderr = fh.read()
        return proc.returncode, stdout, stderr, elapsed, usage.ru_maxrss

    @staticmethod
    def run_inprocess(query):
        """``cli.main(argv)`` in this process with stdout and stderr captured."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = cli.main(list(query.argv))
            except SystemExit as exc:  # argparse rejects usage this way
                code = exc.code
            elapsed = perf_counter() - t0
        return code, out.getvalue(), err.getvalue(), elapsed

    def step(self, timed):
        cycle = self.take_cycle()
        samples, failed = [], 0
        for query in cycle:
            with timed():
                code, stdout, stderr, elapsed, maxrss = self.run_subprocess(query)
            self.child_maxrss_kib = max(self.child_maxrss_kib, maxrss)
            samples.append(elapsed)
            failed += not self.check(query, code, stdout, stderr)
        return Step(samples, sum(samples), len(samples), failed, [q.kind for q in cycle])

    def step_inprocess(self, timed):
        """The same cycle through ``cli.main`` in this process, where spans can be recorded."""
        cycle = self.take_cycle()
        samples, failed, nbytes = [], 0, 0
        for query in cycle:
            with timed():
                code, stdout, stderr, elapsed = self.run_inprocess(query)
            samples.append(elapsed)
            nbytes += len(stdout.encode("utf-8"))
            failed += not self.check(query, code, stdout, stderr)
        return Step(samples, sum(samples), len(samples), failed, [q.kind for q in cycle], nbytes)

    # -- checks: exit code, parse, and equality with the library call --

    def check(self, query, code, stdout, stderr) -> bool:
        if query.kind == "on-cone":
            return (code == 2 and stdout == "" and stderr.startswith("error:")
                    and "Traceback" not in stderr)
        if code != 0 or stderr:
            return False
        try:
            return getattr(self, "_check_" + query.kind.replace("-", "_"))(query, stdout)
        except (ValueError, KeyError, TypeError, IndexError, errors.FluctusError):
            return False

    @staticmethod
    def _arg(query, flag):
        for i, a in enumerate(query.argv):
            if a == flag:
                return query.argv[i + 1]
            if a.startswith(flag + "="):
                return a[len(flag) + 1:]
        raise KeyError(flag)

    def _correlator_records_ok(self, records, rs, dt):
        if [rec["inputs"]["r_m"] for rec in records] != rs:
            return False
        medium = medium_mod.resolve_material("water")
        for rec in records:
            lib = corr_mod.correlator(medium, corr_mod.Separation(rec["inputs"]["r_m"], dt))
            if (rec["value"] != lib.value or rec["inputs"]["dt_s"] != dt
                    or rec["formula"] != lib.formula or rec["unit"] != "kg^2/m^6"):
                return False
        return True

    def _check_point(self, query, stdout):
        return self._correlator_records_ok(json.loads(stdout), [float(self._arg(query, "--r"))],
                                           float(self._arg(query, "--dt")))

    def _check_sweep_json(self, query, stdout):
        rs = cli.parse_range(self._arg(query, "--r"))
        return len(rs) == SWEEP_POINTS and self._correlator_records_ok(json.loads(stdout), rs, 0.0)

    def _check_sweep_csv(self, query, stdout):
        rows = list(csv.DictReader(io.StringIO(stdout)))
        records = [{"inputs": {"r_m": float(row["r_m"]), "dt_s": float(row["dt_s"])},
                    "value": float(row["value"]), "formula": row["formula"], "unit": row["unit"]}
                   for row in rows]
        rs = cli.parse_range(self._arg(query, "--r"))
        return len(rs) == SWEEP_POINTS and self._correlator_records_ok(records, rs, 0.0)

    def _check_boundary(self, query, stdout):
        z = float(self._arg(query, "--boundary"))
        records = json.loads(stdout)
        shift = corr_mod.boundary_shift_planar(self.water, z)
        e2, b2 = corr_mod.em_vacuum_shift_plate(z)
        return ([rec["value"] for rec in records] == [shift.value, e2, b2]
                and [rec["formula"] for rec in records]
                == [shift.formula, "em-plate-shift-E2", "em-plate-shift-B2"])

    def _check_xsection(self, query, stdout):
        records = json.loads(stdout)
        thetas = cli.parse_range(self._arg(query, "--theta"))
        omega = scattering.omega_from_wavelength(float(self._arg(query, "--lambda")))
        fn = cli._KINDS[self._arg(query, "--kind")]
        if [rec["inputs"]["theta_deg"] for rec in records] != thetas:
            return False
        for rec, theta in zip(records, thetas):
            cfg = scattering.ScatteringConfig(
                omega=omega, theta=math.radians(theta),
                pol=scattering.Polarization(self._arg(query, "--pol")),
                temperature=float(self._arg(query, "--temperature")))
            if rec["inputs"]["omega_rad_s"] != omega or rec["value"] != fn(self.water, cfg).value:
                return False
        return True

    def _check_ratio(self, query, stdout):
        (record,) = json.loads(stdout)
        medium = medium_mod.load_material(self.material_path)
        cfg = scattering.ScatteringConfig(
            omega=scattering.omega_from_wavelength(float(self._arg(query, "--lambda"))),
            theta=math.radians(float(self._arg(query, "--theta"))),
            temperature=float(self._arg(query, "--temperature")))
        return record["value"] == scattering.ratio_zp_thermal(medium, cfg)

    def _check_materials_show(self, query, stdout):
        return stdout == self.material_text


WORKLOADS = {w.name: w for w in (VerifyAll, LatticeLadder, ClosedFormBatch, CliQueries)}
