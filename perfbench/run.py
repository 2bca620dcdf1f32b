"""fluctus benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see ``workloads.py`` for the inputs of each):

* ``verify-all``: the certification users run; ``spectral`` does ~85 %
  of the work, so any spectral change shows here.
* ``lattice-ladder``: the N = 64..512 mode-sum ladder, which
  ``verify-all`` does not reach beyond N = 256.
* ``closed-form-batch``: seeded public closed-form calls; only
  ``correlator`` and ``scattering`` work, the oracles do not.
* ``cli-queries``: fresh CLI processes, where cold start dominates.

``BENCHMARK.json`` gates ``verify-all`` and ``closed-form-batch``; see
``README.md`` for why.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` first measures half the time untraced, then half with
spans recorded around every public call, and reports the per-layer
metrics; the difference is the tracing overhead.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# One worker thread for BLAS, here and in every child process: the work
# is single-threaded Python and numpy, and a second BLAS thread on the
# two-core machine only adds noise.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 15
PROBE_REPEATS = 5
PROBE_CLI_CYCLES = 3
SPAN_LIMIT = 50_000

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_best_s": "s",
    "peak_rss_mib": "MiB",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up and exit (used to time set-up)")
    return p.parse_args(argv)


def _import_package():
    """Import fluctus from this checkout's src/, refusing any other copy."""
    for var in BLAS_VARS:  # before numpy loads
        os.environ[var] = BLAS_THREADS
    if not (SRC / "fluctus" / "__init__.py").is_file():
        raise SystemExit(f"error: no fluctus sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import fluctus
    if Path(fluctus.__file__).resolve().parent != (SRC / "fluctus").resolve():
        raise SystemExit(f"error: imported fluctus from {fluctus.__file__}, not {SRC}")


def environment(args):
    """Machine, interpreter, library and run record written beside every result."""
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True,
                                    timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(step, timed, seconds, stop=lambda: False, between=()):
    """Closed loop: run steps until the next one would end after ``seconds``.

    At least one step always runs.  The calls in ``between`` run between
    steps at evenly spaced times, so that each samples another part of
    the run; any still due run at the end.
    """
    steps = []
    pending = list(between)
    t0 = perf_counter()
    while True:
        steps.append(step(timed))
        elapsed = perf_counter() - t0
        while pending and elapsed >= seconds * (1 - len(pending) / len(between)):
            pending.pop()()
            elapsed = perf_counter() - t0
        if elapsed + elapsed / len(steps) > seconds or stop():
            break
    for task in pending:
        task()
    return steps


def setup_probe(args, walls):
    """A call that times one fresh process doing only the workload's set-up.

    Appends (seconds, exit code) to ``walls``.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]

    def probe():
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=120)
        walls.append((perf_counter() - t0, proc.returncode))

    return probe


def best_latency(steps):
    """Fastest latency of the run's operation.

    Where steps are timed in pieces, the sum over pieces of each piece's
    fastest time: the machine's speed drifts over seconds, and a short
    piece is likelier than a whole call to run once at full speed.
    Otherwise the mean over operation kinds of each kind's fastest time.
    """
    if steps[0].pieces is not None:
        return sum(min(st.pieces[key] for st in steps) for key in steps[0].pieces)
    best = {}
    for st in steps:
        for kind, sample in zip(st.kinds or [None] * len(st.samples), st.samples):
            best[kind] = min(sample, best.get(kind, sample))
    return statistics.mean(best.values())


def run_end_to_end(args, wl):
    import resource

    from tracing import tail

    setups = []
    steps = measure(wl.step, contextlib.nullcontext, args.seconds,
                    between=[setup_probe(args, setups)] * SETUP_REPEATS)
    setup_walls = [wall for wall, _ in setups]
    samples = [s for st in steps for s in st.samples]
    attempted = sum(st.attempted for st in steps)
    failed = sum(st.failed for st in steps)
    if args.workload == "cli-queries":
        rss_kib = wl.child_maxrss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "op_best_s": best_latency(steps),
        "peak_rss_mib": rss_kib / 1024.0,
    }
    tail_value, tail_pct, n = tail(samples)
    notes = {
        "steps": len(steps), "samples": n,
        "op_p50_s": statistics.median(samples),
        "op_tail_s": tail_value, "tail_percentile": tail_pct,
        "ops_per_s": (attempted - failed) / sum(st.busy for st in steps),
        "setup_samples_s": setup_walls, "op_samples_s": samples,
    }
    setup_ok = all(code == 0 for _, code in setups)
    return metrics, attempted, failed, setup_ok, notes


def probe_subprocess_imports():
    """Bare interpreter, numpy import and fluctus.cli import, each a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    codes = {"interpreter": "pass", "numpy": "import numpy", "cli": "import fluctus.cli"}
    walls = {k: [] for k in codes}
    ok = True
    for _ in range(PROBE_REPEATS):
        for key, code in codes.items():
            t0 = perf_counter()
            proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                                  capture_output=True, timeout=60)
            walls[key].append(perf_counter() - t0)
            ok = ok and proc.returncode == 0
    med = {k: statistics.median(v) for k, v in walls.items()}
    return {
        "cli.interpreter_s": med["interpreter"],
        "cli.numpy_import_s": med["numpy"] - med["interpreter"],
        "cli.import_s": med["cli"] - med["interpreter"],
    }, ok


def probe_resolve(material_path):
    """medium.resolve_material per call, for the built-in and for a material file."""
    import workloads

    resolve = workloads.medium_mod.resolve_material
    out = {}
    for key, arg, calls in (("builtin", "water", 1000), ("file", material_path, 50)):
        per_call = []
        for _ in range(15):
            t0 = perf_counter()
            for _ in range(calls):
                resolve(arg)
            per_call.append((perf_counter() - t0) / calls)
        out[f"medium.resolve_us.{key}"] = 1e6 * statistics.median(per_call)
    return out


def probe_cli_main(cli_wl):
    """In-process cli.main for each query kind, untraced."""
    import workloads

    steps = [cli_wl.step_inprocess(contextlib.nullcontext) for _ in range(PROBE_CLI_CYCLES)]
    by_kind = {}
    for st in steps:
        for kind, sample in zip(st.kinds, st.samples):
            by_kind.setdefault(kind, []).append(sample)
    out = {f"cli.main_s.{kind}": statistics.median(by_kind[kind])
           for kind in workloads.QUERY_KINDS}
    out["cli.stdout_bytes"] = statistics.mean(st.stdout_bytes for st in steps)
    return out, sum(st.attempted for st in steps), sum(st.failed for st in steps)


def run_traced(args, wl, workdir):
    import workloads
    from tracing import SpanRecorder, layer_metrics

    step = wl.step_inprocess if args.workload == "cli-queries" else wl.step
    half = args.seconds / 2.0
    untraced = measure(step, contextlib.nullcontext, half)
    rec = SpanRecorder()

    def traced_step(timed):
        rec.next_step()
        return step(timed)

    with rec.installed():
        traced = measure(traced_step, rec.recording, half, stop=lambda: len(rec) >= SPAN_LIMIT)
    metrics, notes = layer_metrics(rec, len(traced), workloads.errors.FluctusError)
    wall_untraced = statistics.median(st.busy for st in untraced)
    metrics["trace.wall_s"] = statistics.mean(st.busy for st in traced)
    metrics["trace.overhead_s"] = statistics.median(st.busy for st in traced) - wall_untraced
    rec.dump(RESULTS / f"spans-{args.workload}-seed{args.seed}.json")

    cli_wl = wl if args.workload == "cli-queries" else workloads.CliQueries(args.seed, workdir)
    import_metrics, probes_ok = probe_subprocess_imports()
    metrics.update(import_metrics)
    metrics.update(probe_resolve(cli_wl.material_path))
    main_metrics, probe_attempted, probe_failed = probe_cli_main(cli_wl)
    metrics.update(main_metrics)

    steps = untraced + traced
    attempted = sum(st.attempted for st in steps) + probe_attempted
    failed = sum(st.failed for st in steps) + probe_failed
    repeat_ok = all(notes["repeat"].values())
    notes.update({"untraced_steps": len(untraced), "traced_steps": len(traced),
                  "trace.unattributed_s": metrics["trace.wall_s"] - metrics["trace.self_sum_s"]})
    return metrics, attempted, failed, probes_ok and repeat_ok, notes


def per_layer_units():
    """Unit of every per-layer metric, as declared in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def report(args, wl, metrics, units, attempted, failed, notes):
    """Human-readable lines, with the headline figures of each workload by name."""
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    if args.trace == 0:
        name, key, unit, how = wl.headline
        print(f"  {name} = {notes[key]:.6g} {unit}  "
              f"({how}; {notes['samples']} samples in {notes['steps']} steps; not gated)")
        print(f"  {wl.tail_name} = {notes['op_tail_s']:.6g} s  "
              f"(p{notes['tail_percentile']:.1f} of {notes['samples']} samples; not gated)")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    print(f"  failed_frac = {failed / max(attempted, 1):.6g}  ({failed} of {attempted})")


def main(argv=None) -> int:
    t_start = perf_counter()
    args = _parse(argv)
    _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=RESULTS)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            return 0
        own_setup_s = perf_counter() - t_start
        if args.trace == 0:
            metrics, attempted, failed, ok, notes = run_end_to_end(args, wl)
            units = END_TO_END_UNITS
        else:
            metrics, attempted, failed, ok, notes = run_traced(args, wl, workdir)
            units = per_layer_units()
            missing = set(units) - set(metrics)
            if missing:
                raise SystemExit(f"error: per-layer metrics not produced: {sorted(missing)}")
            metrics = {k: metrics[k] for k in units}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counts = {"attempted": attempted, "failed": failed, "own_setup_s": own_setup_s,
              "setup_repeats": SETUP_REPEATS, "probe_repeats": PROBE_REPEATS, **notes}
    record = {"environment": environment(args), "metrics": metrics, "run": counts}
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    report(args, wl, metrics, units, attempted, failed, notes)
    print("environment " + json.dumps(record["environment"]))
    result = {
        "correct": bool(ok and failed == 0 and attempted > 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
