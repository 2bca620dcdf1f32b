"""Span recorder for the traced run, and the per-layer figures it yields.

Spans are recorded from the benchmark's side only: the public functions
are replaced, for the duration of the traced phase, at the module
attributes their callers actually look up, and restored afterwards.
``fluctus`` itself is not modified.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
from time import perf_counter

#: (module, attribute, span name).  The span name is "<layer>.<function>",
#: the layer being the module that defines the function.  Each entry is a
#: lookup some caller makes: verify reaches spectral, lattice and
#: scattering through the module, but imports ``correlator`` by name;
#: lattice imports ``regulated_integrand_reduction`` by name and calls
#: ``lattice_correlator`` as a module global; the cli imports
#: ``correlator``, ``boundary_shift_planar`` and ``resolve_material`` by
#: name.  The benchmark itself calls through the modules.
TARGETS = (
    ("fluctus.verify", "verify_all", "verify.verify_all"),
    ("fluctus.verify", "verify_chain", "verify.verify_chain"),
    ("fluctus.verify", "verify_spectral", "verify.verify_spectral"),
    ("fluctus.verify", "verify_lattice", "verify.verify_lattice"),
    ("fluctus.verify", "correlator", "correlator.correlator"),
    ("fluctus.spectral", "extrapolated_correlator", "spectral.extrapolated_correlator"),
    ("fluctus.spectral", "regulated_integrand_reduction", "spectral.regulated_integrand_reduction"),
    ("fluctus.spectral", "damped_closed_form", "spectral.damped_closed_form"),
    ("fluctus.lattice", "regulated_integrand_reduction", "spectral.regulated_integrand_reduction"),
    ("fluctus.lattice", "convergence_study", "lattice.convergence_study"),
    ("fluctus.lattice", "lattice_correlator", "lattice.lattice_correlator"),
    ("fluctus.scattering", "zp_cross_section_chain", "scattering.zp_cross_section_chain"),
    ("fluctus.scattering", "zp_cross_section_exact", "scattering.zp_cross_section_exact"),
    ("fluctus.scattering", "zp_cross_section_reduced", "scattering.zp_cross_section_reduced"),
    ("fluctus.scattering", "thermal_brillouin_cross_section",
     "scattering.thermal_brillouin_cross_section"),
    ("fluctus.scattering", "ratio_zp_thermal", "scattering.ratio_zp_thermal"),
    # The package attribute ``fluctus.correlator`` is the function, which
    # shadows the submodule; import_module returns the module itself.
    ("fluctus.correlator", "correlator", "correlator.correlator"),
    ("fluctus.correlator", "equal_time_correlator", "correlator.equal_time_correlator"),
    ("fluctus.correlator", "boundary_correlator", "correlator.boundary_correlator"),
    ("fluctus.correlator", "scalar_field_analog", "correlator.scalar_field_analog"),
    ("fluctus.cli", "main", "cli.main"),
    ("fluctus.cli", "correlator", "correlator.correlator"),
    ("fluctus.cli", "boundary_shift_planar", "correlator.boundary_shift_planar"),
    ("fluctus.cli", "resolve_material", "medium.resolve_material"),
)


@contextlib.contextmanager
def patched(targets, make_wrapper):
    """Replace module attributes by wrappers for the duration of the block.

    ``targets`` holds (module name, attribute, key) triples; each
    attribute becomes ``make_wrapper(original, key)``.  The originals
    are restored on exit, last patched first, so that patches stack.
    """
    saved = []
    try:
        for module_name, attr, key in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make_wrapper(original, key))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _lattice_tag(args, kwargs):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return grid.N


#: Span names whose calls carry a tag taken from the arguments.
TAGS = {"lattice.lattice_correlator": _lattice_tag}


class SpanRecorder:
    """In-memory spans: name, start, end, parent, step (operation id), tag, error.

    Columns are parallel lists indexed by span number; ``parent`` is -1
    for a span no other span encloses.  Wrappers record only while
    ``active`` is set, so the benchmark's own correctness checks, which
    call the same library functions, leave no spans.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.step: list[int] = []
        self.tag: list[object] = []
        self.error: list[type | None] = []
        self.active = False
        self.step_id = -1
        self._stack = [-1]

    def __len__(self):
        return len(self.start)

    def _wrap(self, fn, span_name):
        nid = self._ids.setdefault(span_name, len(self._ids))
        if nid == len(self.names):
            self.names.append(span_name)
        tag_fn = TAGS.get(span_name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            i = len(rec.start)
            rec.name.append(nid)
            rec.parent.append(rec._stack[-1])
            rec.step.append(rec.step_id)
            rec.tag.append(tag_fn(args, kwargs) if tag_fn else None)
            rec.error.append(None)
            rec.end.append(0.0)
            rec._stack.append(i)
            rec.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                rec.error[i] = type(exc)
                raise
            finally:
                rec.end[i] = perf_counter()
                rec._stack.pop()

        return traced

    def installed(self):
        """Replace every target attribute by its traced wrapper; restore on exit."""
        return patched(TARGETS, self._wrap)

    def next_step(self):
        self.step_id += 1

    @contextlib.contextmanager
    def recording(self):
        """Context for the timed part of one step: spans are recorded inside."""
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def dump(self, path):
        """Write the spans as JSON columns."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "name": self.name,
                "start": self.start,
                "end": self.end,
                "parent": self.parent,
                "step": self.step,
                "tag": self.tag,
                "error": [None if e is None else e.__name__ for e in self.error],
            }, fh)


def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  With ten samples or
    fewer no percentile qualifies and the maximum is returned, labelled
    as the 100th percentile.
    """
    s = sorted(samples)
    n = len(s)
    if n == 0:
        return 0.0, 100.0, 0
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(rec: SpanRecorder, steps: int, typed_error) -> tuple[dict, dict]:
    """Per-layer figures of the traced phase.

    Counts are per step and must be the same for every step; the second
    return value lists, for each count, whether it repeated exactly.
    ``typed_error`` is the package's base exception class.
    """
    n = len(rec)
    dur = [rec.end[i] - rec.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            child[p] += dur[i]
    self_time = [dur[i] - child[i] for i in range(n)]
    names = [rec.names[k] for k in rec.name]

    def spans(prefix):
        return [i for i in range(n) if names[i].startswith(prefix)]

    repeat = {}

    def count(key, indices, weight=lambda i: 1):
        counts = [0] * steps
        for i in indices:
            counts[rec.step[i]] += weight(i)
        repeat[key] = len(set(counts)) == 1
        return counts[0]

    extrap = spans("spectral.extrapolated_correlator")
    reduction = spans("spectral.regulated_integrand_reduction")
    spectral = spans("spectral.")
    lattice_calls = spans("lattice.lattice_correlator")
    study = spans("lattice.convergence_study")
    corr = spans("correlator.")
    scat = spans("scattering.")
    verify = spans("verify.")

    m = {}
    m["spectral.extrapolate_s_p50"] = _median([dur[i] for i in extrap])
    m["spectral.extrapolate_s_max"] = max((dur[i] for i in extrap), default=0.0)
    m["spectral.extrapolate_calls"] = count("spectral.extrapolate_calls", extrap)
    m["spectral.reduction_s"] = sum(dur[i] for i in reduction) / steps
    m["spectral.reduction_calls"] = count("spectral.reduction_calls", reduction)
    m["spectral.convergence_errors"] = sum(
        1 for i in spectral
        if rec.error[i] is not None and rec.error[i].__name__ == "ConvergenceError")
    for N in (64, 128, 256, 512):
        m[f"lattice.mode_sum_s.N{N}"] = _median(
            [dur[i] for i in lattice_calls if rec.tag[i] == N])
    modes = lambda i: rec.tag[i] ** 3 - 1  # noqa: E731
    m["lattice.modes"] = count("lattice.modes", lattice_calls, modes)
    busy = sum(dur[i] for i in lattice_calls)
    m["lattice.modes_per_s"] = (sum(modes(i) for i in lattice_calls) / busy) if busy else 0.0
    m["lattice.study_self_s"] = sum(self_time[i] for i in study) / steps
    corr_us = [1e6 * dur[i] for i in corr]
    m["correlator.call_us_p50"] = _median(corr_us)
    m["correlator.call_us_tail"], corr_pct, _ = tail(corr_us)
    m["correlator.calls"] = count("correlator.calls", corr)
    m["correlator.typed_errors"] = count(
        "correlator.typed_errors",
        [i for i in corr if rec.error[i] is not None and issubclass(rec.error[i], typed_error)])
    for key, fn in (("chain", "zp_cross_section_chain"), ("exact", "zp_cross_section_exact"),
                    ("ratio", "ratio_zp_thermal")):
        m[f"scattering.{key}_us_p50"] = _median(
            [1e6 * dur[i] for i in spans("scattering." + fn)])
    m["scattering.calls"] = count("scattering.calls", scat)
    for suite in ("chain", "spectral", "lattice"):
        m[f"verify.{suite}_s"] = sum(dur[i] for i in spans("verify.verify_" + suite)) / steps
    m["verify.self_s"] = sum(self_time[i] for i in verify) / steps
    m["trace.self_sum_s"] = sum(self_time) / steps
    notes = {"repeat": repeat, "correlator.call_us_tail_percentile": corr_pct,
             "correlator.call_samples": len(corr_us), "spans": n}
    return m, notes
