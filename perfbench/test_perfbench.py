"""Tests of the benchmark itself: negative controls and the output contract.

    python3 -m pytest perfbench -q

Not part of the package's test suite (``testpaths`` is ``tests``).
The tiny-size runs execute every workload once per mode, about two
minutes in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = list(workloads.WORKLOADS)


def _run(workload, trace, cwd=ROOT, seed=1):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def tiny_results():
    """Every workload at the smallest size (one step), in both modes."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_gated_workloads_are_runnable():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_closed_form_check_accepts_the_library(tmp_path):
    batch = workloads.ClosedFormBatch(7, str(tmp_path))
    assert workloads.check_batch(batch.run_batch(), batch.expected) == 0


def test_closed_form_check_rejects_the_variant_denominator(tmp_path):
    """Negative control: the rejected closed form must fail the comparison."""
    batch = workloads.ClosedFormBatch(7, str(tmp_path))
    results = batch.run_batch()
    variant = workloads.verify.rejected_variant_correlator
    swapped = 0
    for i, (kind, args) in enumerate(batch.calls):
        if kind == "correlator" and not isinstance(batch.expected[i], type):
            medium, sep = args
            results[i] = variant(medium, sep.r, sep.dt)
            swapped += 1
    failed = workloads.check_batch(results, batch.expected)
    assert swapped > 0 and failed == swapped


def test_closed_form_check_requires_the_typed_errors(tmp_path):
    batch = workloads.ClosedFormBatch(7, str(tmp_path))
    results = batch.run_batch()
    typed = [i for i, e in enumerate(batch.expected) if isinstance(e, type)]
    assert typed
    results[typed[0]] = 0.0
    assert workloads.check_batch(results, batch.expected) == 1


def test_lattice_check_rejects_a_non_monotone_ladder():
    study = SimpleNamespace(rows=((64, 0.98), (128, 0.18), (256, 0.0027), (512, 0.003)),
                            L=16 * 16e-9, r=16e-9, monotone=False)
    assert not workloads.LatticeLadder.check(study)


def test_cli_check_rejects_a_wrong_value(tmp_path):
    cli = workloads.CliQueries(3, str(tmp_path))
    query = next(q for q in cli.cycles[0] if q.kind == "point")
    code, stdout, stderr, _ = cli.run_inprocess(query)
    assert cli.check(query, code, stdout, stderr)
    records = json.loads(stdout)
    records[0]["value"] = records[0]["value"] * (1.0 + 1e-15)
    assert not cli.check(query, code, json.dumps(records), stderr)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_named_metric_is_emitted_with_its_unit(tiny_results, workload, trace):
    result = tiny_results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["verify-all", "lattice-ladder"])
def test_layer_self_times_add_up_to_the_traced_wall_time(tiny_results, workload):
    m = {k: v["value"] for k, v in tiny_results[workload, 1]["metrics"].items()}
    assert abs(m["trace.wall_s"] - m["trace.self_sum_s"]) <= abs(m["trace.overhead_s"]) + 1e-3


def test_computed_counts_repeat_between_runs(tiny_results):
    first = tiny_results["verify-all", 1]["metrics"]
    proc = _run("verify-all", 1)
    assert proc.returncode == 0, proc.stderr
    second = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    for key in ("lattice.modes", "spectral.extrapolate_calls", "correlator.calls"):
        assert first[key]["value"] == second[key]["value"] > 0
    assert tiny_results["lattice-ladder", 1]["metrics"]["lattice.modes"]["value"] == \
        sum(n**3 - 1 for n in workloads.LatticeLadder.NS)


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark, it exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("closed-form-batch", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
