"""Paired parent/child benchmark runs, summarized per metric.

    python3 tools/bench_pairs.py --parent <rev> --out BENCH_<n>.json \\
        [--seeds 7 11] [--workdir DIR]

The child is the commit checked out (``HEAD``): commit the change before
measuring it.  Both sides are extracted with ``git archive`` into fresh
directories under ``--workdir`` (the system temporary directory by
default), so each runs from its committed files alone and the
repository's own ``.git`` is left as it is.  For every workload that
``BENCHMARK.json`` lists, ten pairs run ``perfbench/run.py`` once in
each tree with the same seed and the benchmark's ``run_seconds``; the
side that runs first alternates from pair to pair, so that a machine
drifting between fast and slow periods weighs on both sides alike.
Seeds cycle through ``--seeds``.  Four more pairs of ``--trace 1`` runs
give the per-layer metrics, whose p50s move by tens of percent from run
to run.  Ten more alternating pairs time
``python -m fluctus.cli verify all`` as a subprocess in each tree, cold
start included, which the in-process workloads do not see, and ten
more the Tier-1 pytest command (``python -m pytest -q
--continue-on-collection-errors``) in each tree.

The output file names both commits and the git trees of their ``src``
and ``perfbench`` directories, holds each side's environment, every
run's metrics and, per workload and metric, each side's median and
quartiles, the child/parent ratio of the medians, the count of pairs
the child won, and the median and quartiles of the per-pair child/parent
ratios, which a machine that changes speed in mid-run does not mix.  Which direction is better comes from ``BENCHMARK.json``;
the ``verify all`` and Tier-1 wall times are lower-is-better.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10          # the fewest that can show a gain in nine of ten pairs
TRACED_PAIRS = 4    # two read an untouched layer's p50 37–56 % apart between the sides


def summarize(parent: list[float], child: list[float], better: str) -> dict:
    """Compare paired runs of one metric; ``parent[i]`` and ``child[i]`` are pair i.

    ``better`` is "lower" or "higher".  A pair is a win when the child's
    value is strictly better, a tie when equal.  ``gain_shown`` holds when
    the child won at least nine tenths of the pairs and the medians differ,
    in the child's favour, by more than the parent's interquartile range.
    ``pair_ratio`` summarizes the per-pair ratios child / parent (pairs
    with a parent value of 0 left out; None if that is every pair): each
    compares two runs made close together, so a change of machine phase
    between pairs, which widens both sides' quartiles, leaves it alone.
    """
    if len(parent) != len(child) or not parent:
        raise ValueError("need at least one pair, equally many runs on each side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, child))
    ties = sum(p == c for p, c in zip(parent, child))

    def side(values):
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        return {"median": statistics.median(values), "q1": q1, "q3": q3,
                "iqr": q3 - q1, "values": list(values)}

    p, c = side(parent), side(child)
    ratios = [cv / pv for pv, cv in zip(parent, child) if pv]
    gain = sign * (p["median"] - c["median"])
    return {
        "better": better,
        "parent": p,
        "child": c,
        "ratio": c["median"] / p["median"] if p["median"] else None,
        "pairs": len(parent),
        "wins": wins,
        "ties": ties,
        "gain_shown": wins >= 0.9 * len(parent) and gain > p["iqr"],
        "pair_ratio": side(ratios) if ratios else None,
    }


def _benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def _identify(rev: str) -> dict:
    """The commit of ``rev`` and the git trees of the code a run uses."""
    commit = _git("rev-parse", "--verify", rev + "^{commit}")
    return {"commit": commit,
            "src_tree": _git("rev-parse", commit + ":src"),
            "perfbench_tree": _git("rev-parse", commit + ":perfbench")}


def _extract(commit: str, dest: Path) -> Path:
    """Write the tree of ``commit``, from ``git archive``, into ``dest``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def _alternating(pairs: int):
    """(pair, side, first) in run order; the side that runs first alternates."""
    for i in range(pairs):
        first, second = ("parent", "child") if i % 2 == 0 else ("child", "parent")
        yield i, first, True
        yield i, second, False


def _timed(cmd: list[str], tree: Path, env: dict | None = None) -> tuple[str, float]:
    """Stdout and wall time of ``cmd`` in ``tree``; RuntimeError unless it exits 0 with output."""
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    wall = perf_counter() - t0
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return proc.stdout, wall


def _run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``tree``: its result line and environment."""
    stdout, wall = _timed([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], tree)
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next((json.loads(line[len("environment "):]) for line in lines
                if line.startswith("environment ")), None)
    return {"wall_s": wall, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "environment": env}


def run_pairs(trees: dict, workload: str, seeds: list[int], seconds: float,
              pairs: int, trace: int, log) -> list[dict]:
    """``pairs`` alternating parent/child pairs; returns one record per run."""
    runs = []
    for i, name, first in _alternating(pairs):
        seed = seeds[i % len(seeds)]
        run = _run(trees[name], workload, seed, seconds, trace)
        run.update(side=name, pair=i, first=first, seed=seed, trace=trace)
        runs.append(run)
        log(f"{workload} trace {trace} pair {i} {name}: " + ", ".join(
            f"{k} = {v:.6g}" for k, v in run["metrics"].items()
            if k in ("setup_s", "op_best_s", "peak_rss_mib")
            or k.startswith(("correlator.", "scattering."))))
    return runs


def _time_verify_all(tree: Path) -> float:
    """Wall time of one ``fluctus verify all`` subprocess on ``tree``'s source."""
    return _timed([sys.executable, "-m", "fluctus.cli", "verify", "all"], tree,
                  dict(os.environ, PYTHONPATH=str(tree / "src")))[1]


def _time_tier1(tree: Path) -> float:
    """Wall time of one Tier-1 pytest run in ``tree``, on its own source."""
    return _timed([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                  tree, dict(os.environ, PYTHONPATH=str(tree / "src")))[1]


def wall_pairs(trees: dict, pairs: int, timer, label: str, log) -> dict:
    """``pairs`` alternating parent/child wall times of ``timer(tree)``, summarized."""
    walls = {"parent": [], "child": []}
    for i, name, _ in _alternating(pairs):
        walls[name].append(timer(trees[name]))
        log(f"{label} pair {i} {name}: wall_s = {walls[name][-1]:.6g}")
    return {"wall_s": summarize(walls["parent"], walls["child"], "lower")}


def summarize_runs(runs: list[dict], directions: dict) -> dict:
    """Per metric, ``summarize`` over the runs' pairs."""
    by_side = {name: sorted((r for r in runs if r["side"] == name), key=lambda r: r["pair"])
               for name in ("parent", "child")}
    out = {}
    for metric in by_side["parent"][0]["metrics"]:
        out[metric] = summarize([r["metrics"][metric] for r in by_side["parent"]],
                                [r["metrics"][metric] for r in by_side["child"]],
                                directions[metric])
    out["failed"] = {name: sum(r["failed"] for r in side) for name, side in by_side.items()}
    out["correct"] = {name: all(r["correct"] for r in side) for name, side in by_side.items()}
    return out


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--out", required=True, help="output JSON file")
    p.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    p.add_argument("--workdir", default=None, help="where both trees are extracted")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    spec = _benchmark()
    sides = {"parent": _identify(args.parent), "child": _identify("HEAD")}
    directions = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    record = {**sides,
              "settings": {"pairs": PAIRS, "traced_pairs": TRACED_PAIRS,
                           "seconds": spec["run_seconds"], "seeds": args.seeds},
              "environment": {}, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-", dir=args.workdir) as tmp:
        trees = {name: _extract(side["commit"], Path(tmp) / name)
                 for name, side in sides.items()}
        log = partial(print, flush=True)
        record["verify_all_subprocess"] = wall_pairs(trees, PAIRS, _time_verify_all,
                                                     "verify all", log)
        record["tier1_pytest"] = wall_pairs(trees, PAIRS, _time_tier1, "tier1 pytest", log)
        for workload in (w["name"] for w in spec["workloads"]):
            entry = {}
            for trace, pairs in ((0, PAIRS), (1, TRACED_PAIRS)):
                runs = run_pairs(trees, workload, args.seeds, spec["run_seconds"], pairs,
                                 trace, log)
                for run in runs:
                    env = run.pop("environment")
                    record["environment"].setdefault(run["side"], env)
                key = "untraced" if trace == 0 else "traced"
                entry[key] = {"runs": runs, "summary": summarize_runs(runs, directions)}
            record["workloads"][workload] = entry
            with open(args.out, "w", encoding="utf-8") as fh:  # keep what is done so far
                json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
