"""The paired-run summary of ``tools/bench_pairs.py``, on synthetic numbers."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_a_clear_gain_is_shown_with_quartiles_ratio_and_wins():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]
    child = [7.0, 8.0, 9.0, 9.5, 10.0, 7.5, 8.5, 9.2, 9.7, 15.0]  # the last pair is lost
    s = bench_pairs.summarize(parent, child, "lower")
    assert s["parent"]["median"] == 12.25
    assert (s["parent"]["q1"], s["parent"]["q3"]) == (10.875, 13.625)
    assert s["parent"]["iqr"] == pytest.approx(2.75)
    assert s["child"]["median"] == 9.1
    assert s["ratio"] == pytest.approx(9.1 / 12.25)
    assert (s["pairs"], s["wins"], s["ties"]) == (10, 9, 0)
    assert s["gain_shown"]


def test_too_few_wins_or_a_gap_inside_the_spread_shows_no_gain():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]
    # nine wins of 0.1 each: the medians differ by less than the parent's IQR
    s = bench_pairs.summarize(parent, [p - 0.1 for p in parent[:9]] + [20.0], "lower")
    assert s["wins"] == 9 and not s["gain_shown"]
    # a large gap but only eight wins and a tie
    child = [1.0] * 8 + [parent[8], 99.0]
    s = bench_pairs.summarize(parent, child, "lower")
    assert (s["wins"], s["ties"]) == (8, 1) and not s["gain_shown"]


def test_higher_is_better_counts_wins_the_other_way():
    s = bench_pairs.summarize([1.0, 2.0, 3.0], [2.0, 3.0, 4.0], "higher")
    assert s["wins"] == 3 and s["ratio"] == 1.5
    assert bench_pairs.summarize([1.0, 2.0, 3.0], [2.0, 3.0, 4.0], "lower")["wins"] == 0


def test_one_pair_and_a_zero_parent_median():
    s = bench_pairs.summarize([0.0], [0.0], "lower")
    assert s["parent"]["iqr"] == 0.0 and s["ratio"] is None
    assert (s["wins"], s["ties"]) == (0, 1) and not s["gain_shown"]


def test_unpaired_or_undirected_input_is_refused():
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        bench_pairs.summarize([], [], "lower")
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0], [1.0], "faster")


def test_verify_all_subprocess_pairs_alternate_and_are_summarized():
    # stubbed wall times: the child's tree is 0.1 s faster in every pair
    calls = []

    def wall(tree):
        calls.append(tree)
        return {"parent": 1.0, "child": 0.9}[tree] + 0.001 * len(calls)  # a slow drift

    lines = []
    out = bench_pairs.wall_pairs({"parent": "parent", "child": "child"}, 10, wall,
                                 "verify all", lines.append)
    # the side that runs first alternates from pair to pair
    assert calls[:4] == ["parent", "child", "child", "parent"]
    assert len(calls) == 20 and len(lines) == 20
    assert lines[0] == "verify all pair 0 parent: wall_s = 1.001"
    s = out["wall_s"]
    assert s["better"] == "lower" and s["pairs"] == 10
    assert s["wins"] == 10 and s["gain_shown"]
    assert s["parent"]["values"][:2] == [pytest.approx(1.001), pytest.approx(1.004)]
    assert s["child"]["values"][:2] == [pytest.approx(0.902), pytest.approx(0.903)]


def test_tier1_pairs_run_the_tier1_command_on_each_trees_own_source(monkeypatch, tmp_path):
    # a stubbed timer: the Tier-1 command is recorded, not run
    runs = []

    def timed(cmd, tree, env=None):
        runs.append((cmd, tree, env["PYTHONPATH"]))
        return "1 passed\n", {"parent": 9.0, "child": 8.0}[tree.name]

    monkeypatch.setattr(bench_pairs, "_timed", timed)
    trees = {name: tmp_path / name for name in ("parent", "child")}
    lines = []
    out = bench_pairs.wall_pairs(trees, 2, bench_pairs._time_tier1, "tier1 pytest",
                                 lines.append)
    assert [tree.name for _, tree, _ in runs] == ["parent", "child", "child", "parent"]
    for cmd, tree, pythonpath in runs:
        assert cmd[1:] == ["-m", "pytest", "-q", "--continue-on-collection-errors"]
        assert pythonpath == str(tree / "src")
    assert lines[0] == "tier1 pytest pair 0 parent: wall_s = 9"
    s = out["wall_s"]
    assert s["parent"]["values"] == [9.0, 9.0] and s["child"]["values"] == [8.0, 8.0]
    assert s["wins"] == 2 and s["ratio"] == pytest.approx(8.0 / 9.0)
