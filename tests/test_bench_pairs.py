"""The pair script's schedule and verdicts, with a stubbed benchmark runner."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
import bench_pairs  # noqa: E402


def _runner(values, calls):
    """A runner that records its calls and returns, for each root, the next of
    its items_per_s values; cmd_s.p50 is its inverse."""
    streams = {root: iter(v) for root, v in values.items()}

    def run(root, workload, seed, seconds):
        calls.append((root, workload, seed, seconds))
        rate = next(streams[root])
        return {"items_per_s": rate, "cmd_s.p50": 1.0 / rate, "ops_ok_frac": 1.0}
    return run


def test_pairs_alternate_the_first_side_and_share_a_seed():
    calls = []
    runner = _runner({"old": [1, 2, 3, 4], "new": [5, 6, 7, 8]}, calls)
    samples = bench_pairs.pairs(("old", "new"), "chart-cp3", 4, 801, 20, runner)
    assert [(root, seed) for root, _, seed, _ in calls] == [
        ("old", 801), ("new", 801), ("new", 802), ("old", 802),
        ("old", 803), ("new", 803), ("new", 804), ("old", 804)]
    assert {(w, s) for _, w, _, s in calls} == {("chart-cp3", 20)}
    assert [(p["items_per_s"], c["items_per_s"]) for p, c in samples] == [
        (1, 5), (2, 6), (3, 7), (4, 8)]


def test_verdict_needs_nine_wins_in_ten_and_a_gap_past_the_parent_quartiles():
    parent = [100.0 + i for i in range(10)]  # quartiles 101.75 and 107.25
    assert bench_pairs.verdict(parent, [p + 10 for p in parent], "higher") == (10, "gain")
    assert bench_pairs.verdict(parent, [p + 10 for p in parent], "lower") == (0, "worse")
    # wins every pair, but by less than the parent's interquartile range
    assert bench_pairs.verdict(parent, [p + 1 for p in parent], "higher") == (10, "level")
    # a wide gap, but only 8 wins in 10
    change = [p + 10 for p in parent[:8]] + [p - 1 for p in parent[8:]]
    assert bench_pairs.verdict(parent, change, "higher") == (8, "level")
    # 9 wins and one tie still pass
    change = [p + 10 for p in parent[:9]] + parent[9:]
    assert bench_pairs.verdict(parent, change, "higher") == (9, "gain")


def test_main_prints_one_verdict_per_reported_metric(capsys):
    calls = []
    old = [100.0 + i for i in range(10)]
    runner = _runner({"P": old, "C": [v * 1.1 for v in old]}, calls)
    assert bench_pairs.main(["P", "C", "--workload", "chart-cp3", "--pairs", "10"],
                            runner=runner) == 0
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert {s for *_, s in calls} == {seconds}  # every run takes the benchmark's length
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"chart-cp3: 10 pairs, seeds 801-810, {seconds:g} s per run"
    rows = {line.split()[0]: line.split() for line in lines[2:]}
    # BENCHMARK.json's order; metrics the runs lack are left out
    assert list(rows) == ["cmd_s.p50", "items_per_s", "ops_ok_frac"]
    assert rows["items_per_s"][-3:] == ["+10.0%", "10/10", "gain"]
    assert rows["cmd_s.p50"][-3:] == ["-9.1%", "10/10", "gain"]
    assert rows["ops_ok_frac"][-3:] == ["+0.0%", "0/10", "level"]
    assert len(calls) == 20
