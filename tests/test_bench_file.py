"""The BENCH file script's comparison logic (no benchmark is run here)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import bench_file  # noqa: E402


def _doc(setup_s, wall_s):
    return {"workloads": {"chart-cp3": {"median": {"setup_s": setup_s}}},
            "one_shot": {"models list": {"wall_s": wall_s, "samples_s": [wall_s]}}}


def test_previous_is_the_newest_lower_number(tmp_path):
    assert bench_file.previous(tmp_path / "BENCH_11.json") is None
    for name in ("BENCH_3.json", "BENCH_10.json", "BENCH_12.json", "BENCH_x.json"):
        (tmp_path / name).write_text("{}")
    assert bench_file.previous(tmp_path / "BENCH_11.json") == str(tmp_path / "BENCH_10.json")


def test_diff_lines_compare_shared_metrics():
    lines = bench_file.diff_lines(_doc(0.6, 0.64), _doc(0.3, 0.32))
    assert lines == ["chart-cp3 setup_s: 0.6 -> 0.3 (-50.0%)",
                     "models list wall_s: 0.64 -> 0.32 (-50.0%)"]


def test_every_one_shot_row_is_a_median_of_fresh_processes(monkeypatch):
    calls = []

    def fake_process(*args):
        calls.append(args)
        return 0.1 * len(calls), 50.0 + len(calls)
    monkeypatch.setattr(bench_file, "cli_process", fake_process)
    rows = bench_file.one_shot()
    runs = bench_file.ONE_SHOT_RUNS
    assert list(rows) == ["models list", "analyze fubini_study m=2"] + [
        f"verify-theorem --m {m}" for m in bench_file.CERTIFICATE_M]
    assert len(calls) == 1 + runs * len(rows)  # the models emit that writes the CP^2 file
    for row in rows.values():
        assert len(row["samples_s"]) == len(row["samples_rss_mb"]) == runs
        assert row["wall_s"] == sorted(row["samples_s"])[runs // 2]
        assert row["peak_rss_mb"] == sorted(row["samples_rss_mb"])[runs // 2]
