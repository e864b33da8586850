"""The BENCH file script's comparison logic (no benchmark is run here)."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import bench_file  # noqa: E402


def _doc(setup_s, wall_s, cpu_s=(0.3, 0.4)):
    """A BENCH document with the given samples; its medians are the middle ones."""
    return {"workloads": {"chart-cp3": {
                "runs": [{"metrics": {"setup_s": v}} for v in setup_s],
                "median": {"setup_s": sorted(setup_s)[len(setup_s) // 2]}}},
            "one_shot": {"models list": {"wall_s": wall_s, "samples_s": [wall_s],
                                         "cpu_s": cpu_s[0], "samples_cpu_s": list(cpu_s)}}}


def test_previous_is_the_newest_lower_number(tmp_path):
    assert bench_file.previous(tmp_path / "BENCH_11.json") is None
    for name in ("BENCH_3.json", "BENCH_10.json", "BENCH_12.json", "BENCH_x.json"):
        (tmp_path / name).write_text("{}")
    assert bench_file.previous(tmp_path / "BENCH_11.json") == str(tmp_path / "BENCH_10.json")


def test_diff_lines_compare_shared_metrics():
    lines = bench_file.diff_lines(_doc([0.6], 0.64), _doc([0.3], 0.32))
    assert lines == ["chart-cp3 setup_s: 0.6 -> 0.3 (-50.0%) changed",
                     "models list wall_s: 0.64 -> 0.32 (-50.0%) changed",
                     "models list cpu_s: 0.3 -> 0.3 (+0.0%) overlap"]


def test_diff_lines_call_a_row_changed_only_on_disjoint_sample_ranges():
    old = _doc([0.5, 0.6, 0.9], 1.0, cpu_s=(2.0, 2.5))
    new = _doc([0.3, 0.4, 0.55], 1.0, cpu_s=(1.0, 1.9))
    assert bench_file.diff_lines(old, new) == [
        "chart-cp3 setup_s: 0.6 -> 0.4 (-33.3%) overlap",
        "models list wall_s: 1 -> 1 (+0.0%) overlap",
        "models list cpu_s: 2 -> 1 (-50.0%) changed"]
    # a file written before CPU time was recorded compares the other metrics
    del old["one_shot"]["models list"]["cpu_s"], old["one_shot"]["models list"]["samples_cpu_s"]
    assert len(bench_file.diff_lines(old, new)) == 2


def test_diff_lines_open_with_the_host_kernel_when_both_files_record_it():
    old, new = _doc([0.6], 0.64), _doc([0.3], 0.32)
    old["environment"], new["environment"] = {"kernel_s": 0.0125}, {"kernel_s": 0.015}
    lines = bench_file.diff_lines(old, new)
    assert lines[0] == "host kernel_s: 0.0125 -> 0.015 (+20.0%)"
    assert lines[1:] == bench_file.diff_lines(_doc([0.6], 0.64), _doc([0.3], 0.32))
    # a file written before kernel_s was recorded gives no host line
    del old["environment"]["kernel_s"]
    assert not bench_file.diff_lines(old, new)[0].startswith("host")
    assert not bench_file.diff_lines(new, {**old, "environment": {}})[0].startswith("host")


def test_kernel_s_times_the_calibration_kernel():
    assert 0 < bench_file.kernel_s() < 1


def test_every_one_shot_row_is_a_median_of_fresh_processes(monkeypatch):
    calls = []

    def fake_process(*args):
        calls.append(args)
        return 0.1 * len(calls), 50.0 + len(calls), 0.05 * len(calls)
    monkeypatch.setattr(bench_file, "cli_process", fake_process)
    rows = bench_file.one_shot()
    runs = bench_file.ONE_SHOT_RUNS
    assert list(rows) == ["models list", "analyze fubini_study m=2",
                          "classify s6_nearly_kahler 4 points"] + [
        f"verify-theorem --m {m}" for m in bench_file.CERTIFICATE_M]
    assert len(calls) == 2 + runs * len(rows)  # the models emits that write the two files
    classify = [args for args in calls if args[0] == "classify"]
    assert len(classify) == runs and all(
        sum(a.startswith("--point=") for a in args) == 4 for args in classify)
    for row in rows.values():
        assert len(row["samples_s"]) == len(row["samples_rss_mb"]) == runs
        assert len(row["samples_cpu_s"]) == runs
        assert row["wall_s"] == sorted(row["samples_s"])[runs // 2]
        assert row["peak_rss_mb"] == sorted(row["samples_rss_mb"])[runs // 2]
        assert row["cpu_s"] == sorted(row["samples_cpu_s"])[runs // 2]


def test_cli_process_reports_the_child_cpu_time():
    wall, rss, cpu = bench_file.cli_process("models", "list")
    assert 0 < cpu <= wall and rss > 0


def test_one_shot_rows_run_before_the_environment_is_read(monkeypatch, tmp_path):
    # environment() loads numpy, and a forked child's peak RSS counts the
    # parent's RSS at fork time
    order = []
    for stage in ("one_shot", "environment", "bench_runs"):
        monkeypatch.setattr(bench_file, stage,
                            lambda *args, stage=stage: order.append(stage) or {})
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    out = tmp_path / "BENCH_1.json"
    assert bench_file.main([str(out)]) == 0
    assert order == ["one_shot", "environment", "bench_runs"]
    assert list(json.loads(out.read_text())) == ["environment", "run_seconds", "workloads",
                                                  "one_shot"]
