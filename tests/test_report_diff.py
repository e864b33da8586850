"""The report-diff script on two hand-written report-set lines."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_diff.py"
sys.path.insert(0, str(SCRIPT.parent))
import report_diff  # noqa: E402

OLD = {"argv": ["verify-theorem", "--m", "2", "--seed", "1"], "exit": 0.0, "stderr": "",
       "report": {"pass": True, "rank_gap": {"smallest_kept": 0.125, "largest_dropped": 1e-17},
                  "derived_residuals": {"3.4": 2e-16, "3.8": None}, "points": [1.0, 2.0]}}


def _write(path, *docs):
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    return str(path)


def test_identical_sets_exit_0(tmp_path, capsys):
    old = _write(tmp_path / "old.jsonl", OLD, OLD)
    assert report_diff.main([old, _write(tmp_path / "new.jsonl", OLD, OLD)]) == 0
    assert capsys.readouterr().out == "identical\n"


def test_each_changed_field_is_printed_with_its_path(tmp_path, capsys):
    report = {**OLD["report"], "rank_gap": {"smallest_kept": 0.25, "largest_dropped": 1e-17},
              "derived_residuals": {"3.4": 2e-16}, "points": [1.0, 3.0], "m": 2.0}
    new = {**OLD, "exit": 5.0, "report": report}
    old = _write(tmp_path / "old.jsonl", OLD, OLD)
    assert report_diff.main([old, _write(tmp_path / "new.jsonl", OLD, new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "line 2: verify-theorem --m 2 --seed 1",
        "  exit: 0.0 -> 5.0",
        "  report.rank_gap.smallest_kept: 0.125 -> 0.25",
        "  report.derived_residuals.3.8: null -> absent",
        "  report.points.1: 2.0 -> 3.0",
        "  report.m: absent -> 2.0"]


def test_a_line_only_one_set_has_is_printed_whole(tmp_path):
    lines = report_diff.diff_lines([json.dumps(OLD)], [])
    assert lines[0] == "line 1: verify-theorem --m 2 --seed 1"
    assert "  report.pass: true -> absent" in lines and len(lines) == 1 + 14  # 14 fields


def test_a_closed_pipe_ends_the_script_quietly(tmp_path):
    # as under ``report_diff.py OLD NEW | head``: the reader is gone before the
    # first write, and the output (about 180 KB) is more than a pipe holds
    new = {**OLD, "exit": 5.0}
    old = _write(tmp_path / "old.jsonl", *[OLD] * 3000)
    proc = subprocess.Popen([sys.executable, str(SCRIPT), old,
                             _write(tmp_path / "new.jsonl", *[new] * 3000)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait(timeout=60) == 1


def test_close_lets_floats_move_by_roundoff_alone():
    assert report_diff.close(1.0, 1.0 + 5e-10) and report_diff.close(0.0, 1e-13)
    assert not report_diff.close(1.0, 1.0 + 1e-6) and not report_diff.close(0.0, 1e-12)
    assert not report_diff.close(True, 1.0) and not report_diff.close(None, 0.0)
    assert not report_diff.close("a", "b") and report_diff.close(None, None)


def test_diff_lines_with_close_prints_only_fields_past_the_tolerance():
    moved = {**OLD, "report": {**OLD["report"], "points": [1.0 + 1e-12, 2.5]}}
    lines = report_diff.diff_lines([json.dumps(OLD)] * 2, [json.dumps(moved), json.dumps(OLD)],
                                   report_diff.close)
    assert lines == ["line 1: verify-theorem --m 2 --seed 1", "  report.points.1: 2.0 -> 2.5"]
    roundoff = {**OLD, "report": {**OLD["report"], "points": [1.0 + 1e-12, 2.0]}}
    assert report_diff.diff_lines([json.dumps(OLD)], [json.dumps(roundoff)],
                                  report_diff.close) == []
