"""The report-set script's command set and path labels, and the committed
report set against a fresh run of it."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import report_diff  # noqa: E402
import report_set  # noqa: E402
import workloads  # noqa: E402  (put on the path by report_set)


def test_command_set_is_fixed(tmp_path):
    argvs = [argv for argv, _ in report_set.command_set(str(tmp_path))]
    per_workload = sum(1 + 2 * w.commands for w in workloads.WORKLOADS.values())
    assert len(argvs) == per_workload + 6 + 17
    assert argvs[-23:-17] == [["models", "emit", name] for name in report_set.MODELS]
    assert argvs[-17] == ["verify-theorem", "--m", "2", "--seed", "1"]
    assert argvs[-2] == ["verify-theorem", "--m", "5", "--seed", "11"]
    assert argvs[-1] == ["verify-theorem", "--m", "6", "--seed", "1"]


def test_record_replaces_paths_by_labels(tmp_path):
    argv, labels = report_set.command_set(str(tmp_path))[0]
    line = report_set.record(argv, labels)
    assert str(tmp_path) not in line
    doc = json.loads(line)
    assert doc["argv"] == ["analyze", "<chart>", "--seed", "0"]
    assert doc["exit"] == 0 and doc["stderr"] == ""
    assert doc["report"]["command"] == "analyze"


DATA = Path(__file__).resolve().parent / "data" / "report_set.jsonl"


def test_fresh_report_set_matches_the_data_file(tmp_path):
    # the manifold files go to tmp_path; every field of every line must pass
    # report_diff.close, so a change of verdict, count or message fails here
    old = DATA.read_text(encoding="utf-8").splitlines()
    new = [report_set.record(argv, labels)
           for argv, labels in report_set.command_set(str(tmp_path))]
    changed = report_diff.diff_lines(old, new, report_diff.close)
    assert not changed, "report set changed:\n" + "\n".join(changed)
