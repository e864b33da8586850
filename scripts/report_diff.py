#!/usr/bin/env python3
"""Print how two report sets differ, field by field.

    python3 scripts/report_diff.py OLD.jsonl NEW.jsonl

Both files are outputs of ``scripts/report_set.py``, compared line by line.
For each line that differs, the line number and the command's argv are
printed, then every changed field of the line (argv, exit code, stderr and
report) as ``path: old -> new``, with the values in JSON.  A path joins
object keys and list indices with dots; a field or line that one file
lacks reads ``absent``.  Exits 0 when the files are identical and 1 when
they differ, also when the reader of its output stops early.

``close`` is the looser rule of the tier-1 report-set test: a float may
move by 1e-9 relative plus 1e-13 absolute, every other field must match.
"""

import argparse
import itertools
import json
import operator
import os
import sys


def leaves(value, path=""):
    """{path: value} of every leaf of a parsed JSON value; an empty object or
    list is a leaf."""
    if isinstance(value, dict) and value:
        items = value.items()
    elif isinstance(value, list) and value:
        items = enumerate(value)
    else:
        return {path: value}
    out = {}
    for key, item in items:
        out.update(leaves(item, f"{path}.{key}" if path else str(key)))
    return out


_ABSENT = object()


def _show(value):
    return "absent" if value is _ABSENT else json.dumps(value)


def close(x, y):
    """Whether a new field value ``y`` may stand for the old ``x``: floats
    within 1e-9 * |x| + 1e-13, anything else (flags, strings, nulls, absent
    fields) equal and of the same type.  Every report number is a float, so
    an integer count cannot move by one below 1e8."""
    if type(x) is float and type(y) is float:
        return abs(x - y) <= 1e-9 * abs(x) + 1e-13
    return type(x) is type(y) and x == y


def diff_lines(old, new, same=operator.eq):
    """The printed lines for two report sets, given as lists of JSON lines:
    every field for which ``same(old value, new value)`` is false."""
    out = []
    for number, (a, b) in enumerate(itertools.zip_longest(old, new), 1):
        if a == b:
            continue
        a, b = (leaves(json.loads(line)) if line is not None else {} for line in (a, b))
        fields = []
        for path in [*a, *(p for p in b if p not in a)]:
            x, y = a.get(path, _ABSENT), b.get(path, _ABSENT)
            if not same(x, y):
                fields.append(f"  {path}: {_show(x)} -> {_show(y)}")
        if fields:
            argv = [v for p, v in (b or a).items() if p.startswith("argv.")]
            out += [f"line {number}: {' '.join(argv)}", *fields]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="report set before the change")
    parser.add_argument("new", help="report set after the change")
    args = parser.parse_args(argv)
    sets = []
    for path in (args.old, args.new):
        with open(path, encoding="utf-8") as fh:
            sets.append(fh.read().splitlines())
    lines = diff_lines(*sets)
    try:
        print("\n".join(lines) if lines else "identical", flush=True)
    except BrokenPipeError:  # a reader that stopped early, such as ``| head``
        # stdout is flushed again at exit: let that write go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
