#!/usr/bin/env python3
"""Compares a Google Benchmark JSON output against a committed baseline.

Usage: scripts/bench_compare.py BASE NEW

Rows are matched by name; NEW may hold a subset of BASE's rows (a filtered
run), but every NEW row must exist in BASE. Every row field is compared
exactly except cpu_time, the host clock; the top-level "context" block
(date, host, load average) is ignored. The figure benches report virtual
time, so any other difference is a behaviour change.

Prints every difference and exits 1 when there is any, 0 otherwise.
"""

import json
import sys

IGNORED_FIELDS = {"cpu_time"}


def load_rows(path):
    with open(path) as f:
        rows = json.load(f)["benchmarks"]
    by_name = {}
    for row in rows:
        if row["name"] in by_name:
            raise SystemExit(f"{path}: duplicate row {row['name']!r}")
        by_name[row["name"]] = row
    return by_name


def compare(base, new):
    diffs = []
    for name, row in new.items():
        ref = base.get(name)
        if ref is None:
            diffs.append(f"{name}: not in the baseline")
            continue
        for field in sorted((ref.keys() | row.keys()) - IGNORED_FIELDS):
            if field not in row:
                diffs.append(f"{name}: {field} missing (baseline {ref[field]!r})")
            elif field not in ref:
                diffs.append(f"{name}: {field} not in the baseline "
                             f"(got {row[field]!r})")
            elif row[field] != ref[field]:
                diffs.append(f"{name}: {field} {ref[field]!r} -> {row[field]!r}")
    return diffs


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base, new = load_rows(argv[1]), load_rows(argv[2])
    diffs = compare(base, new)
    for d in diffs:
        print(d)
    if not new:
        print(f"{argv[2]}: no rows")
        return 1
    if diffs:
        print(f"{len(diffs)} difference(s) in {len(new)} row(s) "
              f"against {argv[1]}")
        return 1
    print(f"{len(new)} row(s) match {argv[1]} (cpu_time ignored)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
