#!/usr/bin/env python3
"""Checks that every BENCH_*.json reference report at the repo root parses
and records the CPU count it ran on.

A google-benchmark run that is cut off, or whose filter matched nothing,
leaves a truncated report behind; this catches one before it is committed.
A number without the host's CPU count cannot be compared with another, so a
report must carry `num_cpus`, at its top level (hand-rolled reports) or in
its `context` block (google-benchmark reports).

Usage: check_bench_json.py <repo root>
"""
import json
import pathlib
import sys


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    reports = sorted(root.glob("BENCH_*.json"))
    if not reports:
        print(f"no BENCH_*.json under {root}")
        return 1
    bad = 0
    for path in reports:
        try:
            with path.open() as f:
                report = json.load(f)
        except (OSError, ValueError) as e:
            print(f"{path.name}: {e}")
            bad += 1
            continue
        context = report.get("context", {}) if isinstance(report, dict) else {}
        if not isinstance(report, dict) or (
                "num_cpus" not in report and "num_cpus" not in context):
            print(f"{path.name}: no num_cpus (top level or context)")
            bad += 1
        else:
            print(f"{path.name}: ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
