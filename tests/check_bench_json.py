#!/usr/bin/env python3
"""Checks that every BENCH_*.json reference report at the repo root parses.

A google-benchmark run that is cut off, or whose filter matched nothing,
leaves a truncated report behind; this catches one before it is committed.

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
                json.load(f)
        except (OSError, ValueError) as e:
            print(f"{path.name}: {e}")
            bad += 1
        else:
            print(f"{path.name}: ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
