#!/usr/bin/env python3
"""Steadiness helper for the repository benchmark.

Runs every workload repeatedly through perfbench/run.py for run_seconds of
BENCHMARK.json, alternating the workload order from one round to the next,
with a new seed per round, and
prints each end-to-end metric's median and quartile spread (the distance
between the first and third quartile as a share of the median) next to the
metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 --out a.jsonl
    python3 perfbench/steady.py --runs 10 --out b.jsonl
    python3 perfbench/steady.py --compare a.jsonl b.jsonl

A metric passes when its spread is within its bound and,
with --compare, when the second set's median is no worse than the first's by
more than the bound. The target for a steady metric is a spread below a
third of its bound. The same spreads are printed for the figures before
host-speed scaling and for the informational per-update percentiles
(bound 25%), which is the check an unscaled benchmark would have faced.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def run_once(workload, seed, seconds):
    """One run: the JSON result, plus the raw (unscaled) figures and the
    informational figures perfbench prints before it."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    raw, info = {}, {}
    for line in lines[:-1]:
        f = line.split()
        if f[0] == "metric" and "(raw" in f[:-1]:
            raw[f[1]] = float(f[f.index("(raw") + 1].rstrip(")"))
        elif f[0] == "info" and len(f) >= 3:
            info[f[1]] = float(f[2])
    return {"result": json.loads(lines[-1]), "raw": raw, "info": info}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def load_records(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def by_workload(records, kind="result"):
    out = {}
    for r in records:
        if kind == "result":
            items = {n: m["value"] for n, m in r["result"]["metrics"].items()}
        else:
            items = r.get(kind, {})
        for name, v in items.items():
            out.setdefault(r["workload"], {}).setdefault(name, []).append(v)
    return out


def report_unscaled(records, metrics):
    """The same spreads for the figures before host-speed scaling and for the
    informational per-update percentiles: the check a benchmark without
    host-speed scaling and whole-cycle timing would face."""
    print("   -- raw figures (before host-speed scaling) and info figures")
    for kind in ("raw", "info"):
        for w, vals in sorted(by_workload(records, kind).items()):
            for name in sorted(vals):
                if len(vals[name]) < 2 or name == "rss_mb":
                    continue
                med, q1, q3, s = spread(vals[name])
                bound = metrics[name]["bound"] if name in metrics else 0.25
                verdict = "would pass" if s <= bound else "WOULD FAIL"
                print(f"   {kind:4s} {w:8s} {name:14s} median {med:14.4f}  spread"
                      f" {100 * s:5.1f}%  bound {100 * bound:4.0f}%  {verdict}")


def report(records, metrics, label):
    ok = True
    print(f"== {label}: {len(records)} runs")
    failed = sum(r["result"]["failed"] for r in records)
    incorrect = sum(not r["result"]["correct"] for r in records)
    print(f"   failed operations: {failed}, runs not correct: {incorrect}")
    ok &= failed == 0 and incorrect == 0
    for w, vals in sorted(by_workload(records).items()):
        for name in sorted(vals):
            if name not in metrics or len(vals[name]) < 2:
                continue
            med, q1, q3, s = spread(vals[name])
            bound = metrics[name]["bound"]
            verdict = "steady" if s < bound / 3 else ("ok" if s <= bound else "TOO NOISY")
            ok &= s <= bound
            print(f"   {w:8s} {name:14s} median {med:14.4f}  q1 {q1:14.4f}  q3 {q3:14.4f}"
                  f"  spread {100 * s:5.1f}%  bound {100 * bound:4.0f}%  {verdict}")
    report_unscaled(records, metrics)
    return ok


def compare(a, b, metrics):
    ok = True
    print("== median drift, second set against the first")
    va, vb = by_workload(a), by_workload(b)
    for w in sorted(va):
        for name in sorted(va[w]):
            if name not in metrics or name not in vb.get(w, {}):
                continue
            m1, m2 = statistics.median(va[w][name]), statistics.median(vb[w][name])
            worse = (m2 - m1) / m1 if metrics[name]["better"] == "lower" else (m1 - m2) / m1
            bound = metrics[name]["bound"]
            verdict = "ok" if worse <= bound else "DRIFTED"
            ok &= worse <= bound
            print(f"   {w:8s} {name:14s} {m1:14.4f} -> {m2:14.4f}  worse by {100 * worse:+6.1f}%"
                  f"  bound {100 * bound:4.0f}%  {verdict}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--out", default=None, help="append each run as a JSON line")
    ap.add_argument("--compare", nargs=2, default=None, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()

    spec, metrics = load_spec()

    if args.compare:
        a, b = load_records(args.compare[0]), load_records(args.compare[1])
        ok = report(a, metrics, args.compare[0]) & report(b, metrics, args.compare[1])
        ok &= compare(a, b, metrics)
        return 0 if ok else 1
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    records = []
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = args.seed0 + i
            rec = {"workload": w, "seed": seed, **run_once(w, seed, seconds)}
            records.append(rec)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(rec) + "\n")
            print(f"run {i + 1}/{args.runs} {w} seed {seed}: "
                  f"failed {rec['result']['failed']}", file=sys.stderr, flush=True)
    return 0 if report(records, metrics, "this set") else 1


if __name__ == "__main__":
    sys.exit(main())
