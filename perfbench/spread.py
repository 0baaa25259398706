#!/usr/bin/env python3
"""Run one workload N times and report each metric's run-to-run spread.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload read-hot --runs 10

Each run uses a different seed (seed-start, seed-start+1, ...). For every
metric of the last-line JSON result, and every other metric the readable
report prints (marked "report"), it prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the relative
spread (q3 - q1) / median, next to the metric's bound from
BENCHMARK.json when it has one. The run command is BENCHMARK.json's.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys


# A metric line of the readable report: "  name  value unit (n=...)".
REPORT_LINE = re.compile(r"^  ([a-z][\w.]*)\s+(-?[\d.]+(?:e[-+]?\d+)?) \S+")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-start", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    seconds = args.seconds or manifest["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in manifest["end_to_end"]}

    values = {}
    report_only = set()
    failures = 0
    for i in range(args.runs):
        seed = args.seed_start + i
        cmd = manifest["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            failures += 1
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}", file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        shown = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for line in lines[:-1]:
            match = REPORT_LINE.match(line)
            if match and match.group(1) not in result["metrics"]:
                report_only.add(match.group(1))
                values.setdefault(match.group(1), []).append(float(match.group(2)))

    print(f"\nworkload={args.workload} runs={args.runs} failed_runs={failures} "
          f"seconds={seconds} trace={args.trace}")
    print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, xs in values.items():
        med = statistics.median(xs)
        if len(xs) >= 2:
            q1, _, q3 = statistics.quantiles(xs, n=4)
        else:
            q1 = q3 = xs[0]
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        bound_s = f"{bound:6.2f}" if bound is not None else ""
        if name in report_only:
            bound_s = "report"
        print(f"{name:44s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound_s}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
