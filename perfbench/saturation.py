#!/usr/bin/env python3
"""Find where a workload saturates the hierarchy on this machine.

Run from the root of a checkout:

    python3 perfbench/saturation.py --workload read-hot

Runs the workload untraced at its own offered rate and then at growing
multiples of it (--factors), one run each, and prints for every rate the
achieved rate, latency percentiles, host CPU per 1000 requests, the
generator's lateness and the machine's CPU steal. A rate is broken when
the achieved rate falls more than 3% short of the offered one, the p50
latency exceeds five times the p50 at the workload's own rate, or the
run is not valid (a failed request or a generator that fell behind its
schedule). The sweep stops at the first broken rate and reports it
with the last rate that held: saturation lies between the two, and the
workload's own rate sits at least the last held factor below it. The run command is BENCHMARK.json's, with --rate added.
"""

import argparse
import json
import os
import re
import subprocess
import sys

OFFERED = re.compile(r"open loop at ([\d.e+]+) req/s offered")
LATE = re.compile(r"^untraced phase generator: .* late_p99=([\d.]+) ms")
STEAL = re.compile(r"^untraced phase machine: ([\d.]+)% ")
REPORT_LINE = re.compile(r"^  ([a-z][\w.]*)\s+(-?[\d.]+(?:e[-+]?\d+)?) \S+")


def run(manifest, root, workload, seed, seconds, rate):
    cmd = manifest["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "0", "--rate", repr(rate),
    ]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        print(out.stderr[-2000:], file=sys.stderr)
        return None
    res = json.loads(lines[-1])
    row = {k: m["value"] for k, m in res["metrics"].items()}
    row["valid"] = out.returncode == 0 and res["correct"] and res["failed"] == 0
    for line in lines[:-1]:
        if m := OFFERED.search(line):
            row["offered"] = float(m.group(1))
        if m := LATE.match(line):
            row["late_p99_ms"] = float(m.group(1))
        if m := STEAL.match(line):
            row["steal"] = float(m.group(1)) / 100
        if m := REPORT_LINE.match(line):
            row.setdefault(m.group(1), float(m.group(2)))
    return row


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--factors", default="1,2,3,4,6,8")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        manifest = json.load(f)

    print(f"{'offered':>9s} {'achieved':>9s} {'p50_ms':>8s} {'p90_ms':>8s} {'p99_ms':>8s} "
          f"{'cpu/kreq':>9s} {'late_p99':>9s} {'steal':>6s}  verdict", flush=True)
    own = None
    base_p50 = None
    held = 1.0
    for factor in (float(x) for x in args.factors.split(",")):
        rate = 0.0 if own is None else factor * own
        row = run(manifest, root, args.workload, args.seed, args.seconds, rate)
        if row is None:
            print(f"{rate:9.0f} run produced no result: broken")
            verdict = "broken"
        else:
            if own is None:
                own, base_p50 = row["offered"], row["latency_p50_ms"]
            broken = (not row["valid"]
                      or row["achieved_rps"] < 0.97 * row["offered"]
                      or row["latency_p50_ms"] > 5 * base_p50)
            verdict = "broken" if broken else "ok"
            print(f"{row['offered']:9.0f} {row['achieved_rps']:9.1f} {row['latency_p50_ms']:8.3f} "
                  f"{row.get('latency_p90_ms', 0):8.3f} {row.get('latency_p99_ms', 0):8.3f} "
                  f"{row['cpu_ms_per_kreq']:9.1f} {row.get('late_p99_ms', 0):9.3f} "
                  f"{row.get('steal', 0):6.3f}  {verdict}", flush=True)
        if own is None:
            return 1
        if verdict == "broken":
            print(f"\nworkload={args.workload}: own rate {own:g} req/s; held at "
                  f"{held * own:g} req/s ({held:g}x), broke at {factor * own:g} req/s ({factor:g}x)")
            return 0
        held = factor
    print(f"\nworkload={args.workload}: own rate {own:g} req/s; held up to "
          f"{held * own:g} req/s ({held:g}x), the last rate tried")
    return 0


if __name__ == "__main__":
    sys.exit(main())
