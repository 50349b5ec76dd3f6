#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 hostbench/spread.py --workload fuzz_diff --seeds 1-10 [--trace 0]

Run from the repository root. For every metric the script prints the median
of the runs and the distance between the first and third quartile as a
share of that median (Python's statistics.quantiles, n=4), next to the
metric's bound from BENCHMARK.json. Exits non-zero if a run fails or reports
correct=false.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="a-b or a,b,c")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int, help="defaults to run_seconds")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    units = {}
    for seed in seed_list(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: correct=false\n{out.stdout}")
        row = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            row.append(f"{name}={m['value']:.4g}")
        print(f"seed {seed}: attempted={result['attempted']} " + " ".join(row), flush=True)

    print(f"{'metric':<28} {'median':>14} {'unit':<9} {'spread':>8} {'bound':>6}")
    for name, v in values.items():
        med = statistics.median(v)
        if len(v) >= 2:
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = f"{(q3 - q1) / med:.4f}" if med else "n/a"
        else:
            spread = "n/a"
        bound = bounds.get(name)
        print(f"{name:<28} {med:>14.6g} {units[name]:<9} {spread:>8} {bound if bound else '':>6}")


if __name__ == "__main__":
    main()
