#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end metric's
median and quartile spread (Q3 - Q1 as a share of the median), next to the
bound BENCHMARK.json fixes for it.

    python3 perfbench/spread.py --workload infer_offline --runs 10 [--first-seed 1]

Run from the repository root. The command and run length come from
BENCHMARK.json; each run uses the next seed.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: attempted={result['attempted']}, failed={result['failed']}, "
              + ", ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)

    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "ok" if spread < bounds[name] / 3 else "WIDE"
        print(f"{args.workload} {name}: median {med:.6g}, spread {spread:.4f} "
              f"(bound {bounds[name]}, third {bounds[name] / 3:.4f}) {flag}")


if __name__ == "__main__":
    main()
