#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, as the driver takes it.

Runs the built benchmark ten times per workload, each time with another
seed, and prints for each metric the distance between the first and third
quartile of its ten values as a share of their median, beside the
metric's bound. A spread above a third of the bound is marked.

    python3 benchmark/tools/spread.py [--first-seed N] [--runs N] [WORKLOAD ...]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser()
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    over = 0
    for workload in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"] or result["failed"]:
                over += 1
                print(f"{workload} seed {seed}: exit {done.returncode}, failed {result['failed']}")
                print("\n".join(l for l in done.stdout.splitlines() if l.startswith("#")))
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            spread = (q3 - q1) / median
            mark = "" if spread <= m["bound"] / 3 else "  <-- above a third of the bound"
            over += bool(mark)
            print(f"{workload:14} {m['name']:24} median {median:12.5g} {m['unit']:4} "
                  f"spread {spread:7.4f} bound {m['bound']}{mark}", flush=True)
            print(" " * 15 + " ".join(f"{x:.5g}" for x in v), flush=True)
    sys.exit(1 if over else 0)


if __name__ == "__main__":
    main()
