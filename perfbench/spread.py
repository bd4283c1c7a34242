#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload and end-to-end metric this prints the median of the
runs and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of that median, next to the
metric's bound from BENCHMARK.json.  Run from the repository root:

    python3 perfbench/spread.py --seeds 10
    python3 perfbench/spread.py --workloads serve-int8 --seeds 5 --trace 1
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect\n{proc.stdout[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--verbose", action="store_true", help="print every run's value")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    for workload in args.workloads:
        runs = [run_once(bench["command"], workload, seed, args.seconds, args.trace)
                for seed in range(args.first_seed, args.first_seed + args.seeds)]
        print(f"## {workload}: {len(runs)} seeds from {args.first_seed}")
        for name in runs[0]:
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
            print(f"{name:28s} median {med:14.6g}  iqr/median {spread:8.4f}"
                  f"  bound {bound if bound is not None else '-'}{flag}")
            if args.verbose:
                print("    " + " ".join(f"{v:.6g}" for v in values))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
