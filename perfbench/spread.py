"""Repeat runs of the benchmark and print each metric's spread.

usage: python3 perfbench/spread.py [--workloads shipped study design]
                                   [--runs 10] [--first-seed 0] [--trace 0]

Runs ``run.py`` once per seed (first-seed, first-seed + 1, ...) on each
workload, for BENCHMARK.json's ``run_seconds``, and prints, per metric, the
median, the quartiles of ``statistics.quantiles(values, n=4)`` and the spread
(Q3 - Q1) / median next to the metric's bound.  A spread above a third of
the bound is marked; the share of failed operations must be the same in
every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    steady = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit code {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            print(f"{workload} seed {seed}: " + json.dumps(result), flush=True)
            shares.add((result["failed"] / result["attempted"], result["correct"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}: failed share / correct per run: {sorted(shares)}")
        if len(shares) != 1:
            steady = False
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                mark = "  <-- above a third of the bound"
                steady = False
            print(f"  {name:<34} median {med:12.5g}  Q1 {q1:12.5g}  Q3 {q3:12.5g}  "
                  f"spread {spread:7.2%}  bound {bound}{mark}")
        print(flush=True)
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
