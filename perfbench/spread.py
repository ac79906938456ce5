#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints, per metric, the median
and the spread: the distance between the first and third quartile of the
per-run values (statistics.quantiles(values, n=4)) as a share of their
median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload batch-seq --seeds 1-10
    python3 perfbench/spread.py --workload lookup --seeds 3,5,8 --trace 1 --out runs.jsonl

Run from the repository root. Each run's result line is appended to
--out (JSON lines) when given.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    values = {}
    ok = True
    for seed in parse_seeds(args.seeds):
        started = time.time()
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"seed {seed}: no result (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            ok = False
            continue
        ok &= proc.returncode == 0 and result["correct"]
        print(
            f"seed {seed}: exit {proc.returncode}, {time.time() - started:.1f} s, "
            f"correct {result['correct']}, {result['failed']} failed of {result['attempted']}",
            flush=True,
        )
        if args.out:
            with open(args.out, "a") as f:
                record = {"workload": args.workload, "seed": seed, "trace": args.trace,
                          "result": result}
                f.write(json.dumps(record) + "\n")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':38} {'median':>16} {'spread':>8} {'bound':>6}  runs")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = f"{100 * (q3 - q1) / abs(med):7.2f}%"
        else:
            share = "      -"
        bound = bounds.get(name)
        bound = f"{bound:6.2f}" if bound is not None else "     -"
        print(f"{name:38} {med:16.4f} {share:>8} {bound}  {len(vals)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
