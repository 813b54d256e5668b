#!/usr/bin/env python3
"""Run one workload on several seeds and print each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload serve-hot --seeds 1-10

For every metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), and the spread: the distance between
the quartiles as a share of the median. With --bounds it also marks
each spread against the metric's bound in BENCHMARK.json: "steady"
below a third of the bound (the benchmark's target), "in bound" below
the bound (what a comparison of two sets of runs needs), "WIDE" above.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
        cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-2000:])
        sys.exit("seed %d: exit %d" % (seed, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=6)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--bounds", action="store_true")
    args = ap.parse_args()

    bounds = {}
    if args.bounds:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    values = {}
    for seed in seeds_of(args.seeds):
        result = run_once(args.workload, seed, args.seconds, args.trace)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, json.dumps(
            {k: round(v["value"], 6) for k, v in result["metrics"].items()})),
            flush=True)

    print("%-22s %14s %14s %14s %8s" % ("metric", "median", "q1", "q3", "spread"))
    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        mark = ""
        if name in bounds:
            b = bounds[name]
            mark = ("steady" if spread < b / 3 else "in bound" if spread < b
                    else "WIDE") + " (bound %g)" % b
        print("%-22s %14.6g %14.6g %14.6g %8.4f %s" % (name, med, q1, q3, spread, mark))
        print("    " + " ".join("%.5g" % v for v in vals))


if __name__ == "__main__":
    main()
