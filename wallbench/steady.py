#!/usr/bin/env python3
"""Run-to-run steadiness of one workload.

    python3 wallbench/steady.py --workload service-mix --runs 10 --seconds 20

runs the benchmark RUNS times, each in its own process with its own seed
(FIRST_SEED, FIRST_SEED+1, ...), and prints for every metric the median over
the runs, the first and third quartiles (statistics.quantiles, n=4) and the
spread, (q3 - q1) / median. With --trace 0 each end-to-end metric is also
shown against its bound from BENCHMARK.json: "ok" when the spread is below a
third of the bound. Exit status 1 when a run fails its correctness checks.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    units = {}
    failed = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if res.returncode != 0:
            print("run with seed %d exited %d" % (seed, res.returncode))
            return 1
        result = json.loads(res.stdout.strip().split("\n")[-1])
        failed += 0 if result["correct"] else 1
        line = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            if name in bounds:
                line.append("%s=%.6g" % (name, m["value"]))
        print("seed %d: correct=%s attempted=%d %s"
              % (seed, result["correct"], result["attempted"],
                 " ".join(line)), flush=True)

    print("\n%-40s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        med, q1, q3, sp = spread(vals)
        verdict = ""
        if name in bounds:
            verdict = "%6.3f %s" % (bounds[name],
                                    "ok" if sp < bounds[name] / 3 else "WIDE")
        print("%-40s %14.6g %14.6g %14.6g %8.4f %s %s"
              % (name, med, q1, q3, sp, verdict, units[name]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
