#!/usr/bin/env python3
"""Build and run the wall-time benchmark.

One run (the form BENCHMARK.json's command takes):

    python3 wallbench/run.py --workload ports-solve --seed 1 --seconds 40 --trace 0

builds the benchmark from source into .bench_build/ (or $CARGO_TARGET_DIR)
when needed, runs it, checks that the metric names match BENCHMARK.json and
prints its output; the last line is the JSON result. An untraced run is split
over PROCESSES fresh processes with the same seed, each given an equal share
of --seconds, and every metric is the median over them: a process's memory
layout and thread placement move its figures as a whole, so one process is
one sample. A traced run (--trace 1) is one process.

Every metric of every workload, end-to-end and per-layer, with units:

    python3 wallbench/run.py --report [--seed 1] [--seconds 10]

Run from the root of the repository. Exit status is non-zero when the build,
the run or the name check fails.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ports-solve", "service-mix"]
RUN_TIMEOUT_S = 175
PROCESSES = 3


def fail(msg):
    print("wallbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "wallbench",
                  "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "wallbench")


def expected_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_process(binary, workload, seed, seconds, trace, timeout):
    """Runs one benchmark process; returns (stdout lines, parsed result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if res.returncode != 0:
        fail("benchmark exited with status %d" % res.returncode)
    lines = res.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def run_once(binary, workload, seed, seconds, trace):
    """One run: untraced over PROCESSES processes, traced in one."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    count = 1 if trace else PROCESSES
    lines, results = [], []
    for _ in range(count):
        out, result = run_process(binary, workload, seed, seconds / count,
                                  trace, max(1, deadline - time.monotonic()))
        lines += out
        results.append(result)
    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": m["unit"]}
    combined = {"correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics}
    want = expected_names(trace)
    if sorted(metrics) != sorted(want):
        fail("metric names differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(want) - set(metrics)),
                sorted(set(metrics) - set(want))))
    return lines + [json.dumps(combined)], combined


def report(binary, seed, seconds):
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines, result = run_once(binary, workload, seed, seconds, trace)
            print("== %s  trace=%d  correct=%s attempted=%d failed=%d"
                  % (workload, trace, result["correct"], result["attempted"],
                     result["failed"]))
            print(lines[0])
            for name, m in result["metrics"].items():
                print("  %-40s %18.9g %s" % (name, m["value"], m["unit"]))
            status |= 0 if result["correct"] else 1
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true",
                    help="run every workload traced and untraced")
    args = ap.parse_args()
    if not args.report and args.workload is None:
        ap.error("--workload is required (or --report)")

    started = time.monotonic()
    binary = build()
    print("# build checked in %.1f s" % (time.monotonic() - started),
          file=sys.stderr)
    if args.report:
        return report(binary, args.seed, args.seconds)
    lines, _ = run_once(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
