#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload online_chat --seed 1 \
        --seconds 30 --trace 0

Builds the driver (perfbench/CMakeLists.txt) into .bench_build, or into
$CARGO_TARGET_DIR when that is set, runs it, checks that the printed
metric names and units are exactly the ones BENCHMARK.json declares
(end_to_end with --trace 0, per_layer with --trace 1) and prints the
result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Build output goes to standard error. Exits non-zero without a result
when the build or the driver fails. --size smoke runs a tiny version of
each workload (the benchmark's own tests use it).
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out_dir):
    """Configure once, then build incrementally; serialized by a lock."""
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "-j", jobs,
                      "--target", "perfbench_driver"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.exit("build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "perfbench_driver")


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_metrics(metrics, trace):
    """Names and units exactly as declared; every value a finite number."""
    problems = []
    expected = declared(trace)
    for name in sorted(set(expected) - set(metrics)):
        problems.append("missing metric " + name)
    for name in sorted(set(metrics) - set(expected)):
        problems.append("undeclared metric " + name)
    for name, entry in metrics.items():
        if name in expected and entry["unit"] != expected[name]:
            problems.append("%s: unit %s, declared %s"
                            % (name, entry["unit"], expected[name]))
        value = entry["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: value %r is not a finite number"
                            % (name, value))
    return problems


def paper_line(metrics):
    """Fig. 9 Yi-6B vAttention/paged ratio beside ours (not gated)."""
    with open(os.path.join(HERE, "meta.json")) as f:
        ref = json.load(f)["paper_reference"]
    vattn = metrics[ref["numerator"]]["value"]
    paged = metrics[ref["denominator"]]["value"]
    return ("paper %s: %.2fx, measured %.2fx (information only)"
            % (ref["source"], ref["paper_ratio"], vattn / paged))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args()

    out_dir = build_dir()
    driver = build(out_dir)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out_dir, "trace_%s_%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("driver timed out after %d s" % DRIVER_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        sys.exit("driver failed with exit code %d" % done.returncode)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    problems = check_metrics(result["metrics"], args.trace)
    for problem in problems:
        print("CHECK FAILED: " + problem)
    if args.workload == "offline_longctx" and not args.trace:
        print(paper_line(result["metrics"]))
    result["correct"] = bool(result["correct"]) and not problems
    print(json.dumps(result))


if __name__ == "__main__":
    main()
