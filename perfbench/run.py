#!/usr/bin/env python3
"""End-to-end training benchmark: one named workload per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
library and the workload runner into .bench_build/ (CMake, Release); later
runs rebuild incrementally. The runner executes in a pinned environment:
every EXACLIM_* variable is removed and EXACLIM_THREADS is set to the
pool size, 1. The last line of standard output is the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics of the
traced run (--trace 1). The line before it records the effective
environment, nproc, the build type and the correctness checks. See
perfbench/README.md for the metrics and the workloads.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_step")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")

WORKLOADS = ("tiramisu_1rank", "deeplab_4rank_fp16", "tiramisu_4rank_driver")
# Intra-op pool size (EXACLIM_THREADS) of every workload: kPoolThreads in
# step_bench/workload.hpp.
POOL_THREADS = 1

RUN_TIMEOUT_S = 170
# Build-time variables that would silently change the measured program.
BUILD_ENV_DROP = ("CXXFLAGS", "CPPFLAGS", "LDFLAGS", "CMAKE_BUILD_TYPE",
                  "CMAKE_GENERATOR", "CMAKE_CXX_FLAGS")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def clean_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("EXACLIM_") and k not in BUILD_ENV_DROP}
    removed = sorted(k for k in os.environ if k not in env)
    return env, removed


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per checkout.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", BUILD_DIR, "--parallel", jobs])
        for cmd in steps:
            # Build chatter goes to stderr; stdout carries only results.
            done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                                  stderr=sys.stderr)
            if done.returncode != 0:
                fail("build failed: " + " ".join(cmd))


def expected_metrics(traced):
    """Metric names and units BENCHMARK.json promises for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if traced else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    # Self-test hooks (perfbench/selftest.py).
    parser.add_argument("--smoke", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-replica", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    traced = args.trace == "1"

    env, removed = clean_env()
    build(env)
    env["EXACLIM_THREADS"] = str(POOL_THREADS)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if traced:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACE_DIR, "%s_seed%d.json" % (args.workload, args.seed))]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt_replica:
        cmd.append("--corrupt-replica")

    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    if done.returncode != 0:
        fail("%s exited with code %d" % (args.workload, done.returncode))
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        fail("runner printed no result")
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    want = expected_metrics(traced)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(got.items()) ^ set(want.items())))

    info["runner_removed_env"] = removed
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
