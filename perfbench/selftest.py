#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, on a smoke configuration.

    python3 perfbench/selftest.py

For every workload of BENCHMARK.json it checks that
  * the untraced run emits every end-to-end metric with its unit, and the
    traced run every per-layer metric, each a finite number;
  * the traced run's losses equal the untraced run's bit for bit, and the
    driver workload reproduces RunDistributedTraining;
  * a run with a deliberately corrupted replica is counted as failed;
  * a stray EXACLIM_* variable in the caller's environment never reaches
    the measured program.
Exits 1 and lists the failed checks if any fails.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SEED = 5


def run(workload, trace, *extra, env=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
           "--seconds", "2", "--trace", trace, "--smoke", *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, env=env)
    if done.returncode != 0:
        raise RuntimeError("%s failed (%d): %s" % (
            " ".join(cmd[1:]), done.returncode, done.stderr[-2000:]))
    lines = done.stdout.splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, rows in (("0", spec["end_to_end"]),
                            ("1", spec["per_layer"])):
            info, result = run(workload, trace)
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] > 0,
                  "%s trace=%s runs correct" % (workload, trace))
            for row in rows:
                metric = result["metrics"].get(row["name"])
                check(metric is not None and metric["unit"] == row["unit"] and
                      isinstance(metric["value"], (int, float)) and
                      math.isfinite(metric["value"]),
                      "%s trace=%s emits %s [%s]" % (
                          workload, trace, row["name"], row["unit"]))
            notes = info["notes"]
            if trace == "1":
                check(notes["traced_losses_match"]["value"] == 1,
                      "%s tracing leaves the losses unchanged" % workload)
            if "driver_fidelity" in notes:
                check(notes["driver_fidelity"]["value"] == 1,
                      "%s reproduces RunDistributedTraining" % workload)
        _, result = run(workload, "0", "--corrupt-replica")
        check(not result["correct"] and result["failed"] > 0,
              "%s counts a corrupted replica as failed" % workload)

    env = dict(os.environ, EXACLIM_CONV_ALGO="im2col", EXACLIM_THREADS="3")
    info, _ = run(spec["workloads"][0]["name"], "0", env=env)
    check(info["env"]["EXACLIM_CONV_ALGO"] is None and
          "EXACLIM_CONV_ALGO" in info["runner_removed_env"] and
          info["env"]["EXACLIM_THREADS"] == str(info["pool_threads"]),
          "stray EXACLIM_* variables are removed and recorded")

    print("%d check(s) failed" % len(failures) if failures else "all ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
