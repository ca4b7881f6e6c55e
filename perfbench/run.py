#!/usr/bin/env python3
"""Build the simulator and the benchmark from source, then run one workload.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: reproduce, models, cli-run, serve-open (see perfbench/README.md).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
output check passed.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("reproduce", "models", "cli-run", "serve-open")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 175
OUT_DIR = ".perfbench_out"
TARGETS = ("./bin/schemesim.exe", "./perfbench/bench.exe")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("dune-project", "bin/dune", "lib", "perfbench/dune"):
        if not os.path.exists(needed):
            fail("not at the root of a source checkout: %s is missing" % needed)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            [dune, "build", "--root", ".", "--display", "quiet", *TARGETS],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        fail("build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [os.path.join("_build", "default", "perfbench", "bench.exe"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--schemesim", os.path.join("_build", "default", "bin", "schemesim.exe"),
           "--out", OUT_DIR]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("workload %s ran past %d s" % (a.workload, RUN_TIMEOUT_S), 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
