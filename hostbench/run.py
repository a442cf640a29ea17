#!/usr/bin/env python3
"""Build and run the simulator host-speed benchmark.

    python3 hostbench/run.py --workload lbm-rop-exact --seed 1 --seconds 10 --trace 0
    python3 hostbench/run.py --selftest

Run from anywhere inside a checkout. The benchmark and the simulator
libraries are compiled from source in Release into .bench_build/hostbench at
the checkout root, then the hostbench binary runs one invocation. Its last
stdout line is the result object {"correct", "attempted", "failed",
"metrics"}; --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. Workloads, metrics and seeds are described in
hostbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
TARGETS = ["hostbench", "hostbench_selftest"]
# One invocation must finish well inside the three minutes a run may take.
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure (first time) and build; build output goes to stderr."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    generated = [os.path.join(BUILD, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    with open(cache) as f:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in f.read():
            raise RuntimeError("build tree %s is not a Release build" % BUILD)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS,
                   check=True, stdout=sys.stderr)


def check_result(line):
    doc = json.loads(line)
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys: %s" % sorted(doc))
    return doc


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's own checks instead")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    try:
        build()
    except (subprocess.CalledProcessError, OSError, RuntimeError) as e:
        log("build failed: %s" % e)
        return 1

    env = {k: v for k, v in os.environ.items() if k != "ROP_CHECK"}
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "hostbench_selftest")],
                              env=env).returncode

    cmd = [os.path.join(BUILD, "hostbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("hostbench did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("hostbench exited with code %d" % proc.returncode)
        return proc.returncode or 1
    try:
        check_result(lines[-1])
    except ValueError as e:
        log("malformed result line: %s" % e)
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
