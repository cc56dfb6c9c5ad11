#!/usr/bin/env python3
"""Build oakbench from this directory against ../src and run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/oakbench (default .bench_build/oakbench
at the repository root) and is incremental, so only the first run of a
checkout pays for it. Build output goes to stderr; the benchmark's stdout,
whose last line is the result object, passes through unchanged.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def work_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(out):
    if not os.path.isdir(os.path.join(ROOT, "src", "core")):
        sys.exit("run.py: the program sources (src/) are missing; nothing to benchmark")
    build_dir = os.path.join(out, "oakbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "oakbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", default="1")
    p.add_argument("--seconds", default="10")
    p.add_argument("--trace", default="0", choices=["0", "1"])
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")

    out = work_dir()
    binary = build(out)
    if a.self_test:
        cmd = [binary, "--self-test"]
    else:
        cmd = [binary, "--workload", a.workload, "--seed", a.seed, "--seconds", a.seconds,
               "--trace", a.trace, "--work-dir", out]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
