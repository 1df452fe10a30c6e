#!/usr/bin/env python3
"""Builds bench_e2e from source and runs it once.

Run from the repository root:

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every argument is passed through to bench_e2e (see bench_e2e.cpp for the
full list). The build goes to .bench_build/e2e, and its log goes to stderr so
that bench_e2e's JSON result stays the last line of stdout. A traced run
writes its Chrome trace to .bench_build/e2e/trace.json unless --trace-out
says otherwise.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: EdgeHD sources not found under " + ROOT, file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(
        ["cmake", "--build", BUILD, "--target", "bench_e2e", "--parallel", jobs],
        stdout=sys.stderr) == 0


def main():
    if not build():
        return 1
    args = sys.argv[1:]
    if "--trace-out" not in args:
        args += ["--trace-out", os.path.join(BUILD, "trace.json")]
    return subprocess.call([os.path.join(BUILD, "bench_e2e")] + args)


if __name__ == "__main__":
    sys.exit(main())
