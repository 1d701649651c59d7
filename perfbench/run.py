#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload serve_faults --seed 7 \
        --seconds 35 --trace 0

Run from the root of a checkout. The program and the libraries it links
are built under .bench_build/ in that root (incremental after the first
run); build output goes to stderr so the last line of stdout is the
program's JSON result. Every argument is passed through to it
(perfbench/perfbench.cc documents them). Exits non-zero, without printing
a result, when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(BUILD_DIR, "perfbench")


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", BUILD_DIR,
                 "--target", "perfbench", "-j", "2"]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    build()
    result = subprocess.run([PROGRAM] + sys.argv[1:])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
