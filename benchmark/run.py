#!/usr/bin/env python3
"""Build nvmcp_bench from source, then run it.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
``build-bench/`` (CMake, Release); later calls only rebuild what changed.
Every argument is passed to ``nvmcp_bench``, which prints each metric with
its unit and ends with one JSON result line (see benchmark/README.md).
Build output goes to stderr, so the result stays the last stdout line.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "benchmark")
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "nvmcp_bench")


def step(cmd):
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.stderr.write("run.py: %s failed (exit %d)\n"
                         % (" ".join(cmd), done.returncode))
        sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: library sources (src/) not found next to "
                 "benchmark/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step(configure)
    step(["cmake", "--build", BUILD, "--target", "nvmcp_bench",
          "-j", str(min(4, os.cpu_count() or 1))])


def main():
    build()
    sys.stdout.flush()
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    main()
