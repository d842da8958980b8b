#!/usr/bin/env python3
"""Build the end-to-end benchmark from this checkout and run it.

    python3 e2ebench/run.py --workload serve-live|serve-journal|study \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build (Release, only the library
and the e2ebench binary) goes to .bench_build/e2ebench and is
incremental after the first run. Its log goes to stderr, so the last
line of stdout stays the benchmark's JSON result. Exits non-zero without a result when
the sources are missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build", "e2ebench")


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "e2ebench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("e2ebench: build failed: " + " ".join(step))


def main():
    build()
    binary = os.path.join(BUILD, "e2ebench")
    args = sys.argv[1:]
    if "--out-dir" not in args:
        args += ["--out-dir", os.path.join(BUILD, "out")]
    sys.stdout.flush()
    os.execv(binary, [binary, *args])


if __name__ == "__main__":
    main()
