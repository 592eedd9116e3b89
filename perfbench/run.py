#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/main.exe and the
foraygen CLI (its `serve` verb is the daemon the traced run drives) with
dune, then runs the benchmark; the last line of standard output is the
JSON result. Exits non-zero if the build fails.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = subprocess.run(
        ["dune", "build", "--root", root, "./perfbench/main.exe",
         "./bin/foraygen.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
