#!/usr/bin/env python3
"""Build and run the SNS benchmark (see snsbench/README.md).

    python3 snsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
snsbench/ (which compiles ../src) under .bench_build/; later calls only
let the build tool confirm it is up to date. Build output goes to
stderr; the benchmark's own stdout is passed through, and its last line
is the JSON result. Exits non-zero, printing no result, if the build or
the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "snsbench")
BINARY = os.path.join(BUILD, "snsbench")


def build():
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "snsbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"snsbench: build failed: {error}", file=sys.stderr)
        return 2
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
