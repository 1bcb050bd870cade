#!/usr/bin/env python3
"""Builds the benchmark from this checkout's src/ and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The fr_* libraries and the benchmark program are configured in Release and
built under .bench_build/perfbench (ignored by git) from the src/ tree next
to this directory -- never from build/, a shared /tmp tree or an installed copy, so
the numbers always describe the code in this checkout.  Build output goes to
standard error; the program's last line of standard output is the result.
Without a src/ tree the command fails before printing any result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")


def main():
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no src/ tree in this checkout; "
                         "nothing to build or measure\n")
        return 2
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            return 2
    binary = os.path.join(BUILD, "perfbench")
    work = os.path.join(BUILD, "work")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:] + ["--work", work])


if __name__ == "__main__":
    sys.exit(main())
