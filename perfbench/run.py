#!/usr/bin/env python3
"""Build and run the DeLiBA-K end-to-end benchmark.

    python3 perfbench/run.py --workload rep-randwrite-4k --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. Configures and builds perfbench/ (which
compiles the repository's src/ libraries) into .bench_build/perfbench with
CMake, in Release mode, then runs dk_perfbench with the given arguments. Build
output goes to standard error; the benchmark's own output, whose last line is
the JSON result, goes to standard output. --selftest builds and runs the
workload-shape self-test through ctest instead.

Exits non-zero without a result when the build or the benchmark fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
JOBS = "4"


def build():
    """Configure once, then build incrementally; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/ next to perfbench/; run from a full "
              "checkout of the repository", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    if not build():
        return 1
    if "--selftest" in argv:
        cmd = ["ctest", "--test-dir", BUILD, "--output-on-failure"]
    else:
        cmd = [os.path.join(BUILD, "dk_perfbench")] + argv
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
