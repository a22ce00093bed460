#!/usr/bin/env python3
"""Build and run the ledger benchmark (ledger/README.md).

    python3 ledger/run.py --workload W --seed N --seconds S --trace 0|1

Configures and builds bbmg_ledger and the bbmg_served daemon from this
checkout's sources into .bench_build/ (incremental after the first run),
then runs the benchmark with its working files under .bench_build/work.
Build output goes to stderr, so the last line on stdout is the benchmark's
JSON result.  Exits non-zero, without a result, when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "bbmg_ledger", "bbmg_served",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    binary = os.path.join(BUILD, "bbmg_ledger")
    work = os.path.join(BUILD, "work")
    sys.stdout.flush()
    return subprocess.run([binary, *sys.argv[1:], "--work", work]).returncode


if __name__ == "__main__":
    sys.exit(main())
