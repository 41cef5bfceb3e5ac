#!/usr/bin/env python3
"""Builds and runs the pdbd end-to-end benchmark.

    python3 perfbench/run.py --workload read_mix|unsafe_deadline|ingest_race \
        --seed N --seconds S --trace 0|1

Run from the repository root. The engine libraries are compiled from ../src
together with the benchmark program into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs only relink what changed. Build output
goes to stderr; the program's report, whose last line is the JSON result, goes
to stdout. Exits non-zero, printing no result, when the build or the run
fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def main():
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j",
         str(min(4, os.cpu_count() or 1))],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    binary = os.path.join(build_dir, "perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if run.returncode != 0:
        sys.stderr.buffer.write(run.stdout)
        return run.returncode
    sys.stdout.buffer.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
