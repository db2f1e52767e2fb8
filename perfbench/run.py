#!/usr/bin/env python3
"""Build and run the planning benchmark.

    python3 perfbench/run.py --workload cold|hot|drift --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the tessel sources
under src/ plus the planbench program) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
planbench with the same arguments. Build output goes to stderr; the last
stdout line is planbench's JSON result. Exits nonzero, without a result,
when the build fails.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_SEC = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = os.path.join(out, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))

    steps = [
        ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "--target", "planbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, cwd=root, stdout=sys.stderr).returncode:
            print("perfbench: build failed", file=sys.stderr)
            return 1

    workdir = os.path.join(out, "work-%d" % os.getpid())
    cmd = [os.path.join(build, "planbench")] + sys.argv[1:] + [
        "--workdir", workdir, "--trace-dir", os.path.join(out, "traces")]
    try:
        return subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_SEC).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_SEC,
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
