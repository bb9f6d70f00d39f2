#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload desktop|cli|fleet --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
benchmark (the library from src/ plus the harness in perfbench/) in the
default RelWithDebInfo configuration under .bench_build/perfbench; later
calls only rebuild what changed. Build output goes to
.bench_build/perfbench-build.log, so standard output carries only the
benchmark's own report, whose last line is the JSON result. Traces of
--trace 1 runs are written next to the build.

Exit codes: the benchmark's own (0 ok, 1 failed ops or checks, 2 usage),
2 when the sources or the build are missing or broken, 3 on timeout.
"""
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
LOG = ROOT / ".bench_build" / "perfbench-build.log"
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    LOG.parent.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    with open(LOG, "a") as log:
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                fail(f"build failed; see {LOG}")
    exe = BUILD_DIR / "perfbench"
    if not exe.is_file():
        fail(f"build produced no {exe}")
    return exe


def main():
    exe = build()
    cmd = [str(exe), *sys.argv[1:], "--out", str(BUILD_DIR)]
    # A fixed address-space layout keeps cache-set placement, and with it
    # the ns-scale latencies, the same from run to run.
    if shutil.which("setarch"):
        cmd = ["setarch", platform.machine(), "--addr-no-randomize", *cmd]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        sys.exit(3)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
