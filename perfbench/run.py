#!/usr/bin/env python3
"""Build and run the GSTM benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/perfbench; later calls rebuild incrementally. Build output
goes to standard error, so the last line of standard output is the
result object printed by perfbench_run. Results and traced spans are
written under .bench_build/perfbench/results.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = BUILD / "results"
WORKLOADS = ["ssca2", "ycsb-b", "kmeans-guided", "vacation-guided"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources missing: {ROOT / 'src'} (run from a full "
             "checkout)")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return BUILD / target


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the measured sources, stable without git metadata."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cpp", ".txt", ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([str(binary)]).returncode)
    if args.workload is None:
        fail("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build("perfbench_run")
    RESULTS.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(RESULTS),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    os.chdir(ROOT)
    main()
