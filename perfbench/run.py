#!/usr/bin/env python3
"""Build and run the gcache end-to-end benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid --seed 0 --seconds 20 --trace 0

Configures and builds perfbench/ (a CMake package that compiles the
repository's libraries from src/) in Release mode under .bench_build/, or
under $CARGO_TARGET_DIR when that is set, then runs the perfbench binary.
The binary prints one JSON result object as the last line of stdout; this
script passes its output through unchanged and exits with its status.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("grid", "mutator", "section7", "replay")
# Each run must end within 180 seconds; leave the build check and the
# interpreter some room.
RUN_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(
        description=__doc__, allow_abbrev=False,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 600:
        p.error("--seconds must be between 1 and 600")
    return args


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    base = Path(target) if target else ROOT / ".bench_build"
    return base.resolve() / "perfbench"


def build(out):
    """Configures (once) and builds the binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no gcache sources under {ROOT}/src")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out / "perfbench"


def main(argv):
    args = parse_args(argv)
    out = build_dir()
    binary = build(out)
    work = out / f"work-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(work)]
    if args.trace:
        cmd += ["--spans", str(out / f"spans-{args.workload}.json")]
    # The binary's flags fall back to GCACHE_<FLAG> variables; the
    # benchmark runs only what its command line says.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GCACHE_")}
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
