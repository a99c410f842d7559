#!/usr/bin/env python3
"""Builds and runs the mini-RAID wall-clock benchmark (see README.md).

  python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 e2ebench/run.py --selftest

Builds this directory's CMake package (which compiles ../src) in Release
mode under $CARGO_TARGET_DIR (default .bench_build), then runs it. The last
line of standard output is the result object; a failed step prints one
line naming it and exits non-zero without a result.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(step, detail):
    print(f"e2ebench: step '{step}' failed: {detail}", flush=True)
    sys.exit(1)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    out_dir = build_dir() / "e2ebench"
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "build.log"
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    commands = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out_dir), "-j4", "--target", "e2ebench"],
    ]
    # Runs started together share one build instead of racing on it.
    with open(out_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            for command in commands:
                try:
                    result = subprocess.run(
                        command, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                        timeout=max(1, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    fail("build", f"timed out after {BUILD_TIMEOUT_S} s")
                except OSError as error:
                    fail("build", str(error))
                if result.returncode != 0:
                    log.flush()
                    lines = [line.strip() for line in
                             log_path.read_text().splitlines() if line.strip()]
                    # An error line and the line after it (CMake puts the
                    # message there).
                    errors = [line for i, line in enumerate(lines)
                              if "error" in line.lower() or
                              (i and "error" in lines[i - 1].lower())]
                    fail("build", " | ".join((errors or lines[-3:])[:3])
                         or "cmake failed")
    return out_dir / "e2ebench"


def source_digest():
    """Content digest of the program and the benchmark, which identifies
    the code even where the tree is not a git checkout."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        fail("arguments", "--workload is required")

    binary = build()
    if args.selftest:
        command = [str(binary), "--selftest"]
    else:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        command = [str(binary), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(out_dir),
                   "--source", source_digest()]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run", f"no result within {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
