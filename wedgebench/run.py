#!/usr/bin/env python3
"""Builds the WedgeChain benchmark from this checkout and runs one workload.

Usage, from the root of the checkout:

    python3 wedgebench/run.py --workload ingest|read|capacity --seed N \
        --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR (default .bench_build) with CMake in
Release mode; later runs rebuild incrementally. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. A traced
run writes its spans to <build dir>/traces/<workload>-seed<N>.jsonl.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        print(f"wedgebench: no WedgeChain sources under {root}", file=sys.stderr)
        return 1

    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build.is_absolute():
        build = root / build
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build), "--target", "wedgebench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("wedgebench: build failed", file=sys.stderr)
            return 1

    cmd = [str(build / "wedgebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = build / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    # A terminated wrapper takes the benchmark down with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"wedgebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
