#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root; the program's output is passed through, and its
last line is the run's JSON result.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("rodenet3-offline", "hybrid3-offline")
RUN_TIMEOUT_S = 170
# Kernel-pool size every workload is measured with (see README.md).
KERNEL_POOL_WORKERS = "1"


def build(root: Path, build_dir: Path) -> Path:
    source = root / "perfbench"
    if not (root / "src").is_dir():
        sys.exit("perfbench: no src/ next to perfbench/, nothing to build")
    cmds = []
    if not (build_dir / "CMakeCache.txt").exists():
        cmds.append(["cmake", "-S", str(source), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", str(build_dir), "-j",
                 str(min(4, os.cpu_count() or 1))])
    for cmd in cmds:
        # Build output goes to stderr: stdout ends with the JSON result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return build_dir / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    binary = build(root, target / "perfbench")
    work_dir = target / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    trace_out = target / "traces" / f"{args.workload}-seed{args.seed}.json"
    trace_out.parent.mkdir(parents=True, exist_ok=True)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--trace-out", str(trace_out)]
    env = dict(os.environ, ODENET_THREADS=KERNEL_POOL_WORKERS)
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
