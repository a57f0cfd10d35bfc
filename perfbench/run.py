#!/usr/bin/env python3
"""Builds and runs the Leopard benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The benchmark binary is built from the repository's sources into the build
directory ($CARGO_TARGET_DIR, default .bench_build, relative to the
repository root). Scratch files go to a per-run directory under it and are
removed at exit. The last line of stdout is the run's JSON result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = [
    "offline_rwplus",
    "offline_zipf_sharded",
    "serve_smallbank",
    "serve_smallbank_durable",
]
RUN_TIMEOUT_S = 170

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build() -> Path:
    cmake_dir = build_dir() / "cmake"
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(cmake_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(cmake_dir), "-j", jobs,
         "--target", "leopard_perfbench"],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed")
    return cmake_dir / "leopard_perfbench"


def run_one(binary: Path, args: list) -> tuple:
    """Runs the binary; returns (exit code, stdout lines)."""
    work = build_dir() / "runs" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    try:
        proc = subprocess.run([str(binary), *args, "--work-dir", str(work)],
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        return proc.returncode, proc.stdout.splitlines()
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1, []
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and a.workload is None:
        p.error("--workload or --selftest is required")
    binary = build()
    if a.selftest:
        code, lines = run_one(binary, ["--selftest"])
        print("\n".join(lines))
        return code

    names = WORKLOADS if a.workload == "all" else [a.workload]
    results = {}
    for name in names:
        code, lines = run_one(binary, [
            "--workload", name, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)])
        if code != 0 or not lines:
            return code or 1
        if len(names) == 1:
            print("\n".join(lines))
            return 0
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        results[name] = json.loads(lines[-1])
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items()
                    for m, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
