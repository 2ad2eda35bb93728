#!/usr/bin/env python3
"""Builds and runs the paper-workload benchmark.

Usage (from the repository root):
  python3 paperbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The library and the benchmark are compiled from source into
$CARGO_TARGET_DIR/paperbench (default .bench_build/paperbench) on first
use; later runs reuse the build. Build output goes to stderr so that the
last line of stdout stays the benchmark's JSON result. Exits non-zero
without a result when the build fails (for example when src/ is absent).
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "paperbench"


def build(out: Path) -> Path:
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "paperbench",
                    "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "paperbench"


def main() -> int:
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"paperbench: build failed: {e}", file=sys.stderr)
        return 3
    run_dir = out / f"run-{os.getpid()}"
    try:
        proc = subprocess.run([str(binary), *sys.argv[1:],
                               "--run-dir", str(run_dir)])
        return proc.returncode
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
