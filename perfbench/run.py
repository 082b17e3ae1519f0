#!/usr/bin/env python3
"""Build and run the GETM-Sim end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload paper-suite [--seed 7]
                             [--seconds 10] [--trace 0|1]

`--workload all` runs the three workloads in turn.

Builds perfbench/ (the simulator library plus the driver) with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then
runs the driver. Everything the driver prints is passed through; its
last line is the JSON result. The exit status is nonzero when the build
fails, a point fails verification or repeats differently, or the driver
overruns its time limit.
"""

import argparse
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-suite", "ycsb-hot", "ycsb-uniform-read")
# A run must end within 180 s; leave room for start-up and reporting.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure once, then build incrementally; False on failure."""
    steps = []
    cache = build_dir / "CMakeCache.txt"
    source = ROOT / "perfbench"
    # A build tree configured for another source tree (a moved or copied
    # checkout) cannot be reused: CMake refuses it. Start afresh.
    if cache.exists() and not any(
            line.startswith("CMAKE_HOME_DIRECTORY:")
            and Path(line.split("=", 1)[1].strip()).resolve() == source
            for line in cache.read_text(errors="replace").splitlines()):
        shutil.rmtree(build_dir)
    if not cache.exists():
        steps.append(["cmake", "-S", str(source),
                      "-B", str(build_dir)])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "getm_perfbench", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def git_commit():
    # Only this checkout's own history counts, never an enclosing repo's.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(build_dir, workload, args):
    """Run the driver on one workload; returns the exit status."""
    cmd = [str(build_dir / "getm_perfbench"),
           "--workload", workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--workdir", str(build_dir / "work"),
           "--commit", git_commit(),
           "--command", shlex.join([os.path.basename(sys.executable)] +
                                   sys.argv)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes)
                         else e.stdout or "")
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        print("perfbench: the driver printed no result", file=sys.stderr)
        return 1
    # The driver prints every metric it measured; the result line
    # carries exactly the ones BENCHMARK.json names for this mode.
    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())[section]]
    missing = [n for n in names if n not in result["metrics"]]
    print("\n".join(lines[:-1]), flush=True)
    if missing:
        print("perfbench: driver did not report " + ", ".join(missing),
              file=sys.stderr)
        return 1
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print(json.dumps(result, separators=(",", ":")), flush=True)
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_dir / "perfbench"
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = [run_workload(build_dir, w, args) for w in workloads]
    return max(status)


if __name__ == "__main__":
    sys.exit(main())
