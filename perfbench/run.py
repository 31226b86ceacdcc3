#!/usr/bin/env python3
"""Build the dut benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload congest_grid --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the library sources it links) into .bench_build/ at
the checkout root, then runs dut_perfbench. Its stdout is passed through:
the last line is the JSON result {"correct", "attempted", "failed",
"metrics"}; the line before it holds the host/build fingerprint and the
self-checks. --tiny selects the small smoke-test sizes.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "dut_perfbench"
WORKLOADS = ("congest_grid", "congest_star_faults", "serve_zipf", "zero_round_mc")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "net" / "CMakeLists.txt").is_file():
        fail(f"no dut sources under {ROOT / 'src'}; run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "dut_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                sys.stderr.write(log_path.read_text()[-4000:])
                fail("build failed: " + " ".join(cmd))


def git_describe():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                              "--dirty", "--tags"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none (git unavailable)"
    if out.returncode != 0:
        return "none (not a git checkout)"
    return out.stdout.strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes for the smoke test")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    build()
    env = {k: v for k, v in os.environ.items() if not k.startswith("DUT_")}
    # One worker wherever the library consults DUT_THREADS; zero_round_mc
    # sizes its own 2-worker TrialRunner.
    env["DUT_THREADS"] = "1"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-describe", git_describe()]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"dut_perfbench exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"dut_perfbench exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
