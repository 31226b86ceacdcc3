#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload run.py knows (including
congest_star_faults, which BENCHMARK.json does not gate on), untraced and
traced, at the --tiny sizes. Each run must finish within a few seconds,
report correct: true with no failed op, and print every metric
BENCHMARK.json names for its mode.

    python3 perfbench/smoke_test.py
"""

import json
import subprocess
import sys
import time
from pathlib import Path

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_LIMIT_S = 15  # per run, after the first run has built the binary


def main():
    failures = 0
    built = False
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--tiny"]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = time.monotonic() - start
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}: {proc.stderr[-500:]}")
            else:
                result = json.loads(proc.stdout.splitlines()[-1])
                if not result["correct"]:
                    problems.append("correct is false: " +
                                    proc.stdout.splitlines()[-2][:2000])
                if result["failed"] != 0 or result["attempted"] < 1:
                    problems.append(f"attempted {result['attempted']}, "
                                    f"failed {result['failed']}")
                want = {m["name"]: m["unit"] for m in SPEC[section]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want:
                    problems.append(f"metrics {sorted(got)} != {sorted(want)}")
            if built and took > RUN_LIMIT_S:
                problems.append(f"took {took:.1f} s")
            built = True
            status = "ok" if not problems else "FAIL"
            print(f"{status:4s} {workload:20s} trace={trace} {took:5.1f} s")
            for p in problems:
                print("     " + p)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
