"""Self-test of the benchmark: deterministic counters repeat exactly.

    python3 bench/selftest.py [WORKLOAD...]

Runs the traced benchmark twice per workload with the same seed (short runs:
one untraced and one traced pass) and fails unless both runs are correct and
every counter in tracer.DETERMINISTIC_COUNTERS reads the same, so that later
changes can cite those counters as counts.  Exits with 1 on any mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import jobs
import tracer

RUN = Path(__file__).resolve().parent / "run.py"


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv) -> int:
    failures = 0
    for workload in argv or jobs.WORKLOADS:
        first, second = traced_run(workload, 11), traced_run(workload, 11)
        for run in (first, second):
            if not run["correct"]:
                print(f"{workload}: {run['failed']} of {run['attempted']} jobs failed")
                failures += 1
        for name in tracer.DETERMINISTIC_COUNTERS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            status = "ok" if a == b else "MISMATCH"
            failures += a != b
            print(f"{workload:>14}  {name:<30} {a!r:>10} {b!r:>10}  {status}")
    print("PASS" if not failures else f"FAIL ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
