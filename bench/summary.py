"""Run every workload once and print each metric by name, value and unit.

    python3 bench/summary.py [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each workload is one `run.py` run; a
workload with a wrong output is marked FAILED.  Exits with 1 if any run
fails or reports a wrong output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import jobs

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    ok = True
    for workload in jobs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        status = "ok" if result["correct"] else "FAILED"
        print(f"{workload}  {status}  {result['attempted'] - result['failed']}"
              f"/{result['attempted']} jobs correct")
        ok = ok and result["correct"]
        for name, metric in result["metrics"].items():
            print(f"    {name:<30} {metric['value']:>16.6g} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
