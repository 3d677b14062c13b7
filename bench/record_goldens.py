"""Record the golden outputs that the benchmark checks against.

    python3 bench/record_goldens.py [COMMIT]

Run from the repository root on the commit whose outputs define "correct";
COMMIT is stored with the goldens for reference.  Every job of every
workload runs once at the golden seed; the exact values that some checks
need (a cylinder measure, prefix marginals of an iterate law, the legal
3-words of period_doubling) are computed here with stochsub itself.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import jobs

ROOT = Path.cwd()
STDOUT_KEPT_BELOW = 16384   # bytes; longer outputs are kept as a hash only


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from stochsub import FrequencyMeasure, SubstitutionRule, legal_words

    def rule(name):
        return SubstitutionRule.from_file(ROOT / jobs.CONFIGS / f"{name}.json")

    recorded = {}
    for name in jobs.WORKLOADS:
        for job in jobs.workload(name, jobs.GOLDEN_SEED):
            if job.id in recorded:
                continue
            result = jobs.run_job(job, ROOT)
            if result.rc != job.rc:
                print(f"{job.id}: exit code {result.rc}, expected {job.rc}\n{result.err}",
                      file=sys.stderr)
                return 1
            entry = {"rc": result.rc, "sha256": jobs.sha256(result.out)}
            if len(result.out) < STDOUT_KEPT_BELOW:
                entry["stdout"] = result.out
            recorded[job.id] = entry
            if job.id == "law-kernel":
                law = [line for line in result.out.splitlines() if line.startswith("law\t")]
                law_sha = jobs.sha256("\n".join(law))
            print(f"{job.id}: {result.wall:.2f} s", file=sys.stderr)

    pd, fib, dyck = rule("period_doubling"), rule("fibonacci"), rule("dyck")
    prefixes: dict[str, Fraction] = {}
    for w, p in fib.iterate_distribution("a", 6).entries.items():
        key = fib.alphabet.decode(w[:3])
        prefixes[key] = prefixes.get(key, Fraction(0)) + p
    goldens = {
        "commit": argv[0] if argv else None,
        "seed": jobs.GOLDEN_SEED,
        "jobs": recorded,
        "oracles": {
            "period_doubling_words_3": [pd.alphabet.decode(w) for w in legal_words(pd, 3)],
            "dyck_paren_measure": FrequencyMeasure(dyck).cylinder_measure("()"),
            "fibonacci_law_6_prefix_3": {k: str(v) for k, v in sorted(prefixes.items())},
            "fibonacci_law_6_sha256": law_sha,
        },
    }
    with open(jobs.GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
