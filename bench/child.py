"""One benchmark job, run in its own process.

    python3 bench/child.py [--spans FILE] cli ARG...
    python3 bench/child.py [--spans FILE] lib NAME SEED

``cli`` runs ``stochsub.cli.run`` on the arguments; ``lib`` runs one of the
library jobs below.  With ``--spans`` the public callables of stochsub are
wrapped first and the recorded spans are written to FILE when the job ends.
Untraced CLI jobs are run as ``python3 -m stochsub.cli`` instead, so they
measure exactly what a user runs.

Library jobs print their results to standard output.  A job that trips a
resource guard exits with 2, like the CLI.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

CONFIGS = Path("src/stochsub/configs")
SMOKE_SEED = 1729
KERNEL_SAMPLE = 500


def _rule(name):
    from stochsub import substitution

    return substitution.SubstitutionRule.from_file(CONFIGS / f"{name}.json")


def _fraction(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def lib_law_kernel(seed: int) -> None:
    """Exact iterate law of fibonacci from "a" at depth 6, then the kernel
    from a seeded sample of its support to a seeded realisation of each."""
    rule = _rule("fibonacci")
    law = rule.iterate_distribution("a", 6)
    decode = rule.alphabet.decode
    lines = [f"law\t{decode(w)}\t{_fraction(p)}" for w, p in sorted(law.entries.items())]
    rng = random.Random(seed)
    for u in rng.sample(sorted(law.entries), KERNEL_SAMPLE):
        v = sum((rng.choice(rule.images[c])[0] for c in u), ())
        lines.append(f"kernel\t{decode(u)}\t{decode(v)}\t{_fraction(rule.kernel(u, v))}")
    print("\n".join(lines))


def lib_iterate_guard(seed: int) -> None:
    """iterate_distribution past its support guard; must raise GuardExceeded."""
    law = _rule("fibonacci").iterate_distribution("a", 6, max_support=500)
    print(len(law.entries))


def lib_gw(seed: int) -> None:
    from stochsub import sampler

    stats = sampler.gw_direction_estimate(_rule("period_doubling"), "a", 12, 200,
                                          seed=seed)
    print(json.dumps({"max_direction_distance": stats.max_direction_distance,
                      "mean_growth_factor": stats.mean_growth_factor,
                      "trials": stats.trials, "depth": stats.depth}))


def lib_law_sample(seed: int) -> None:
    from stochsub import sampler

    rule = _rule("fibonacci")
    counts = sampler.sample_iterate_law(rule, "a", 6, 5000, seed=seed)
    print(json.dumps({rule.alphabet.decode(w): k for w, k in sorted(counts.items())}))


def lib_smoke(seed: int) -> None:
    """Every layer once at a small size on fibonacci, with a fixed seed."""
    from stochsub import entropy, measure, sampler

    rule = _rule("fibonacci")
    law = rule.iterate_distribution("a", 3)
    fm = measure.FrequencyMeasure(rule)
    words, vec = fm.frequency_vector(3)
    stats = sampler.empirical_frequency(rule, "a", "ab", 6, 20, seed=SMOKE_SEED)
    word = sampler.sample_iterate(rule, "a", 12, seed=SMOKE_SEED)
    print(json.dumps({
        "law": {rule.alphabet.decode(w): _fraction(p) for w, p in sorted(law.entries.items())},
        "kernel": _fraction(rule.kernel("ab", "aba")),
        "freqs": dict(zip(map(rule.alphabet.decode, words), map(float, vec))),
        "consistency_ok": bool(fm.consistency_residual(1, 3) <= 1e-9),
        "metric": entropy.metric_entropy_partial(fm, 3),
        "topological": entropy.topological_entropy_partial(rule, 3),
        "estimate": stats.estimate,
        "stderr": stats.stderr,
        "iterate": rule.alphabet.decode(word),
    }))


LIB_JOBS = {
    "law-kernel": lib_law_kernel,
    "iterate-guard": lib_iterate_guard,
    "gw": lib_gw,
    "law-sample": lib_law_sample,
    "smoke": lib_smoke,
}


def main(argv: list[str]) -> int:
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
        import tracer

        collector = tracer.Collector()
        collector.install()
    from stochsub.guards import GuardExceeded

    try:
        if argv[0] == "cli":
            import stochsub.cli

            return stochsub.cli.run(argv[1:])
        try:
            LIB_JOBS[argv[1]](int(argv[2]))
        except GuardExceeded as exc:
            print(f"error: GuardExceeded: {exc}", file=sys.stderr)
            return 2
        return 0
    finally:
        if spans is not None:
            collector.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
