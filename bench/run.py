"""Benchmark runner for stochsub.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: jobs import stochsub from ./src.
Each job of the workload runs in its own child process, one at a time, and
the job list is repeated in passes (in a seeded order) until the next pass
would end after S seconds.  Timings are medians over passes; every output is
checked against the goldens and oracles of jobs.py.

With --trace 0 the passes are untraced and the end-to-end metrics of
BENCHMARK.json are reported.  With --trace 1 untraced and traced passes
alternate; the per-layer metrics come from the traced passes (medians), and
trace.overhead_s is the difference of the median pass times.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A per-pass report is written to
.bench_out/; a summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
import tracer

# set-up probes before the first pass and after each pass, so that the
# median samples the whole run
SETUP_PROBES_FIRST = 3
SETUP_PROBES_PER_PASS = 1
SETUP_CODE = ("from stochsub.substitution import SubstitutionRule; "
              "SubstitutionRule.from_file('src/stochsub/configs/fibonacci.json')")
OUT_DIR = ".bench_out"
HARD_LIMIT_S = 150   # jobs still running then are killed and count as failed


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def python(root: Path, code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], cwd=root, env=jobs.child_env(root),
                          capture_output=True, text=True, timeout=60)


def verify_checkout(root: Path) -> None:
    """Refuse to run unless stochsub is imported from this checkout's src/."""
    init = root / "src" / "stochsub" / "__init__.py"
    if not (init.is_file() and (root / "BENCHMARK.json").is_file()):
        raise BenchError(f"{root} is not a stochsub checkout (no src/stochsub)")
    probe = python(root, "import stochsub; print(stochsub.__file__)")
    if probe.returncode != 0 or Path(probe.stdout.strip()).resolve() != init.resolve():
        raise BenchError(f"stochsub does not import from {init}: {probe.stderr[-500:]}")


def probe_setup(root: Path, times: list[float], count: int) -> None:
    """Wall times of children that start, import stochsub and parse a config,
    computing nothing."""
    for _ in range(count):
        start = time.perf_counter()
        probe = python(root, SETUP_CODE)
        times.append(time.perf_counter() - start)
        if probe.returncode != 0:
            raise BenchError(f"set-up probe failed: {probe.stderr[-500:]}")


class Checker:
    """Checks each distinct (job, exit code, stdout) once."""

    def __init__(self, ctx: jobs.Context):
        self.ctx = ctx
        self._seen: dict[tuple, str | None] = {}

    def __call__(self, job: jobs.Job, result: jobs.Result) -> str | None:
        key = (job.id, result.rc, jobs.sha256(result.out))
        if key not in self._seen:
            self._seen[key] = jobs.check(job, result, self.ctx)
        return self._seen[key]


def run_pass(job_list, root: Path, checker: Checker, traced: bool, hard_stop: float) -> dict:
    """One pass over the jobs.  Untraced passes run the reference program
    before every job; traced passes collect every job's spans."""
    start = time.perf_counter()
    records, job_spans, all_spans = [], [], []
    for job in job_list:
        timeout = max(1.0, hard_stop - time.perf_counter())
        if traced:
            spans_path = root / OUT_DIR / f"spans-{job.id}.json"
            result = jobs.run_job(job, root, spans_path, timeout)
            record = {"job": job.id, "wall": result.wall, "cpu": result.cpu,
                      "error": checker(job, result)}
            try:
                spans = json.loads(spans_path.read_text())
                spans_path.unlink()
            except (OSError, ValueError) as exc:
                spans = []
                record["error"] = record["error"] or f"no spans: {exc}"
            job_spans.append(spans)
            all_spans.extend(dict(span, job=job.id) for span in spans)
            record["unattributed_s"] = result.wall - tracer.top_level_time(spans)
        else:
            ref = jobs.run_job(jobs.REFERENCE, root, timeout=timeout)
            result = jobs.run_job(job, root, None, timeout)
            record = {"job": job.id, "wall": result.wall, "cpu": result.cpu,
                      "ref_wall": ref.wall, "ref_cpu": ref.cpu,
                      "error": checker(job, result)}
            if ref.rc != 0:
                record["error"] = record["error"] or f"reference failed: {ref.err[-300:]}"
        records.append(record)
    walls = [r["wall"] for r in records]
    summary = {"traced": traced, "wall": sum(walls), "cpu": sum(r["cpu"] for r in records),
               "slowest": max(walls), "jobs": records}
    if traced:
        summary["layers"] = tracer.layer_metrics(job_spans)
        summary["layers"]["trace.unattributed_share"] = (
            sum(r["unattributed_s"] for r in records) / summary["wall"])
        summary["spans"] = all_spans
    else:
        ref_wall = statistics.mean(r["ref_wall"] for r in records)
        ref_cpu = statistics.mean(r["ref_cpu"] for r in records)
        summary.update(wall_ref=summary["wall"] / ref_wall, cpu_ref=summary["cpu"] / ref_cpu,
                       slowest_ref=summary["slowest"] / ref_wall)
    summary["elapsed"] = time.perf_counter() - start
    return summary


def run_passes(job_list, root, checker, seed, seconds, trace, setup) -> list[dict]:
    """Passes until the next one would end after the deadline.  With tracing,
    untraced and traced passes alternate and at least one of each runs."""
    order = random.Random(seed)
    deadline = time.perf_counter() + seconds
    hard_stop = time.perf_counter() + HARD_LIMIT_S
    passes: list[dict] = []
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        passes.append(run_pass(order.sample(job_list, len(job_list)), root, checker,
                               traced, hard_stop))
        probe_setup(root, setup, SETUP_PROBES_PER_PASS)
        if time.perf_counter() > hard_stop:
            return passes
        if trace and len(passes) < 2:
            continue
        next_traced = bool(trace) and len(passes) % 2 == 1
        similar = [p["elapsed"] for p in passes if p["traced"] == next_traced]
        if time.perf_counter() + statistics.median(similar) > deadline:
            return passes


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def metrics(spec: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        verify_checkout(root)
        with open(root / "BENCHMARK.json") as fh:
            bench = json.load(fh)
        goldens = jobs.load_goldens()
        (root / OUT_DIR).mkdir(exist_ok=True)
        job_list = jobs.workload(args.workload, args.seed)
        checker = Checker(jobs.Context(root, args.seed, goldens))
        setup: list[float] = []
        probe_setup(root, setup, SETUP_PROBES_FIRST)
        passes = run_passes(job_list, root, checker, args.seed, args.seconds,
                            args.trace, setup)
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_s = statistics.median(setup)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace and not traced:
        print(f"error: no traced pass within {HARD_LIMIT_S} s", file=sys.stderr)
        return 2
    if args.trace:
        layers = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = median_of(traced, "wall") - median_of(plain, "wall")
        result_metrics = metrics(bench["per_layer"], layers)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result_metrics = metrics(bench["end_to_end"], {
            "wall_ref": median_of(plain, "wall_ref"),
            "cpu_ref": median_of(plain, "cpu_ref"),
            "slowest_job_ref": median_of(plain, "slowest_ref"),
            "setup_s": setup_s,
            "peak_rss_mb": peak_kb / 1024,
        })

    records = [r for p in passes for r in p["jobs"]]
    errors = sorted({(r["job"], r["error"]) for r in records if r["error"]})
    stem = root / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced:
        spans = [p.pop("spans") for p in traced]
        stem.with_suffix(".spans.json").write_text(json.dumps(spans))
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_s": setup_s, "passes": passes, "metrics": result_metrics}
    report_path = stem.with_suffix(".json")
    report_path.write_text(json.dumps(report, indent=1))

    for job in job_list:
        walls = [r["wall"] for p in plain for r in p["jobs"] if r["job"] == job.id]
        line = f"{job.id:>22}  median {statistics.median(walls):7.3f} s"
        if traced:
            shares = [r["unattributed_s"] / r["wall"] for p in traced
                      for r in p["jobs"] if r["job"] == job.id]
            line += f"  unattributed {statistics.median(shares):6.1%}"
        print(line, file=sys.stderr)
    for job_id, error in errors:
        print(f"FAILED {job_id}: {error}", file=sys.stderr)
    print(f"{len(passes)} passes; report in {report_path.relative_to(root)}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": len(records),
                      "failed": sum(1 for r in records if r["error"]),
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
