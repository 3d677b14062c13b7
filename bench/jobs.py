"""Benchmark workloads: their job lists, how a job is run, and how its output
is checked.

Every job is a separate process.  Outputs are checked against goldens
recorded at the seed commit (``goldens.json``, written by
``record_goldens.py``) and, where one exists, against an oracle from
``oracles.py`` that does not call stochsub.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracles
from child import KERNEL_SAMPLE

BENCH_DIR = Path(__file__).resolve().parent
GOLDENS = BENCH_DIR / "goldens.json"
CONFIGS = "src/stochsub/configs"
GOLDEN_SEED = 1729   # sampler goldens are byte-identical at this seed
FLOAT_TOL = 1e-12
SIGMAS = 5


@dataclass(frozen=True)
class Job:
    id: str
    kind: str                    # "cli", "lib" or "reference"
    args: tuple[str, ...]
    rc: int = 0
    env: tuple[tuple[str, str], ...] = ()
    checks: tuple = ()           # functions (out, ctx) -> error message or None


@dataclass
class Context:
    root: Path
    seed: int
    goldens: dict
    job: Job | None = None
    _rules: dict = field(default_factory=dict)

    @property
    def golden(self) -> dict:
        return self.goldens["jobs"][self.job.id]

    @property
    def oracle(self) -> dict:
        return self.goldens["oracles"]

    def rules(self, name):
        if name not in self._rules:
            self._rules[name] = oracles.load_rules(self.root / CONFIGS / f"{name}.json")
        return self._rules[name]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- checks ------------------------------------------------------------------

def same_bytes(out, ctx):
    if sha256(out) != ctx.golden["sha256"]:
        return "stdout differs from the golden bytes"


def same_bytes_at_golden_seed(out, ctx):
    if ctx.seed == GOLDEN_SEED:
        return same_bytes(out, ctx)


def _close(a, b, path="$"):
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return f"{path}: keys differ"
        for k in a:
            if err := _close(a[k], b[k], f"{path}.{k}"):
                return err
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path}: lengths differ"
        for i, (x, y) in enumerate(zip(a, b)):
            if err := _close(x, y, f"{path}[{i}]"):
                return err
    elif (isinstance(a, (int, float)) and isinstance(b, (int, float))
          and not isinstance(a, bool) and not isinstance(b, bool)):
        if not abs(a - b) <= FLOAT_TOL:
            return f"{path}: {a!r} vs golden {b!r}"
    elif a != b:
        return f"{path}: {a!r} vs golden {b!r}"


def same_json(out, ctx):
    """Numbers within FLOAT_TOL of the golden, everything else equal."""
    return _close(json.loads(out), json.loads(ctx.golden["stdout"]))


def check_rows_pass(out, ctx):
    """Every `check` row passes, and details match the golden (numbers within
    FLOAT_TOL)."""
    def rows(text):
        table = []
        for line in text.splitlines():
            name, status, detail = line.split("\t")
            try:
                detail = float(detail)
            except ValueError:
                pass
            table.append([name, status, detail])
        return table

    got = rows(out)
    if not got or any(status != "pass" for _, status, _ in got):
        return "a check row did not pass"
    return _close(got, rows(ctx.golden["stdout"]))


def bb_is_one_21st(out, ctx):
    value = json.loads(out)["measure"]
    if not abs(value - 1 / 21) <= FLOAT_TOL:
        return f"period_doubling bb measure {value!r} is not 1/21"


def _tsv_stats(out):
    return {row[0]: row[1] for row in (line.split("\t") for line in out.splitlines())}


def _within(estimate, stderr, exact, what):
    if not abs(estimate - exact) <= SIGMAS * stderr:
        return (f"{what}: estimate {estimate!r} is more than {SIGMAS} standard "
                f"errors ({stderr!r}) from the exact {exact!r}")


def pd_iterate_word(out, ctx):
    """Length and letter counts are fixed for period_doubling, and every
    3-window must be a legal word."""
    word, length_row = out.rstrip("\n").split("\n")
    counts = oracles.iterate_letter_counts(ctx.rules("period_doubling"), "a", 20)
    if length_row != f"length\t{len(word)}" or len(word) != sum(counts.values()):
        return "wrong iterate length"
    if any(word.count(c) != k for c, k in counts.items()):
        return "wrong letter counts"
    legal = set(ctx.oracle["period_doubling_words_3"])
    if not {word[i:i + 3] for i in range(len(word) - 2)} <= legal:
        return "iterate contains an illegal 3-word"


def fib_pair_frequency(out, ctx):
    """The estimator averages count/length over trials; fibonacci iterates
    have a fixed length, so its mean is the exact expected pair count over
    that length (which differs from the limit frequency by a boundary term of
    about 5 standard errors at n=10)."""
    stats = _tsv_stats(out)
    rules = ctx.rules("fibonacci")
    length = sum(oracles.iterate_letter_counts(rules, "a", 10).values())
    exact = oracles.expected_pair_count(rules, "a", "ab", 10) / length
    if stats["trials"] != "2000" or stats["seed"] != str(ctx.seed):
        return "wrong trials or seed"
    return _within(float(stats["estimate"]), float(stats["stderr"]), float(exact),
                   "fibonacci ab")


def fib_length_tail(out, ctx):
    (label, value), = (line.split("\t") for line in out.splitlines())
    length = sum(oracles.iterate_letter_counts(ctx.rules("fibonacci"), "a", 14).values())
    exact = 1.0 if length < 2.0 * 14 else 0.0
    if label != "fraction" or float(value) != exact:
        return f"tail fraction {value} but every iterate has length {length}"


def dyck_pair_frequency(out, ctx):
    stats = _tsv_stats(out)
    return _within(float(stats["estimate"]), float(stats["stderr"]),
                   ctx.oracle["dyck_paren_measure"], "dyck ()")


def law_sample(out, ctx):
    """Prefix-3 marginals of the sampled iterate law against the exact law."""
    counts = json.loads(out)
    trials = sum(counts.values())
    length = sum(oracles.iterate_letter_counts(ctx.rules("fibonacci"), "a", 6).values())
    if trials != 5000 or any(len(w) != length for w in counts):
        return "wrong trial count or word length"
    exact = {k: float(Fraction(v)) for k, v in ctx.oracle["fibonacci_law_6_prefix_3"].items()}
    seen: dict[str, int] = {}
    for w, k in counts.items():
        seen[w[:3]] = seen.get(w[:3], 0) + k
    if not seen.keys() <= exact.keys():
        return "sampled a prefix outside the support"
    for prefix, p in exact.items():
        stderr = math.sqrt(p * (1 - p) / trials)
        if err := _within(seen.get(prefix, 0) / trials, stderr, p, f"prefix {prefix}"):
            return err


def law_kernel(out, ctx):
    """The law section is exact and seed independent; kernel rows are checked
    against the product formula."""
    law, kernel = [], []
    for line in out.splitlines():
        (law if line.startswith("law\t") else kernel).append(line)
    if sha256("\n".join(law)) != ctx.oracle["fibonacci_law_6_sha256"]:
        return "iterate law differs from the golden"
    support = {line.split("\t")[1] for line in law}
    rules = ctx.rules("fibonacci")
    sources = set()
    for line in kernel:
        tag, u, v, value = line.split("\t")
        exact = oracles.kernel(rules, u, v)
        if tag != "kernel" or u not in support or exact == 0 or Fraction(value) != exact:
            return f"kernel row {line!r} is wrong"
        sources.add(u)
    if len(sources) != KERNEL_SAMPLE:
        return f"kernel sample is not {KERNEL_SAMPLE} distinct support words"


# -- workloads -----------------------------------------------------------------

def _cli(job_id, *args, **kw):
    return Job(job_id, "cli", tuple(str(a) for a in args), **kw)


def _cfg(name):
    return f"{CONFIGS}/{name}.json"


SMOKE = Job("smoke", "lib", ("smoke", str(GOLDEN_SEED)), checks=(same_json,))

WORKLOADS = ("freqs-entropy", "exact-tables", "monte-carlo")


def workload(name: str, seed: int) -> list[Job]:
    """The jobs of one workload; the seed drives the sampler and the kernel
    sample.  Each workload also runs the smoke job, so every layer's metrics
    are measured on it."""
    s = str(seed)
    if name == "freqs-entropy":
        return [
            _cli("pd-entropy-10", "entropy", "--config", _cfg("period_doubling"),
                 "--max-n", 10, "--format", "json", checks=(same_json,)),
            _cli("zeta-entropy-10", "entropy", "--config", _cfg("zeta"),
                 "--max-n", 10, "--format", "json", checks=(same_json,)),
            _cli("fib-entropy-9", "entropy", "--config", _cfg("fibonacci"),
                 "--max-n", 9, "--format", "json", checks=(same_json,)),
            _cli("pd-freqs-bb", "freqs", "--config", _cfg("period_doubling"),
                 "--ell", 2, "--word", "bb", "--format", "json",
                 checks=(same_json, bb_is_one_21st)),
            _cli("fib-check", "check", "--config", _cfg("fibonacci"),
                 checks=(check_rows_pass,)),
            _cli("dyck-check", "check", "--config", _cfg("dyck"),
                 checks=(check_rows_pass,)),
            SMOKE,
        ]
    if name == "exact-tables":
        return [
            _cli("dyck-language-5", "language", "--config", _cfg("dyck"),
                 "--ell", 5, checks=(same_bytes,)),
            _cli("pd-matrix-9", "matrix", "--config", _cfg("period_doubling"),
                 "--ell", 9, checks=(same_bytes,)),
            _cli("zeta-matrix-10", "matrix", "--config", _cfg("zeta"),
                 "--ell", 10, checks=(same_bytes,)),
            Job("law-kernel", "lib", ("law-kernel", s),
                checks=(law_kernel, same_bytes_at_golden_seed)),
            # exit-code contract: 1 usage or validation, 2 guard tripped
            _cli("non-expanding-freqs", "freqs", "--config", _cfg("non_expanding"),
                 "--ell", 2, rc=1, checks=(same_bytes,)),
            _cli("fib-sample-guard", "sample", "--config", _cfg("fibonacci"),
                 "--letter", "a", "--n", 12, rc=2,
                 env=(("STOCHSUB_GUARD_LIMIT", "10"),), checks=(same_bytes,)),
            Job("iterate-guard", "lib", ("iterate-guard", s), rc=2,
                checks=(same_bytes,)),
            SMOKE,
        ]
    if name == "monte-carlo":
        return [
            _cli("pd-sample-n20", "sample", "--config", _cfg("period_doubling"),
                 "--letter", "a", "--n", 20, "--seed", s,
                 checks=(pd_iterate_word, same_bytes_at_golden_seed)),
            _cli("fib-sample-ab", "sample", "--config", _cfg("fibonacci"),
                 "--letter", "a", "--n", 10, "--trials", 2000, "--word", "ab",
                 "--seed", s,
                 checks=(fib_pair_frequency, same_bytes_at_golden_seed)),
            _cli("fib-sample-tail", "sample", "--config", _cfg("fibonacci"),
                 "--letter", "a", "--n", 14, "--trials", 1000, "--tail-K", "2.0",
                 "--seed", s,
                 checks=(fib_length_tail, same_bytes_at_golden_seed)),
            _cli("dyck-sample", "sample", "--config", _cfg("dyck"),
                 "--letter", "(", "--n", 8, "--trials", 200, "--word", "()",
                 "--seed", s,
                 checks=(dyck_pair_frequency, same_bytes_at_golden_seed)),
            # the growth factor and direction are seed independent here:
            # period_doubling iterates have fixed length and letter counts
            Job("gw", "lib", ("gw", s), checks=(same_json,)),
            Job("law-sample", "lib", ("law-sample", s),
                checks=(law_sample, same_bytes_at_golden_seed)),
            SMOKE,
        ]
    raise KeyError(name)


# -- running -------------------------------------------------------------------

def child_env(root: Path, extra=()) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.update(extra)
    return env


REFERENCE = Job("reference", "reference", ())


def command(job: Job, spans: Path | None) -> list[str]:
    if job.kind == "reference":
        return [sys.executable, str(BENCH_DIR / "reference.py")]
    if job.kind == "cli" and spans is None:
        return [sys.executable, "-m", "stochsub.cli", *job.args]
    traced = ["--spans", str(spans)] if spans is not None else []
    return [sys.executable, str(BENCH_DIR / "child.py"), *traced, job.kind, *job.args]


@dataclass
class Result:
    rc: int | None
    out: str
    err: str
    wall: float
    cpu: float


def run_job(job: Job, root: Path, spans: Path | None = None,
            timeout: float = 150) -> Result:
    """Run one job to completion; wall time from the parent, CPU time as the
    growth of this process's reaped-children usage (jobs run one at a time)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.Popen(command(job, spans), cwd=root, env=child_env(root, job.env),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        rc = None   # killed: counts as a wrong exit code
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return Result(rc, out, err, wall, cpu)


def check(job: Job, result: Result, ctx: Context) -> str | None:
    """None when the exit code and every check pass, else the first error."""
    if result.rc != job.rc:
        return f"exit code {result.rc}, expected {job.rc}: {result.err.strip()[-300:]}"
    ctx.job = job
    for fn in job.checks:
        try:
            err = fn(result.out, ctx)
        except (ValueError, KeyError, TypeError) as exc:
            err = f"unparsable output ({exc!r})"
        if err:
            return f"{fn.__name__}: {err}"
    return None


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)
