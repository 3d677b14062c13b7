"""Shared fixtures: the example rules, both from the packaged configs and as
parameterised builders with symbolic-friendly rational probabilities."""

import subprocess
import sys
from bisect import bisect_right
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import stochsub
from stochsub import Alphabet, GuardExceeded, RationalMatrix, SubstitutionRule
from stochsub.guards import SAMPLE_LETTER_LIMIT, guard_limit
from stochsub.language import _window_counts

CONFIG_DIR = resources.files("stochsub") / "configs"

AB = Alphabet(["a", "b"])


def child_env(**env: str) -> dict[str, str]:
    """The environment of a child Python process: `env`, plus
    PYTHONDONTWRITEBYTECODE=1 where this process writes no bytecode, so that
    a test run without bytecode leaves no __pycache__ in the checkout."""
    return {**env, **({"PYTHONDONTWRITEBYTECODE": "1"} if sys.dont_write_bytecode else {})}


def peak_rss_kb(*argv, env=None):
    """Exit code and peak RSS (kB) of a child process that runs the CLI with
    argv and the environment variables in env, its stdout sent to the null
    device.

    The peak is the child's VmHWM, not its ru_maxrss: on Linux ru_maxrss
    keeps the spawning process's peak across exec, here that of pytest."""
    script = (
        "import contextlib, os, sys\n"
        "from stochsub.cli import run\n"
        "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
        "    code = run(sys.argv[1:])\n"
        "with open('/proc/self/status') as status:\n"
        "    peak = next(line.split()[1] for line in status\n"
        "                if line.startswith('VmHWM:'))\n"
        "print(code, peak)\n"
    )
    src = str(Path(stochsub.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, check=True,
        env=child_env(PYTHONPATH=src, **(env or {})))
    code, maxrss_kb = map(int, done.stdout.split())
    return code, maxrss_kb


def rational_matrix(rows, denominator=1) -> RationalMatrix:
    """The matrix with entries rows[i][j] / denominator, labelled 0..n-1; the
    entries are taken as given, so a float, inf or nan reaches the solve."""
    n = len(rows)
    columns = tuple({i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(n))
    return RationalMatrix(tuple(range(n)), columns, denominator)


def dense_to_float(mat):
    """Oracle: the float matrix converted cell by cell from the dense rows,
    zeros included."""
    return np.array([[float(x) for x in row] for row in mat.rows], dtype=float)


def scatter(columns, size):
    """The dense array of sparse float columns, as `to_float` returns them."""
    dense = np.zeros((size, size))
    for j, (rows, values) in enumerate(columns):
        dense[rows, j] = values
    return dense


def make_fibonacci(p1=Fraction(1, 2), p2=None) -> SubstitutionRule:
    """a -> ab | ba, b -> a."""
    if p2 is None:
        p2 = 1 - p1
    return SubstitutionRule(AB, [
        [(AB.encode("ab"), Fraction(p1)), (AB.encode("ba"), Fraction(p2))],
        [(AB.encode("a"), Fraction(1))],
    ])


def make_period_doubling(p=Fraction(1, 2)) -> SubstitutionRule:
    """a -> ab | ba, b -> aa."""
    p = Fraction(p)
    return SubstitutionRule(AB, [
        [(AB.encode("ab"), p), (AB.encode("ba"), 1 - p)],
        [(AB.encode("aa"), Fraction(1))],
    ])


def make_zeta(p=Fraction(1, 2)) -> SubstitutionRule:
    """a, b -> ab | ba with the same probabilities."""
    p = Fraction(p)
    images = [(AB.encode("ab"), p), (AB.encode("ba"), 1 - p)]
    return SubstitutionRule(AB, [list(images), list(images)])


def make_non_expanding(p1=Fraction(1, 2)) -> SubstitutionRule:
    """a, b -> a | b: primitive but every image is a single letter."""
    p1 = Fraction(p1)
    images = [(AB.encode("a"), p1), (AB.encode("b"), 1 - p1)]
    return SubstitutionRule(AB, [list(images), list(images)])


def make_deterministic_fibonacci() -> SubstitutionRule:
    return SubstitutionRule(AB, [
        [(AB.encode("ab"), Fraction(1))],
        [(AB.encode("a"), Fraction(1))],
    ])


def make_no_inflating_power() -> SubstitutionRule:
    """a -> a | bb, b -> a: primitive and expanding, but a -> a keeps a
    one-letter image in every power."""
    half = Fraction(1, 2)
    return SubstitutionRule(AB, [
        [(AB.encode("a"), half), (AB.encode("bb"), half)],
        [(AB.encode("a"), Fraction(1))],
    ])


def make_large_power() -> SubstitutionRule:
    """Three letters whose shortest images reach two letters only at the
    third power, which has millions of realisations."""
    abc = Alphabet(["a", "b", "c"])
    support = (("b", "ab", "ba", "ac", "ca"), ("c", "bc", "cb", "ab"),
               ("ab", "ba", "bc", "cb", "ac", "ca", "abc"))
    return SubstitutionRule(abc, [
        [(abc.encode(w), Fraction(1, len(ws))) for w in ws] for ws in support
    ])


@st.composite
def small_rules(draw, max_letters=3, max_images=3, max_length=3, min_length=1):
    """Random rules with 2..max_letters letters, each with 1..max_images
    distinct images of length min_length..max_length and positive rational
    weights; callers filter for primitivity."""
    size = draw(st.integers(2, max_letters))
    alphabet = Alphabet("abc"[:size])
    word = st.lists(st.integers(0, size - 1), min_size=min_length,
                    max_size=max_length)
    images = []
    for _ in range(size):
        words = draw(st.lists(word.map(tuple), min_size=1, max_size=max_images,
                              unique=True))
        weights = draw(st.lists(st.integers(1, 4), min_size=len(words),
                                max_size=len(words)))
        images.append([(w, Fraction(x, sum(weights)))
                       for w, x in zip(words, weights)])
    return SubstitutionRule(alphabet, images)


@pytest.fixture(scope="session")
def fibonacci():
    return SubstitutionRule.from_file(CONFIG_DIR / "fibonacci.json")


@pytest.fixture(scope="session")
def period_doubling():
    return SubstitutionRule.from_file(CONFIG_DIR / "period_doubling.json")


@pytest.fixture(scope="session")
def zeta():
    return SubstitutionRule.from_file(CONFIG_DIR / "zeta.json")


@pytest.fixture(scope="session")
def dyck():
    return SubstitutionRule.from_file(CONFIG_DIR / "dyck.json")


@pytest.fixture(scope="session")
def non_expanding():
    return SubstitutionRule.from_file(CONFIG_DIR / "non_expanding.json")


@pytest.fixture(scope="session")
def det_fibonacci():
    return SubstitutionRule.from_file(CONFIG_DIR / "deterministic_fibonacci.json")


def column_weights(images, u, ell, budget, scale=1, mass=1):
    """The realisation kernel of one word: the weights of the ell-windows that
    start in the image of u[0], scaled by `scale`, as an induced column."""
    return _window_counts(images, [u], ell, budget, [scale], mass)


def reference_trials(rule, letter, n, trials, seed):
    """The per-letter trial loop the batched engine replaced: one trial at a
    time, each letter's image chosen by bisecting its cumulative
    probabilities with its own uniform, and a word over the letter guard
    refused after the round that builds it."""
    (start,) = rule.encode((letter,))
    limit = guard_limit(SAMPLE_LETTER_LIMIT)
    words, thresholds = [], []
    for entries in rule.images:
        acc, cum = 0.0, []
        for _, p in entries:
            acc += float(p)
            cum.append(acc)
        cum[-1] = 1.0 + 1e-15  # guard against roundoff at the top end
        words.append([w for w, _ in entries])
        thresholds.append(cum)
    for i in range(trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i])))
        word = [start]
        for _ in range(n):
            out = []
            for c, u in zip(word, rng.random(len(word))):
                out.extend(words[c][bisect_right(thresholds[c], u)])
            if len(out) > limit:
                raise GuardExceeded(f"sampled word exceeds letter budget {limit}")
            word = out
        yield word
