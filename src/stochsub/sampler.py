"""Monte-Carlo simulation of the substitution Markov chain.

Reproducibility contract: trial i of a run with base seed s draws from
numpy's PCG64 generator seeded with SeedSequence([s, i]).  Within a trial,
words are rewritten round by round; each round consumes one uniform per
letter, left to right (also for letters with a single image, so streams stay
aligned across rules).  Results are therefore independent of scheduling.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .guards import SAMPLE_LETTER_LIMIT, GuardExceeded, guard_limit
from .spectral import pf_eigenpair
from .substitution import SubstitutionRule, Word
from .words import WordLike, abelianise, count_occurrences

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class SampleStats:
    estimate: float
    stderr: float
    trials: int
    depth: int
    seed: int


@dataclass(frozen=True)
class DirectionStats:
    """Per-trial normalised letter-count vectors versus the PF direction."""

    max_direction_distance: float
    mean_growth_factor: float   # mean of |word| / lambda^n, estimating W
    growth_factors: tuple[float, ...]
    trials: int
    depth: int
    seed: int


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, trial])))


def _image_tables(rule: SubstitutionRule):
    """Per letter: list of image words and cumulative probability thresholds."""
    words, thresholds = [], []
    for entries in rule.images:
        ws = [w for w, _ in entries]
        acc, cum = 0.0, []
        for _, p in entries:
            acc += float(p)
            cum.append(acc)
        cum[-1] = 1.0 + 1e-15  # guard against roundoff at the top end
        words.append(ws)
        thresholds.append(cum)
    return words, thresholds


def _run_trial(
    rule: SubstitutionRule,
    tables,
    start: int,
    n: int,
    rng: np.random.Generator,
    limit: int,
) -> list[int]:
    words, thresholds = tables
    word = [start]
    for _ in range(n):
        draws = rng.random(len(word))
        out: list[int] = []
        for c, u in zip(word, draws):
            out.extend(words[c][bisect_right(thresholds[c], u)])
        if len(out) > limit:
            raise GuardExceeded(f"sampled word exceeds letter budget {limit}")
        word = out
    return word


def sample_iterate(
    rule: SubstitutionRule,
    letter,
    n: int,
    seed: int = DEFAULT_SEED,
    max_letters: int | None = None,
) -> Word:
    """One realisation of the n-th iterate; deterministic in (rule, args, seed)."""
    if n < 0:
        raise ValueError("iteration depth must be nonnegative")
    start = rule.alphabet.code(letter) if isinstance(letter, str) else int(letter)
    limit = guard_limit(SAMPLE_LETTER_LIMIT, max_letters)
    word = _run_trial(rule, _image_tables(rule), start, n, _trial_rng(seed, 0), limit)
    return tuple(word)


def empirical_frequency(
    rule: SubstitutionRule,
    letter,
    v: WordLike,
    n: int,
    trials: int,
    seed: int = DEFAULT_SEED,
    max_letters: int | None = None,
) -> SampleStats:
    """Mean and standard error of the relative frequency of v across
    independent realisations of the n-th iterate."""
    if trials < 1 or n < 1:
        raise ValueError("need n >= 1 and trials >= 1")
    v = rule.encode(v)
    if not rule.language().is_legal(v):
        raise ValueError(f"word {rule.alphabet.decode(v)!r} is not legal")
    start = rule.alphabet.code(letter) if isinstance(letter, str) else int(letter)
    limit = guard_limit(SAMPLE_LETTER_LIMIT, max_letters)
    tables = _image_tables(rule)
    freqs = np.empty(trials)
    for i in range(trials):
        word = _run_trial(rule, tables, start, n, _trial_rng(seed, i), limit)
        freqs[i] = count_occurrences(word, v) / len(word)
    stderr = float(freqs.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return SampleStats(
        estimate=float(freqs.mean()), stderr=stderr, trials=trials, depth=n, seed=seed
    )


def sample_iterate_law(
    rule: SubstitutionRule,
    letter,
    n: int,
    trials: int,
    seed: int = DEFAULT_SEED,
) -> dict[Word, int]:
    """Empirical counts of the realisations of the n-th iterate."""
    start = rule.alphabet.code(letter) if isinstance(letter, str) else int(letter)
    limit = guard_limit(SAMPLE_LETTER_LIMIT, None)
    tables = _image_tables(rule)
    counts: dict[Word, int] = {}
    for i in range(trials):
        word = tuple(_run_trial(rule, tables, start, n, _trial_rng(seed, i), limit))
        counts[word] = counts.get(word, 0) + 1
    return counts


def gw_direction_estimate(
    rule: SubstitutionRule,
    letter,
    n: int,
    trials: int,
    seed: int = DEFAULT_SEED,
) -> DirectionStats:
    """Check the almost-sure direction of the letter-count branching process.

    Per trial, the normalised letter-count vector is compared (L1) against
    the PF right eigenvector; word length over lambda^n estimates the
    limiting growth factor, whose law is not modelled here.
    """
    primitive, _ = rule.is_primitive()
    if not (primitive and rule.is_expanding()):
        raise ValueError("direction estimates need a primitive expanding rule")
    start = rule.alphabet.code(letter) if isinstance(letter, str) else int(letter)
    pair = pf_eigenpair(rule.mean_matrix())
    size = rule.alphabet.size
    limit = guard_limit(SAMPLE_LETTER_LIMIT, None)
    tables = _image_tables(rule)
    worst = 0.0
    growth = []
    for i in range(trials):
        word = _run_trial(rule, tables, start, n, _trial_rng(seed, i), limit)
        counts = np.array(abelianise(word, size), dtype=float)
        direction = counts / counts.sum()
        worst = max(worst, float(np.abs(direction - pair.right).sum()))
        growth.append(len(word) / pair.value**n)
    return DirectionStats(
        max_direction_distance=worst,
        mean_growth_factor=float(np.mean(growth)),
        growth_factors=tuple(growth),
        trials=trials,
        depth=n,
        seed=seed,
    )


def length_tail(
    rule: SubstitutionRule,
    letter,
    n: int,
    k: float,
    trials: int,
    seed: int = DEFAULT_SEED,
) -> float:
    """Empirical probability that the n-th iterate is shorter than k * n."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    start = rule.alphabet.code(letter) if isinstance(letter, str) else int(letter)
    limit = guard_limit(SAMPLE_LETTER_LIMIT, None)
    tables = _image_tables(rule)
    hits = 0
    for i in range(trials):
        word = _run_trial(rule, tables, start, n, _trial_rng(seed, i), limit)
        if len(word) < k * n:
            hits += 1
    return hits / trials
