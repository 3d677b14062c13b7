"""Monte-Carlo simulation of the substitution Markov chain.

Reproducibility contract: trial i of a run with base seed s draws from
numpy's PCG64 generator seeded with SeedSequence([s, i]).  Within a trial,
words are rewritten round by round; each round consumes one uniform per
letter, left to right (also for letters with a single image, so streams stay
aligned across rules).  Results are therefore independent of scheduling.

Input contract, shared by every sampler and checked before the first trial:
the start letter is a symbol or an in-range letter code (KeyError
otherwise), the depth satisfies n >= 0 and the trial count trials >= 1
(ValueError otherwise).  Each sampler states its own further conditions.
All samplers draw from one trial loop, `_trials`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

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


def _trials(
    rule: SubstitutionRule, letter, n: int, trials: int, seed: int
) -> Iterator[list[int]]:
    """Realisations of the n-th iterate of `letter` for trials 0..trials-1,
    as lists of letter codes.

    The arguments are checked here, before the first trial is drawn: the
    start is a symbol or an in-range letter code (KeyError otherwise), and
    n >= 0 and trials >= 1 (ValueError otherwise).
    """
    (start,) = rule.encode((letter,))
    if n < 0:
        raise ValueError("iteration depth must be nonnegative")
    if trials < 1:
        raise ValueError("need trials >= 1")
    limit = guard_limit(SAMPLE_LETTER_LIMIT)
    words, thresholds = _image_tables(rule)

    # a generator, so that the checks above run at the call; its inputs are
    # passed as arguments because the round loop reads locals faster than
    # closure cells
    def realisations(start, n, trials, seed, limit, words, thresholds):
        for i in range(trials):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i])))
            word = [start]
            for _ in range(n):
                draws = rng.random(len(word))
                out: list[int] = []
                for c, u in zip(word, draws):
                    out.extend(words[c][bisect_right(thresholds[c], u)])
                if len(out) > limit:
                    raise GuardExceeded(f"sampled word exceeds letter budget {limit}")
                word = out
            yield word

    return realisations(start, n, trials, seed, limit, words, thresholds)


def sample_iterate(
    rule: SubstitutionRule, letter, n: int, seed: int = DEFAULT_SEED
) -> Word:
    """One realisation of the n-th iterate; deterministic in (rule, args, seed)."""
    return tuple(next(_trials(rule, letter, n, 1, seed)))


def empirical_frequency(
    rule: SubstitutionRule,
    letter,
    v: WordLike,
    n: int,
    trials: int,
    seed: int = DEFAULT_SEED,
) -> SampleStats:
    """Mean and standard error of the relative frequency of v across
    independent realisations of the n-th iterate; needs n >= 1 and a legal v
    (ValueError otherwise)."""
    realisations = _trials(rule, letter, n, trials, seed)
    if n < 1:
        raise ValueError("need n >= 1")
    v = rule.encode(v)
    if not rule.language().is_legal(v):
        raise ValueError(f"word {rule.alphabet.decode(v)!r} is not legal")
    freqs = np.array([count_occurrences(word, v) / len(word) for word in realisations])
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
    return dict(Counter(map(tuple, _trials(rule, letter, n, trials, seed))))


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
    limiting growth factor, whose law is not modelled here.  Needs a
    primitive expanding rule (ValueError otherwise).
    """
    primitive, _ = rule.is_primitive()
    if not (primitive and rule.is_expanding()):
        raise ValueError("direction estimates need a primitive expanding rule")
    realisations = _trials(rule, letter, n, trials, seed)
    pair = pf_eigenpair(rule.mean_matrix())
    size = rule.alphabet.size
    worst = 0.0
    growth = []
    for word in realisations:
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
    """Empirical probability that the n-th iterate is shorter than k * n;
    needs a finite k > 0 (ValueError otherwise)."""
    realisations = _trials(rule, letter, n, trials, seed)
    if not 0 < k < math.inf:
        raise ValueError(f"tail threshold K must be finite and > 0, got {k}")
    hits = sum(len(word) < k * n for word in realisations)
    return hits / trials
