"""Monte-Carlo simulation of the substitution Markov chain.

Reproducibility contract: trial i of a run with base seed s draws from
numpy's PCG64 generator seeded with SeedSequence([s, i]).  The states
SeedSequence([s, i]) gives are computed for up to 1024 trials at once, in
one pass of uint32 array operations (module `_seeding`); the contract is
unchanged, as trial i still starts from exactly that state.  Within a trial,
words are rewritten round by round; each round consumes one uniform per
letter, left to right (also for letters with a single image, so streams stay
aligned across rules).  Results are therefore independent of scheduling:
trials run in batches, each round of a batch a few array operations over the
words of all its trials, and the batch size changes no output.  A
realisation is held at one byte per letter, as `bytes` of letter codes.

Input contract, shared by every sampler and checked before the first trial:
the start letter is a symbol or an in-range letter code (KeyError
otherwise), the depth satisfies n >= 0, the trial count trials >= 1 and
the seed is a non-negative integer (ValueError otherwise).  Each sampler
states its own further conditions.  All samplers draw from one trial
engine, `_trials`, and a sample that the letter guard refuses by the image
lengths alone loads no numpy.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .guards import SAMPLE_LETTER_LIMIT, Budget
from .spectral import pf_eigenpair
from .substitution import SubstitutionRule, Word
from .words import MAX_SYMBOLS, WordLike, count_occurrences

if TYPE_CHECKING:
    import numpy as np

DEFAULT_SEED = 1729

# Trials run in batches whose rounds are whole-array operations.  A batch
# holds at most BATCH_LETTERS letters by the bound L**n of one trial (L the
# longest image), counting at least 1024 per trial: each live generator holds
# about 1.3 KB, so shallow iterates still stop at 1024 trials per batch.
BATCH_LETTERS = 2**20
PAD = MAX_SYMBOLS  # pads the image table; every letter code is below it


class SampleStats(NamedTuple):
    estimate: float
    stderr: float
    trials: int
    depth: int
    seed: int


class DirectionStats(NamedTuple):
    """Per-trial normalised letter-count vectors versus the PF direction."""

    max_direction_distance: float
    mean_growth_factor: float   # mean of |word| / lambda^n, estimating W
    growth_factors: tuple[float, ...]
    trials: int
    depth: int
    seed: int


def _image_tables(rule: SubstitutionRule):
    """The rule's images as flat arrays, indexed letter by letter.

    For a uniform u, letter c takes image `base[c] + sum_j (thr[j, c] <= u)`:
    the thresholds are its cumulative probabilities below the top one (u < 1
    needs none there, which spares the top any roundoff), inf past its last
    image.  `lens` holds the image lengths, `table` the images padded with PAD.
    """
    import numpy as np

    width = max(len(entries) for entries in rule.images) - 1
    thr = np.full((width, rule.alphabet.size), np.inf)
    base, flat = [], []
    for c, entries in enumerate(rule.images):
        base.append(len(flat))
        flat.extend(w for w, _ in entries)
        acc = 0.0
        for j, (_, p) in enumerate(entries[:-1]):
            acc += float(p)
            thr[j, c] = acc
    longest = max(map(len, flat))
    table = np.full((len(flat), longest), PAD, dtype=np.uint8)
    for k, w in enumerate(flat):
        table[k, : len(w)] = w
    lens = np.array([len(w) for w in flat], dtype=np.min_scalar_type(longest))
    return np.array(base, dtype=np.min_scalar_type(len(flat))), thr, lens, table


def _trials(
    rule: SubstitutionRule, letter, n: int, trials: int, seed: int
) -> Iterator[bytes]:
    """Realisations of the n-th iterate of `letter` for trials 0..trials-1,
    each as the bytes of its letter codes.

    The arguments are checked here, before the first trial is drawn: the
    start is a symbol or an in-range letter code (KeyError otherwise), and
    n >= 0, trials >= 1 and the seed a non-negative integer (ValueError
    otherwise).  From the first next() on, after each sampler's own checks,
    GuardExceeded is raised before numpy loads where even the shortest
    realisation is over the letter guard, else in the round that builds one
    over it, before its batch yields, or before the round draws where the
    shortest image already takes the longest word over the guard.
    """
    (start,) = rule.encode((letter,))
    if n < 0:
        raise ValueError("iteration depth must be nonnegative")
    if trials < 1:
        raise ValueError("need trials >= 1")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    letters = Budget(SAMPLE_LETTER_LIMIT, "sampled word exceeds letter budget {}")
    # a generator, so that the checks above run at the call, the rest at next()
    def realisations():
        if n:  # if the shortest realisation is over the guard, every trial is
            letters.check(rule._iterate_lengths(n, min, letters.limit + 1)[start])
        import numpy as np
        from ._seeding import generators
        minlen = rule.min_image_length()
        base, thr, lens, table = _image_tables(rule)
        # L**n bounds the letters of one trial; as BATCH_LETTERS == 2**20,
        # deeper iterates than n = 20 run one trial per batch
        bound = max(rule.max_image_length() ** min(n, 20), 1024)
        batch = max(1, BATCH_LETTERS // bound)
        streams = generators(seed, 0, trials)

        def run(lo: int, hi: int) -> tuple[np.ndarray, list[int]]:
            """Trials lo..hi-1 together: their concatenated words and the end
            offset of each."""
            rngs = list(islice(streams, hi - lo))
            word = np.full(hi - lo, start, dtype=np.uint8)
            ends = list(range(1, hi - lo + 1))
            longest = 1  # letters in the longest word of the batch
            for _ in range(n):
                letters.check(longest * minlen)  # no image is shorter than minlen
                u = np.empty(len(word))
                a = 0
                for rng, b in zip(rngs, ends):
                    rng.random(out=u[a:b])
                    a = b
                img = base.take(word)
                for row in thr:
                    img += row[word] <= u
                starts = np.array([0, *ends[:-1]])
                sizes = np.add.reduceat(lens.take(img), starts, dtype=np.intp)
                longest = int(sizes.max())
                letters.check(longest)
                word = table.take(img, axis=0).ravel()
                word = word[word != PAD]
                ends = np.cumsum(sizes).tolist()
            return word, ends

        for lo in range(0, trials, batch):
            word, ends = run(lo, min(lo + batch, trials))
            data, a = word.tobytes(), 0
            for b in ends:
                yield data[a:b]
                a = b

    return realisations()


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
    freqs = (count_occurrences(word, v) / len(word) for word in realisations)
    first = next(freqs)  # a depth the guard refuses up front stops here, before numpy
    import numpy as np
    freqs = np.fromiter(chain((first,), freqs), dtype=float, count=trials)
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
    first = next(realisations)  # as in empirical_frequency, numpy loads after the guard
    import numpy as np
    size = rule.alphabet.size
    worst = 0.0
    growth = []
    for word in chain((first,), realisations):
        counts = np.bincount(np.frombuffer(word, dtype=np.uint8), minlength=size)
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
