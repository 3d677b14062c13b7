"""Monte-Carlo simulation of the substitution Markov chain.

Reproducibility contract: trial i of a run with base seed s draws from
numpy's PCG64 generator seeded with SeedSequence([s, i]).  The states
SeedSequence([s, i]) gives are computed for up to 1024 trials at once, in
one pass of uint32 array operations (module `_seeding`); the contract is
unchanged, as trial i still starts from exactly that state.  Within a trial,
words are rewritten round by round; each round consumes one uniform per
letter, left to right (also for letters with a single image, so streams stay
aligned across rules).  Where one trial can consume at most 1024 uniforms
(the longest words of its rounds summed), each trial draws them all in one
call and its rounds read them in order: the same doubles in the same order,
so the contract is unchanged.  Results are therefore independent of
scheduling: trials run in batches, each round of a batch a few array
operations over the words of all its trials, and the batch size changes no
output.  A round runs over at most 2**16 of its input letters at a time; a
trial that a chunk's end splits draws the uniforms of its letters in the
first chunk, then those in the next, from its own generator, so its stream
is unchanged.  A realisation is held at one byte per letter, as `bytes` of
letter codes, and `sample` prints it from those bytes.

Input contract, shared by every sampler and checked before the first trial:
the start letter is a symbol or an in-range letter code (KeyError
otherwise), the depth is an integer n >= 0, the trial count an integer
trials >= 1 and the seed a non-negative integer (ValueError otherwise).
Each sampler states its own further conditions.  All samplers draw from one
trial engine, `_trials`, and a sample that the letter guard refuses by the
image lengths alone loads no numpy.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right
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
# A round runs over at most this many of its input letters at a time: the
# uniforms are float64, and numpy's take casts a uint8 index to intp, so
# arrays of 8 bytes a letter span one chunk (512 KB), never the batch.
_CHUNK_LETTERS = 2**16
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


def _pool_width(rule: SubstitutionRule, start: int, n: int) -> int:
    """The uniforms one trial of depth n from `start` can consume, the sum
    over k < n of the longest |theta^k(start)|, where that is 1 to 1024 (the
    per-trial floor of the batch bound): its trials draw their whole streams
    in one call each.  Else 0, and they draw round by round; the sum stops
    once it passes 1024."""
    ahead = k = 0
    for k, lengths in enumerate(islice(rule._length_steps(max, 1025), n), 1):
        ahead += lengths[start]
        if ahead > 1024:
            return 0
    if k < n:  # the steps stopped at a fixed point, which holds for the rest
        ahead += (n - k) * lengths[start]
    return ahead if ahead <= 1024 else 0


def _trials(
    rule: SubstitutionRule, letter, n: int, trials: int, seed: int
) -> Iterator[bytes]:
    """Realisations of the n-th iterate of `letter` for trials 0..trials-1,
    each as the bytes of its letter codes.

    The arguments are checked here, before the first trial is drawn: the
    start is a symbol or an in-range letter code (KeyError otherwise), and
    n >= 0 and trials >= 1 integers and the seed a non-negative integer
    (ValueError otherwise).  From the first next() on, after each sampler's own checks,
    GuardExceeded is raised before numpy loads where even the shortest
    realisation is over the letter guard, else in the round that builds one
    over it, before its batch yields, or before the round reads its uniforms
    where the shortest image already takes the longest word over the guard.
    A batch whose trials draw their streams in one call each has drawn them
    by then, and trips where and as a batch drawn round by round does.
    """
    (start,) = rule.encode((letter,))
    if not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"iteration depth must be a nonnegative integer, got {n!r}")
    if not isinstance(trials, numbers.Integral) or trials < 1:
        raise ValueError(f"need an integer trials >= 1, got {trials!r}")
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
        ahead = _pool_width(rule, start, n)
        streams = generators(seed, 0, trials)

        def run(lo: int, hi: int) -> tuple[np.ndarray, list[int]]:
            """Trials lo..hi-1 together: their concatenated words and the end
            offset of each."""
            rngs = list(islice(streams, hi - lo))
            word = np.full(hi - lo, start, dtype=np.uint8)
            ends = list(range(1, hi - lo + 1))
            if ahead:  # each trial's whole stream in one call, a row per trial
                pool = np.empty((hi - lo, ahead))
                for rng, row in zip(rngs, pool):
                    rng.random(out=row)
                offset = np.arange(0, pool.size, ahead)  # its row's next unread
                sizes = np.ones(hi - lo, dtype=np.intp)
            else:
                buf = np.empty(_CHUNK_LETTERS)  # a chunk's uniforms
            longest = 1  # letters in the longest word of the batch
            for _ in range(n):
                letters.check(longest * minlen)  # no image is shorter than minlen
                starts = np.array([0, *ends[:-1]])
                if ahead:  # trial i reads the next sizes[i] values of its row
                    skip = offset - starts  # letter j of trial i reads skip[i] + j
                    offset += sizes
                # chunk by chunk: each letter's image into img, and the image
                # lengths of each trial summed into sizes
                img = np.empty(len(word), dtype=base.dtype)
                sizes = np.zeros(hi - lo, dtype=np.intp)
                for c in range(0, len(word), _CHUNK_LETTERS):
                    w, part = word[c : c + _CHUNK_LETTERS], img[c : c + _CHUNK_LETTERS]
                    # trials i..k reach into the chunk, trial i + j over
                    # w[cut[j]:cut[j + 1]]; a trial the chunk's end splits
                    # draws the rest of its uniforms in the next chunk
                    i, k = bisect_right(ends, c), bisect_left(ends, c + len(w))
                    cut = np.concatenate(([0], starts[i + 1 : k + 1] - c, [len(w)]))
                    if ahead:
                        u = np.repeat(skip[i : k + 1], np.diff(cut))
                        u += np.arange(c, c + len(w))
                        u = pool.take(u)
                    else:
                        u = buf[: len(w)]
                        bounds = cut.tolist()
                        for rng, a, b in zip(rngs[i : k + 1], bounds, bounds[1:]):
                            rng.random(out=u[a:b])
                    part[:] = base.take(w)
                    for row in thr:
                        part += row[w] <= u
                    sizes[i : k + 1] += np.add.reduceat(lens.take(part), cut[:-1],
                                                        dtype=np.intp)
                del w  # a view of the word, which the next one replaces
                longest = int(sizes.max())
                letters.check(longest)
                ends = np.cumsum(sizes).tolist()
                # the next word: the chosen images, less their padding, written
                # chunk by chunk into a word of its exact length
                word, at = np.empty(ends[-1], dtype=np.uint8), 0
                for c in range(0, len(img), _CHUNK_LETTERS):
                    images = table.take(img[c : c + _CHUNK_LETTERS], axis=0).ravel()
                    images = images[images != PAD]
                    word[at : at + len(images)] = images
                    at += len(images)
            return word, ends

        for lo in range(0, trials, batch):
            word, ends = run(lo, min(lo + batch, trials))
            data, a = word.tobytes(), 0
            del word  # its bytes are what the trials yield
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
    v = bytes(v)  # as the realisations are, so they are searched in C
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
