"""Enumeration of the legal words of a random substitution, and the
realisation kernel that the induced matrix and the frequencies share.

The language is a purely combinatorial object: it depends only on the image
supports, never on the probabilities.  A legal ell-word meets the images of
at most m = (ell - 2) // minlen + 2 consecutive letters of a legal word,
where minlen is the shortest image length, so when minlen >= 2 the legal
ell-words are the ell-windows that start in the image of the first letter
of an inflated legal m-word.  This recursion runs through a LanguageTable,
which enumerates each length once.  A rule whose shortest image is a single
letter uses instead the smallest power theta^k whose shortest image has two
letters: a primitive rule and its powers have the same language (Rust &
Spindeler, Indag. Math. 2018).

Where the recursion does not apply -- at the base lengths with m >= ell, for
rules without such a power (a letter whose single-letter images lead back to
itself, like Dyck's "(" -> "("), and for powers whose exact law would be
large -- the legal ell-words are found in the closure of the single letters
under the same step, computed in rounds, each inflating the words the last
round found.  The closure misses nothing: every ell-window of a realisation
of theta^(j+1)(a) starts in the image of the first letter of theta(x), where
x is the ell-window (cut short at the end) of the realisation of theta^j(a)
at that letter, so by induction on j the rounds collect them all.

The closure (once per round), the recursion (once per length, on all of L_m,
weighted by 1 for `legal_words` and by R_m for the frequency recursion) and
each induced column (once, on its word) call one kernel, `_window_counts`.
It enumerates the images of each word's tail once, each tail letter
spending the current states from a `_StateBudget` (raising GuardExceeded
past its limit), sums the tails per first letter, and joins each letter's
images to that sum once.

The kernel keys its states and windows by `bytes` words (one byte per
letter code, see `words`), which sort exactly as tuples of codes do; the
words a LanguageTable stores are tuples, converted once per length.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import TYPE_CHECKING, Sequence

from .guards import LANGUAGE_STATE_LIMIT, GuardExceeded, guard_limit
from .substitution import SubstitutionRule, Word
from .words import WordLike

if TYPE_CHECKING:
    import numpy as np

Weight = Fraction | float | int  # a kernel weight, exact or float
Counts = dict[bytes, Weight]

# realisations of the images of theta^k (summed over letters) beyond which
# the exact law of the power is not built and the closure is used instead; a
# routing policy, not the per-letter law guard: that guard sent 9 of 2244
# random primitive rules (2-3 letters, seed 5) to theta^3, where words to ell 8
# and vectors to ell 7 (equal within 7.5e-14) took 0.47-30.6 s, not 0.04-0.67 s
POWER_REALISATION_LIMIT = 2000


class _StateBudget:
    """Running count of spent enumeration states against a guard; `guarded`
    and `unit` name the computation and its states in the GuardExceeded
    message."""

    def __init__(self, limit: int, guarded: str, unit: str = ""):
        self.limit = limit
        self.used = 0
        self.message = f"{guarded} exceeds guard {limit}{unit}"

    def spend(self, states: int) -> None:
        self.used += states
        if self.used > self.limit:
            raise GuardExceeded(self.message)


def _language_budget() -> _StateBudget:
    """The state budget of one word length: its words and frequency vector."""
    return _StateBudget(
        guard_limit(LANGUAGE_STATE_LIMIT), "language enumeration", " kernel states"
    )


def _window_counts(images: Sequence[Sequence[tuple[bytes, Weight]]],
                   words: Sequence[Sequence[int]], ell: int, budget: _StateBudget,
                   weights: Sequence[Weight] | None = None, mass: int = 1) -> Counts:
    """The ell-windows (cut short at the end) that start in the image of each
    word's first letter, with their expected counts times the word's weight
    (1 without `weights`), summed over the words; exact weights give the
    sums of plain enumeration.  images[c] lists the (image, weight) pairs of
    letter c, whose weights sum to `mass` (D for the integer weights p * D).
    Each tail u[1:] is enumerated once, its joint realisations merged by
    their first ell - 1 letters (all that a window reads past the first
    image), each tail letter spending the current states from `budget`.
    The tails are summed per first letter, and each image of the letter is
    joined to the sum once: p times a tail's weight, or times their total
    inside the image."""
    heads: list[Counts | None] = [None] * len(images)  # tail prefixes by first letter
    for u, scale in zip(words, weights or repeat(1)):
        states: Counts = {b"": scale}
        for letter in u[1:]:
            budget.spend(len(states))
            nxt: Counts = {}
            for prefix, weight in states.items():
                if len(prefix) >= ell - 1:
                    # prefix already long enough; remaining letters integrate out
                    nxt[prefix] = nxt.get(prefix, 0) + weight * mass
                    continue
                for img, p in images[letter]:
                    key = (prefix + img)[: ell - 1]
                    nxt[key] = nxt.get(key, 0) + weight * p
            states = nxt
        tails = heads[u[0]]
        if tails is None:
            heads[u[0]] = states
            continue
        for tail, weight in states.items():
            tails[tail] = tails.get(tail, 0) + weight
    counts: Counts = {}
    for first, tails in zip(images, heads):
        if tails is None:
            continue
        total = sum(tails.values())
        for img, p in first:
            inside, x = max(len(img) - ell + 1, 0), total * p
            for k in range(inside):
                w = img[k : k + ell]
                counts[w] = counts.get(w, 0) + x
            for tail, weight in tails.items():
                joined, x = img + tail, weight * p
                for k in range(inside, len(img)):
                    w = joined[k : k + ell]
                    counts[w] = counts.get(w, 0) + x
    return counts


def _closure(
    images: Sequence[Sequence[tuple[bytes, int]]], ell: int, budget: _StateBudget
) -> set[bytes]:
    """Every word reachable from a single letter by repeatedly taking the
    windows that start in the first image of an inflation.  Each round
    inflates the words the last round found, so each word is inflated once."""
    found = [bytes((c,)) for c in range(len(images))]
    seen = set(found)
    while found:
        found = [w for w in _window_counts(images, found, ell, budget)
                 if w not in seen]
        seen.update(found)
    return seen


def _recursion_pass(table: LanguageTable, ell: int, m: int, images: Sequence,
                    weights: list | None = None) -> tuple[tuple[Word, ...], list | None]:
    """The kernel over the legal m-words, each scaled by its weight (1
    without `weights`), under one language budget.  Its windows, the legal
    ell-words, are stored in `table` (the first words stored stay) and
    returned, with their summed weights if `weights`."""
    counts = _window_counts(images, table.words_of_length(m), ell,
                            _language_budget(), weights)
    keys = sorted(counts)  # bytes sort as the tuples of the stored words
    sums = None if weights is None else list(map(counts.__getitem__, keys))
    del counts  # freed before the tuples are built, which lowers the peak
    return table._table.setdefault(ell, tuple(map(tuple, keys))), sums


def inflating_power(rule: SubstitutionRule) -> tuple[int, SubstitutionRule] | None:
    """The smallest power theta^k whose shortest image has at least two
    letters, as (k, exact rule of theta^k).

    The shortest image lengths and realisation counts of the powers follow
    from the supports by an integer recursion, so k is found without building
    any law (building the laws power by power took a 100-letter cycle rule
    from 0.018 s to 34 s).  A chain of one-letter images longer than the
    alphabet must revisit a letter, which then has a one-letter image in
    every power: if k exceeds the alphabet size no power inflates, and the
    result is None.  None too when theta^k has more than
    POWER_REALISATION_LIMIT realisations.
    """
    supports = rule.supports()
    letters = range(rule.alphabet.size)
    shortest = [1] * len(letters)
    realisations = [1] * len(letters)
    for k in range(1, len(letters) + 1):
        shortest = [
            min(sum(shortest[c] for c in w) for w in supports[a]) for a in letters
        ]
        realisations = [
            sum(math.prod(realisations[c] for c in w) for w in supports[a])
            for a in letters
        ]
        if min(shortest) >= 2:
            break
    else:
        return None
    if k == 1:
        return 1, rule
    if sum(realisations) > POWER_REALISATION_LIMIT:
        return None
    images = [
        rule.iterate_distribution((a,), k, max_support=POWER_REALISATION_LIMIT)
        .entries.items()
        for a in letters
    ]
    return k, SubstitutionRule(rule.alphabet, images)


def legal_words(
    rule: SubstitutionRule, ell: int, *, _table: LanguageTable | None = None
) -> tuple[Word, ...]:
    """The legal words of length ell, in lexicographic order of letter codes.

    Shorter lengths needed by the recursion are taken from (and stored in) a
    fresh LanguageTable of the rule; a table enumerating one of its lengths
    passes itself as `_table`.  Raises ValueError for ell < 1 (the one length
    check of all built on the language) and GuardExceeded when the kernel
    states spent on this length exceed the language guard.
    """
    if ell < 1:
        raise ValueError("word length must be >= 1")
    table = LanguageTable(rule) if _table is None else _table
    m = table.prefix_length(ell)
    source = rule if m is None else table.power[1]
    images = [[(w, 1) for w, _ in entries] for entries in source._integer_form[1]]
    if m is not None:
        return _recursion_pass(table, ell, m, images)[0]
    words = _closure(images, ell, _language_budget())
    return tuple(map(tuple, sorted(w for w in words if len(w) == ell)))


class LanguageTable:
    """Per-length cache of the legal words, sorted so that lookups bisect them,
    and of their frequency vectors (filled by `measure.FrequencyMeasure`; a
    vector depends on nothing else here, so any route may store one), with
    the inflating power the recursions use.  Making it, once per rule by
    `SubstitutionRule.language()`, is the one primitivity check (ValueError)."""

    def __init__(self, rule: SubstitutionRule):
        if not rule.is_primitive()[0]:
            raise ValueError("languages and frequency measures need a primitive rule")
        self.rule = rule
        self._table: dict[int, tuple[Word, ...]] = {}
        self._vectors: dict[int, np.ndarray] = {}

    @cached_property
    def power(self) -> tuple[int, SubstitutionRule] | None:
        """(k, theta^k) from `inflating_power`, or None."""
        return inflating_power(self.rule)

    def prefix_length(self, ell: int) -> int | None:
        """The length m < ell of the legal words whose images under the
        inflating power contain every legal ell-word, or None where the
        recursion does not apply (no inflating power, or m >= ell)."""
        if self.power is None:
            return None
        m = (ell - 2) // self.power[1].min_image_length() + 2
        return m if m < ell else None

    def words_of_length(self, ell: int) -> tuple[Word, ...]:
        if ell in self._table:
            return self._table[ell]
        return self._table.setdefault(ell, legal_words(self.rule, ell, _table=self))

    def position(self, word: WordLike) -> int | None:
        """The position of a nonempty word among the legal words of its
        length, or None when it is not legal."""
        w = self.rule.encode(word)
        words = self.words_of_length(len(w))
        i = bisect_left(words, w)
        return i if i < len(words) and words[i] == w else None

    def is_legal(self, word: WordLike) -> bool:
        w = self.rule.encode(word)
        # the empty specification is the full shift space
        return len(w) == 0 or self.position(w) is not None
