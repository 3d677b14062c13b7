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

Where the recursion does not apply -- at lengths 1 and 2, for rules
without such a power (a letter whose single-letter images lead back to
itself, like Dyck's "(" -> "("), and for powers whose exact law would be
large -- the legal ell-words are found in the closure of the single letters
under the same step, computed in rounds, each inflating the words the last
round found.  The closure misses nothing: every ell-window of a realisation
of theta^(j+1)(a) starts in the image of the first letter of theta(x), where
x is the ell-window (cut short at the end) of the realisation of theta^j(a)
at that letter, so by induction on j the rounds collect them all.

The closure (once per round), the recursion (once per length, on all of L_m
and the power's integer images, unweighted for `legal_words`, which reads
only the windows, or weighted by R_m in integers for the frequencies, or
theta's for a self part) and each induced column (once, on its word) call
one kernel, `_window_counts`.  It enumerates each word's tail images once,
each tail letter spending the current states from a `guards.Budget`, sums
the tails per first letter, and joins each letter's images to that sum once.

The kernel keys its states and windows by `bytes` words (one byte per
letter code, see `words`), which sort exactly as tuples of codes do; the
words a LanguageTable stores are tuples, converted once per length.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from numbers import Integral
from typing import Sequence

from .guards import LANGUAGE_STATE_LIMIT, Budget
from .substitution import SubstitutionRule, Word
from .words import WordLike

Weight = Fraction | float | int  # a kernel weight, exact or float
Counts = dict[bytes, Weight]

# realisations of the images of theta^k (summed over letters) beyond which
# the exact law of the power is not built and the closure is used instead; a
# routing policy, not the per-letter law guard: that guard sent 9 of 2244
# random primitive rules (2-3 letters, seed 5) to theta^3, where words to ell 8
# and vectors to ell 7 (equal within 7.5e-14) took 0.47-30.6 s, not 0.04-0.67 s
POWER_REALISATION_LIMIT = 2000


def _language_budget() -> Budget:
    """The state budget of one word length: its words and frequency vector."""
    return Budget(LANGUAGE_STATE_LIMIT, "language enumeration exceeds guard {} kernel states")


def _check_length(ell) -> int:
    """The one check of a word length: ValueError unless ell is an integer
    (numpy integers and bools are) of at least 1, returned as an int."""
    if not isinstance(ell, Integral):
        raise ValueError(f"word length must be an integer, got {ell}")
    if ell < 1:
        raise ValueError("word length must be >= 1")
    return operator.index(ell)


def _window_counts(images: Sequence[Sequence[tuple[bytes, Weight]]],
                   words: Sequence[Sequence[int]], ell: int, budget: Budget,
                   weights: Sequence[Weight] | None = None, mass: int = 1) -> Counts:
    """The ell-windows (cut short at the end) that start in the image of each
    word's first letter, with their expected counts times the word's weight
    (1 without `weights`), summed over the words; exact weights give the
    sums of plain enumeration.  images[c] lists the (image, weight) pairs of
    letter c, whose weights sum to `mass` (D for the integer weights p * D).
    Each tail u[1:] is enumerated once, from weight 1, its joint
    realisations merged by their first ell - 1 letters (all that a window
    reads past the first image), each tail letter spending the current
    states from `budget`.  The tails, scaled by the word's weight, are
    summed per first letter, and each image of the letter is joined to the
    sum once: p times a tail's weight, or times their total inside it."""
    heads: list[Counts] = [{} for _ in images]  # tail prefixes by first letter
    for u, scale in zip(words, weights or repeat(1)):
        states: Counts = {b"": 1}
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
        for tail, weight in states.items():
            tails[tail] = tails.get(tail, 0) + weight * scale
    counts: Counts = {}
    for first, tails in zip(images, heads):
        if not tails:
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
    images: Sequence[Sequence[tuple[bytes, int]]], ell: int, budget: Budget
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


def _recursion_pass(table: LanguageTable, ell: int, m: int,
                    weights: Sequence | None = None) -> tuple[tuple[Word, ...], list | None]:
    """The kernel over the legal m-words on the power's integer images p * D,
    each word scaled by its weight (1 without `weights`), under one language
    budget.  Its windows, the legal ell-words, are stored in `table` (the
    first words stored stay) and returned, with their sums if `weights`:
    D^m times the weighted expected window counts."""
    denominator, images = table.power[1]._integer_form
    counts = _window_counts(images, table.words_of_length(m), ell,
                            _language_budget(), weights, denominator)
    keys = sorted(counts)  # bytes sort as the tuples of the stored words
    sums = None if weights is None else list(map(counts.__getitem__, keys))
    del counts  # freed before the tuples are built, which lowers the peak
    words = table._table.get(ell)  # the tuples are built only for a new length
    return words or table._table.setdefault(ell, tuple(map(tuple, keys))), sums


def legal_words(rule: SubstitutionRule, ell: int) -> tuple[Word, ...]:
    """The legal words of length ell, in lexicographic order of letter codes.

    They are read from, or enumerated once into, the rule's language table
    `rule.language()`, with the shorter lengths the recursion needs, so
    they stay with the rule and are freed with it.  Raises ValueError for a
    non-integer ell or ell < 1 (`_check_length`, the one length check of all
    built on the language) and GuardExceeded when the kernel states spent on
    this length exceed the language guard.
    """
    ell = _check_length(ell)  # before the stored lengths, where 2.0 finds 2
    table = rule.language()
    words = table._table.get(ell)
    if words is not None:
        return words
    m = table.prefix_length(ell)
    if m is not None:
        return _recursion_pass(table, ell, m)[0]
    found = _closure(rule._integer_form[1], ell, _language_budget())
    words = sorted(w for w in found if len(w) == ell)
    return table._table.setdefault(ell, tuple(map(tuple, words)))


class LanguageTable:
    """Per-length cache of the legal words, sorted so that lookups bisect them,
    and of their frequency vectors (written only by
    `measure.FrequencyMeasure.frequency_vector`), with the inflating power
    the recursions use, `power`.  A rule has one table, `rule._language`:
    `LanguageTable(rule)` and `rule.language()` both return it, built on
    first use, which is the one primitivity check (ValueError on every call
    for a non-primitive rule).  `legal_words` and the recursion pass alone
    store its words."""

    def __new__(cls, rule: SubstitutionRule):
        if rule._language is None:
            if not rule.is_primitive()[0]:
                raise ValueError("languages and frequency measures need a primitive rule")
            rule._language = table = super().__new__(cls)
            table.rule, table._table, table._vectors = rule, {}, {}
        return rule._language

    @cached_property
    def power(self) -> tuple[int, SubstitutionRule] | None:
        """The smallest power theta^k whose shortest image has at least two
        letters, as (k, exact rule of theta^k).

        The shortest image lengths of the powers, capped at 2, follow from the
        supports by an integer recursion (`SubstitutionRule._length_steps`),
        so k is found without building any law (building the laws power by
        power took a 100-letter cycle rule from 0.018 s to 34 s).  If it
        reaches its fixed point below 2 no power inflates: None.  None too
        when theta^k has more than POWER_REALISATION_LIMIT realisations."""
        steps = enumerate(self.rule._length_steps(min, 2))
        k = next((k for k, shortest in steps if min(shortest) >= 2), None)
        if k is None:
            return None
        if k == 1:
            return 1, self.rule
        supports = self.rule.supports()
        letters = range(self.rule.alphabet.size)
        realisations = [1] * len(letters)
        for _ in range(k):
            realisations = [
                sum(math.prod(realisations[c] for c in w) for w in supports[a])
                for a in letters
            ]
        if sum(realisations) > POWER_REALISATION_LIMIT:
            return None
        images = [
            self.rule.iterate_distribution((a,), k, max_support=POWER_REALISATION_LIMIT)
            .entries.items()
            for a in letters
        ]
        return k, SubstitutionRule(self.rule.alphabet, images)

    def prefix_length(self, ell: int) -> int | None:
        """The length m < ell of the legal words whose images under the
        inflating power contain every legal ell-word, or None at lengths 1
        and 2 or without that power (closure words, `measure`'s self part);
        ValueError for a non-integer ell or ell < 1."""
        ell = _check_length(ell)  # else a length like 3.5 would ask for m = 2.0
        if ell < 3 or self.power is None:
            return None
        return (ell - 2) // self.power[1].min_image_length() + 2

    def words_of_length(self, ell: int) -> tuple[Word, ...]:
        """The legal ell-words, enumerated once per length into the rule's
        table by `legal_words` (ValueError for a non-integer ell or ell < 1,
        GuardExceeded past the language guard)."""
        words = self._table.get(_check_length(ell))  # () is a stored length too
        # the public legal_words, as bench/tracer.py counts language work there
        return legal_words(self.rule, ell) if words is None else words

    def position(self, word: WordLike) -> int | None:
        """The position of a nonempty word among the legal words of its
        length, or None when it is not legal."""
        w = self.rule.encode(word)
        words = self.words_of_length(len(w))
        i = bisect_left(words, w)
        return i if i < len(words) and words[i] == w else None

    def is_legal(self, word: WordLike) -> bool:
        """Whether the word is legal (the empty word always is); KeyError or
        ValueError for a word the alphabet cannot encode (`Alphabet.encode`),
        GuardExceeded past the language guard at its length."""
        w = self.rule.encode(word)
        return len(w) == 0 or self.position(w) is not None
