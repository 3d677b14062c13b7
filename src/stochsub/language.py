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
under the same step, computed with a worklist.  The closure misses nothing:
every ell-window of a realisation of theta^(j+1)(a) starts in the image of
the first letter of theta(x), where x is the ell-window (cut short at the
end) of the realisation of theta^j(a) at that letter, so by induction on j
the worklist collects them all.

Both branches, the induced matrix and the frequency recursion share one
kernel, `_column_weights`; every letter it processes spends its current
states from a `_StateBudget`, which raises GuardExceeded past its limit.
`legal_words` keeps only the windows, with unit weights.  On the recursion
route the float pass of the frequency recursion over L_m yields the words
too, and the rule's LanguageTable keeps both, one sorted tuple per length.

The kernel keys its states and windows by `bytes` words (one byte per
letter code, see `words`), which sort exactly as tuples of codes do; the
words a LanguageTable stores are tuples, converted once per length.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from .guards import LANGUAGE_STATE_LIMIT, GuardExceeded, guard_limit
from .substitution import SubstitutionRule, Word
from .words import WordLike

if TYPE_CHECKING:
    import numpy as np

# realisations of the images of theta^k (summed over letters) beyond which
# the exact law of the power is not built and the closure is used instead
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
        guard_limit(LANGUAGE_STATE_LIMIT), "language enumeration", " automaton states"
    )


def _column_weights(
    images: Sequence[Sequence[tuple[bytes, Fraction | float | int]]],
    u: Sequence[int],
    ell: int,
    budget: _StateBudget,
    scale: Fraction | float | int = 1,
    mass: int = 1,  # D for the integer weights p * D, whose counts are over D^|u|
) -> dict[bytes, Fraction | float | int]:
    """Expected window counts E[occurrences of w in the induced image of u],
    times `scale`: the ell-windows (cut short at the end of a realisation)
    that start in the image of u's first letter, keyed as `bytes`.  u is a
    word of letter codes (bytes or a tuple); images[c] lists the (image as
    bytes, weight) pairs of letter c, whose weights sum to `mass`.

    Joint realisations of the letter images are enumerated with prefix
    sharing: only the first first_len + ell - 1 output letters matter (the
    windows start at positions 1..first_len), so realisations agreeing on
    that prefix are merged and the remaining letters contribute their whole
    mass.  With exact weights the result is bit-identical to plain
    enumeration; with floats the same sums run in floating point.  Each
    letter of u spends the number of current states from `budget`.
    """
    # state: (prefix capped at first_len + ell - 1 letters, first image len)
    states: dict[tuple[bytes, int], Fraction | float | int] = {(b"", 0): scale}
    for letter in u:
        budget.spend(len(states))
        nxt: dict[tuple[bytes, int], Fraction | float | int] = {}
        for (prefix, first), weight in states.items():
            if first and len(prefix) >= first + ell - 1:
                # prefix already long enough; remaining letters integrate out
                key = (prefix, first)
                nxt[key] = nxt.get(key, 0) + weight * mass
                continue
            for img, p in images[letter]:
                f = first if first else len(img)
                cap = f + ell - 1
                key = ((prefix + img)[:cap], f)
                nxt[key] = nxt.get(key, 0) + weight * p
        states = nxt
    counts: dict[bytes, Fraction | float | int] = {}
    for (prefix, first), weight in states.items():
        for k in range(first):
            w = prefix[k : k + ell]
            counts[w] = counts.get(w, 0) + weight
    return counts


def _closure(
    images: Sequence[Sequence[tuple[bytes, int]]], ell: int, budget: _StateBudget
) -> set[bytes]:
    """Every word reachable from a single letter by repeatedly taking the
    windows that start in the first image of an inflation.  A worklist
    inflates each word once."""
    seen: set[bytes] = {bytes((c,)) for c in range(len(images))}
    todo = list(seen)
    while todo:
        windows = _column_weights(images, todo.pop(), ell, budget)
        new = [w for w in windows if w not in seen]
        seen.update(new)
        todo.extend(new)
    return seen


def inflating_power(rule: SubstitutionRule) -> tuple[int, SubstitutionRule] | None:
    """The smallest power theta^k whose shortest image has at least two
    letters, as (k, exact rule of theta^k).

    The shortest image lengths and realisation counts of the powers follow
    from the supports by an integer recursion, so k is found without building
    any law.  A chain of one-letter images longer than the alphabet must
    revisit a letter, which then has a one-letter image in every power: if
    k exceeds the alphabet size no power inflates, and the result is None.
    None too when theta^k has more than POWER_REALISATION_LIMIT
    realisations.
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
    passes itself as `_table`.  Raises GuardExceeded when the kernel states
    spent on this length exceed the language guard.
    """
    if ell < 1:
        raise ValueError("word length must be >= 1")
    primitive, _ = rule.is_primitive()
    if not primitive:
        raise ValueError("legal-word enumeration requires a primitive rule")
    table = LanguageTable(rule) if _table is None else _table
    budget = _language_budget()
    m = table.prefix_length(ell)
    source = rule if m is None else table.power[1]
    images = [[(w, 1) for w, _ in entries] for entries in source._integer_form[1]]
    if m is None:
        words = _closure(images, ell, budget)
    else:
        words = set()
        for u in table.words_of_length(m):
            words.update(_column_weights(images, u, ell, budget))
    return tuple(map(tuple, sorted(w for w in words if len(w) == ell)))


class LanguageTable:
    """Per-length cache of the legal words, sorted so that lookups bisect them,
    and of their frequency vectors, with the inflating power and the PF
    eigenvalue the recursions use.  `SubstitutionRule.language()` is shared by
    all computations on the rule; `measure.FrequencyMeasure` fills the vectors."""

    def __init__(self, rule: SubstitutionRule):
        self.rule = rule
        self._table: dict[int, tuple[Word, ...]] = {}
        self._vectors: dict[int, np.ndarray] = {}
        self._eigenvalue: float | None = None  # from the latest PF solve

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

    def _store(self, ell: int, words: tuple[Word, ...]) -> tuple[Word, ...]:
        """The cached legal ell-words, `words` unless some were cached."""
        return self._table.setdefault(ell, words)

    def words_of_length(self, ell: int) -> tuple[Word, ...]:
        if ell in self._table:
            return self._table[ell]
        return self._store(ell, legal_words(self.rule, ell, _table=self))

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
