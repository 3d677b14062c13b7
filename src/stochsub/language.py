"""Enumeration of the legal words of a random substitution.

The language is a purely combinatorial object: it depends only on the image
supports, never on the probabilities.  A legal ell-word meets the images of
at most m = (ell - 2) // minlen + 2 consecutive letters of a legal word,
where minlen is the shortest image length, so when minlen >= 2 the legal
ell-words are the ell-windows of the inflations of the legal m-words.  This
recursion runs through a LanguageTable, which enumerates each length once.
A rule whose shortest image is a single letter uses instead the smallest
power theta^k whose shortest image has two letters: a primitive rule and its
powers have the same language (Rust & Spindeler, Indag. Math. 2018).

Where the recursion does not apply -- at the base lengths with m >= ell, for
rules without such a power (a letter whose single-letter images lead back to
itself, like Dyck's "(" -> "("), and for powers whose exact law would be
large -- the legal ell-words are found in the closure of the single letters
under one-step inflation, computed with a worklist.  Either way words are
inflated through a sliding-window automaton, so that realisations sharing a
suffix are never expanded twice; the automaton's frontier states are counted
against a resource guard.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Sequence

from .guards import LANGUAGE_STATE_LIMIT, GuardExceeded, guard_limit
from .substitution import SubstitutionRule, Word
from .words import WordLike

# realisations of the images of theta^k (summed over letters) beyond which
# the exact law of the power is not built and the closure is used instead
POWER_REALISATION_LIMIT = 2000


def collar(u: Sequence, ell: int) -> tuple:
    """The sequence of sliding windows of length ell of u."""
    if ell < 1:
        raise ValueError("window length must be >= 1")
    if len(u) < ell:
        raise ValueError(f"word of length {len(u)} has no windows of length {ell}")
    u = tuple(u)
    return tuple(u[k : k + ell] for k in range(len(u) - ell + 1))


def _inflation_pieces(
    supports: Sequence[Sequence[Word]], word: Word, ell: int
) -> tuple[set[Word], int]:
    """All length-ell subwords of all realisations of the one-step inflation
    of `word`, together with any full realisations shorter than ell, and the
    number of automaton states expanded to find them.

    Runs a window automaton over the letters of `word`: a state is the last
    ell-1 letters emitted so far, so realisations sharing a suffix are
    processed once.  For short realisations the state is the whole prefix.
    """
    out: set[Word] = set()
    tail = ell - 1
    expanded = 0
    # state: (last min(tail, emitted) letters, min(emitted, ell))
    frontier: set[tuple[Word, int]] = {((), 0)}
    for letter in word:
        expanded += len(frontier)
        nxt: set[tuple[Word, int]] = set()
        for buf, emitted in frontier:
            for img in supports[letter]:
                b, e = buf, emitted
                for c in img:
                    if len(b) == tail:
                        out.add(b + (c,))
                    b = (b + (c,))[-tail:] if tail else ()
                    e = min(e + 1, ell)
                nxt.add((b, e))
        frontier = nxt
    # realisations that never reached length ell survive whole in the buffer
    for buf, emitted in frontier:
        if emitted < ell:
            out.add(buf)
    return out, expanded


class _StateBudget:
    """Running count of expanded automaton states against the guard."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, states: int) -> None:
        self.used += states
        if self.used > self.limit:
            raise GuardExceeded(
                f"language enumeration exceeds guard {self.limit} automaton states"
            )


def _closure(
    supports: Sequence[Sequence[Word]], ell: int, budget: _StateBudget
) -> set[Word]:
    """Every word reachable from a single letter by repeatedly taking
    inflation pieces.  A worklist inflates each word once."""
    seen: set[Word] = {(c,) for c in range(len(supports))}
    todo = list(seen)
    while todo:
        pieces, states = _inflation_pieces(supports, todo.pop(), ell)
        budget.spend(states)
        new = pieces - seen
        seen |= new
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
    rule: SubstitutionRule, ell: int, table: LanguageTable | None = None
) -> tuple[Word, ...]:
    """The legal words of length ell, in lexicographic order of letter codes.

    Shorter lengths needed by the recursion are taken from (and stored in)
    `table`, a fresh LanguageTable of the rule by default.  Raises
    GuardExceeded when the automaton states expanded for this length exceed
    the language guard.
    """
    if ell < 1:
        raise ValueError("word length must be >= 1")
    primitive, _ = rule.is_primitive()
    if not primitive:
        raise ValueError("legal-word enumeration requires a primitive rule")
    if table is None:
        table = LanguageTable(rule)
    budget = _StateBudget(guard_limit(LANGUAGE_STATE_LIMIT))
    m = table.prefix_length(ell)
    if m is None:
        words = _closure(rule.supports(), ell, budget)
    else:
        supports = table.power[1].supports()
        words = set()
        for u in table.words_of_length(m):
            pieces, states = _inflation_pieces(supports, u, ell)
            budget.spend(states)
            words |= pieces
    return tuple(sorted(w for w in words if len(w) == ell))


class LanguageTable:
    """Per-length cache of legal words and their positions, together with
    the inflating power the recursion uses.  `SubstitutionRule.language()`
    holds the table that all computations on one rule share."""

    def __init__(self, rule: SubstitutionRule):
        self.rule = rule
        # one entry per length, stored in one assignment so that concurrent
        # readers never see the words without their index
        self._table: dict[int, tuple[tuple[Word, ...], dict[Word, int]]] = {}

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

    def _entry(self, ell: int) -> tuple[tuple[Word, ...], dict[Word, int]]:
        if ell not in self._table:
            ws = legal_words(self.rule, ell, table=self)
            self._table[ell] = (ws, {w: i for i, w in enumerate(ws)})
        return self._table[ell]

    def words_of_length(self, ell: int) -> tuple[Word, ...]:
        return self._entry(ell)[0]

    def index(self, ell: int) -> dict[Word, int]:
        return self._entry(ell)[1]

    def is_legal(self, word: WordLike) -> bool:
        w = self.rule.encode(word)
        if len(w) == 0:
            return True  # empty specification: the full shift space
        return w in self.index(len(w))
