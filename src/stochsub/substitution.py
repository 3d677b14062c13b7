"""Random substitution rules with exact rational probabilities.

A rule assigns to every letter a finite distribution over nonempty image
words.  Everything in this module is exact: probabilities are
`fractions.Fraction` end to end, so the transition kernel, iterate laws and
the mean substitution matrix admit bit-exact tests.  Floating point enters
only in the spectral module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .guards import ITERATE_SUPPORT_LIMIT, GuardExceeded, guard_limit
from .words import Alphabet, WordLike, abelianise

Word = tuple[int, ...]


class RuleValidationError(ValueError):
    """Invalid rule data; `problems` lists every violated invariant."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class RationalMatrix:
    """Square nonnegative matrix of exact rationals with row/column labels.

    Row and column i both refer to ``labels[i]``; for mean matrices the
    labels are letter codes, for induced matrices they are legal words.
    """

    labels: tuple
    rows: tuple  # tuple of tuples of Fraction

    def __post_init__(self):
        n = len(self.labels)
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise ValueError("matrix shape does not match labels")

    @property
    def size(self) -> int:
        return len(self.labels)

    def column_sums(self) -> tuple[Fraction, ...]:
        n = self.size
        return tuple(sum(self.rows[i][j] for i in range(n)) for j in range(n))

    def to_float(self):
        import numpy as np

        return np.array([[float(x) for x in row] for row in self.rows], dtype=float)

    def support(self) -> tuple[tuple[bool, ...], ...]:
        return tuple(tuple(x > 0 for x in row) for row in self.rows)

    def is_primitive(self) -> tuple[bool, int | None]:
        """Primitivity of the support pattern, with witness exponent.

        Checks boolean powers up to the Wielandt bound (m-1)^2 + 1; returns
        (True, k) for the smallest k with an all-positive power.
        """
        n = self.size
        cur = step = self.support()
        bound = (n - 1) ** 2 + 1
        for k in range(1, bound + 1):
            if all(all(row) for row in cur):
                return True, k
            # boolean product with the one-step support
            cur = tuple(
                tuple(
                    any(cur[i][t] and step[t][j] for t in range(n))
                    for j in range(n)
                )
                for i in range(n)
            )
        return False, None


@dataclass(frozen=True)
class IterateDistribution:
    """Exact law of the n-th iterate of a random substitution on a word."""

    source: Word
    n: int
    entries: Mapping[Word, Fraction]

    def total(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))

    def expected_abelianisation(self, size: int) -> tuple[Fraction, ...]:
        acc = [Fraction(0)] * size
        for w, p in self.entries.items():
            for i, c in enumerate(abelianise(w, size)):
                acc[i] += p * c
        return tuple(acc)


def _parse_probability(raw) -> Fraction:
    if isinstance(raw, str):
        return Fraction(raw)
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, Fraction):
        return raw
    raise ValueError(f"probability must be a rational string or integer, got {raw!r}")


class SubstitutionRule:
    """A validated random substitution rule.

    Immutable after construction; all operations are pure and safe for
    concurrent use.
    """

    def __init__(self, alphabet: Alphabet, images: Sequence[Sequence[tuple[Word, Fraction]]]):
        self.alphabet = alphabet
        self.images = tuple(tuple(entries) for entries in images)
        self._primitive: tuple[bool, int | None] | None = None
        self._language = None
        if len(self.images) != alphabet.size:
            raise ValueError("one image distribution per letter is required")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_data(cls, data: Mapping) -> "SubstitutionRule":
        """Validate raw rule data; raises RuleValidationError listing every
        violated invariant.

        Expected shape::

            {"alphabet": ["a", "b"],
             "rules": {"a": [{"word": "ab", "prob": "1/2"}, ...], ...}}
        """
        problems: list[str] = []
        try:
            alphabet = Alphabet(data["alphabet"])
        except (KeyError, ValueError) as exc:
            raise RuleValidationError([f"bad alphabet: {exc}"]) from None

        raw_rules = data.get("rules")
        if not isinstance(raw_rules, Mapping):
            raise RuleValidationError(["missing or malformed 'rules' mapping"])

        images: list[list[tuple[Word, Fraction]]] = [[] for _ in range(alphabet.size)]
        flagged: set[int] = set()  # letters with a problem of their own
        for symbol in alphabet.symbols:
            if symbol not in raw_rules:
                problems.append(f"letter {symbol!r} has no image distribution")
                flagged.add(alphabet.code(symbol))
        for symbol, entries in raw_rules.items():
            try:
                code = alphabet.code(symbol)
            except KeyError:
                problems.append(f"rule for unknown letter {symbol!r}")
                continue
            before = len(problems)
            seen: set[Word] = set()
            total = Fraction(0)
            for entry in entries:
                try:
                    word = alphabet.encode(entry["word"])
                except (KeyError, ValueError) as exc:
                    problems.append(f"image of {symbol!r}: {exc}")
                    continue
                if len(word) == 0:
                    problems.append(f"image of {symbol!r} is empty")
                    continue
                try:
                    prob = _parse_probability(entry["prob"])
                except (KeyError, ValueError) as exc:
                    problems.append(f"image probability of {symbol!r}: {exc}")
                    continue
                if not 0 < prob <= 1:
                    problems.append(
                        f"image probability of {symbol!r} must lie in (0,1], got {prob}"
                    )
                    continue
                if word in seen:
                    problems.append(
                        f"duplicate image word {alphabet.decode(word)!r} for {symbol!r}"
                    )
                    continue
                seen.add(word)
                total += prob
                images[code].append((word, prob))
            if images[code] and total != 1:
                problems.append(
                    f"image probabilities of {symbol!r} sum to {total}, not 1"
                )
            if len(problems) > before:
                flagged.add(code)
        for code, entries in enumerate(images):
            if not entries and code not in flagged:
                problems.append(
                    f"letter {alphabet.symbol(code)!r} has no image words"
                )
        if problems:
            raise RuleValidationError(problems)
        return cls(alphabet, images)

    @classmethod
    def from_file(cls, path) -> "SubstitutionRule":
        with open(path) as fh:
            return cls.from_data(json.load(fh))

    # -- basic accessors ---------------------------------------------------

    def images_of(self, letter) -> tuple[tuple[Word, Fraction], ...]:
        if isinstance(letter, str):
            letter = self.alphabet.code(letter)
        return self.images[letter]

    def supports(self) -> tuple[tuple[Word, ...], ...]:
        return tuple(tuple(w for w, _ in entries) for entries in self.images)

    def max_image_length(self) -> int:
        return max(len(w) for entries in self.images for w, _ in entries)

    def min_image_length(self) -> int:
        return min(len(w) for entries in self.images for w, _ in entries)

    def encode(self, word: WordLike) -> Word:
        return self.alphabet.encode(word)

    # -- kernel and iterates ----------------------------------------------

    def kernel(self, u: WordLike, v: WordLike) -> Fraction:
        """Probability that the concatenated independent letter images of u
        equal v.

        Dynamic programming over prefixes of v: O(|u| * |v| * max image
        length) instead of enumerating the exponentially many decompositions.
        """
        u = self.encode(u)
        v = self.encode(v)
        if len(u) == 0:
            raise ValueError("source word must be nonempty")
        lv = len(v)
        # prev[j] = probability that the images of the letters seen so far
        # concatenate exactly to v[:j]
        prev = [Fraction(0)] * (lv + 1)
        prev[0] = Fraction(1)
        for letter in u:
            cur = [Fraction(0)] * (lv + 1)
            for img, p in self.images[letter]:
                li = len(img)
                for j in range(li, lv + 1):
                    if prev[j - li] and v[j - li : j] == img:
                        cur[j] += prev[j - li] * p
            prev = cur
        return prev[lv]

    def iterate_distribution(
        self, u: WordLike, n: int, max_support: int | None = None
    ) -> IterateDistribution:
        """Exact law of the n-th iterate started from the word u."""
        u = self.encode(u)
        if n < 0:
            raise ValueError("iteration count must be nonnegative")
        limit = guard_limit(ITERATE_SUPPORT_LIMIT, max_support)
        dist: dict[Word, Fraction] = {u: Fraction(1)}
        for _ in range(n):
            nxt: dict[Word, Fraction] = {}
            for word, prob in dist.items():
                # distribution of the one-step image of `word`, built by
                # convolving the per-letter image distributions
                partial: dict[Word, Fraction] = {(): prob}
                for letter in word:
                    grown: dict[Word, Fraction] = {}
                    for prefix, wp in partial.items():
                        for img, ip in self.images[letter]:
                            key = prefix + img
                            grown[key] = grown.get(key, Fraction(0)) + wp * ip
                    partial = grown
                    if len(partial) > limit:
                        raise GuardExceeded(
                            f"iterate support exceeds guard limit {limit}"
                        )
                for word2, p2 in partial.items():
                    nxt[word2] = nxt.get(word2, Fraction(0)) + p2
                if len(nxt) > limit:
                    raise GuardExceeded(f"iterate support exceeds guard limit {limit}")
            dist = nxt
        return IterateDistribution(source=u, n=n, entries=dist)

    # -- mean matrix and classification ------------------------------------

    def mean_matrix(self) -> RationalMatrix:
        """Mean substitution matrix: entry (a, b) is the expected number of
        occurrences of letter a in the image of letter b."""
        m = self.alphabet.size
        rows = [[Fraction(0)] * m for _ in range(m)]
        for b in range(m):
            for img, p in self.images[b]:
                for a, cnt in enumerate(abelianise(img, m)):
                    if cnt:
                        rows[a][b] += p * cnt
        return RationalMatrix(
            labels=tuple(range(m)), rows=tuple(tuple(r) for r in rows)
        )

    def is_primitive(self) -> tuple[bool, int | None]:
        if self._primitive is None:
            self._primitive = self.mean_matrix().is_primitive()
        return self._primitive

    def language(self):
        """The rule's LanguageTable, created on first use and shared by its
        frequency measures, entropy partial sums and samplers."""
        if self._language is None:
            from .language import LanguageTable  # language imports this module

            self._language = LanguageTable(self)
        return self._language

    def is_expanding(self) -> bool:
        """True iff some image word is longer than one letter."""
        return self.max_image_length() > 1

    # -- misc ---------------------------------------------------------------

    def expected_image_length(self, letter) -> Fraction:
        return sum(p * len(w) for w, p in self.images_of(letter))

    def __repr__(self) -> str:
        parts = []
        for code, entries in enumerate(self.images):
            opts = ", ".join(
                f"{self.alphabet.decode(w)}:{p}" for w, p in entries
            )
            parts.append(f"{self.alphabet.symbol(code)} -> {{{opts}}}")
        return f"SubstitutionRule({'; '.join(parts)})"


# re-exported convenience wrapper matching the operation name

def validate_rule(data: Mapping) -> SubstitutionRule:
    return SubstitutionRule.from_data(data)
