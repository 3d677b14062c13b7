"""Random substitution rules with exact rational probabilities.

A rule assigns to every letter a finite distribution over nonempty image
words.  Everything in this module is exact, so the transition kernel,
iterate laws and the mean substitution matrix admit bit-exact tests.  The
API speaks `fractions.Fraction` and tuple words; inside, with D the lcm of
the probability denominators and integer image weights q = p * D, the kernel
and the iterate laws run on integer numerators over powers of D, on `bytes`
words.  Floating point enters only in the spectral module.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .guards import ITERATE_SUPPORT_LIMIT, GuardExceeded, guard_limit
from .words import Alphabet, WordLike, abelianise

Word = tuple[int, ...]


class RuleValidationError(ValueError):
    """Invalid rule data; `problems` lists every violated invariant."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class RationalMatrix:
    """Square nonnegative matrix of exact rationals with row/column labels.

    Row and column i both refer to ``labels[i]``; for mean matrices the
    labels are letter codes, for induced matrices they are legal words.  It
    is stored as the realisation kernel yields it: sparse columns, each a
    dict {row index: nonzero integer numerator} (equal columns may be one
    dict), over one ``denominator``, D for the mean matrix and D^ell for
    induced ones.  ``rows`` and ``column_sums`` build Fractions.  The fields
    are read-only: assigning to one raises AttributeError.
    """

    def __init__(self, labels: tuple, columns: tuple, denominator: int = 1):
        n = len(labels)
        if len(columns) != n or any(not 0 <= i < n for col in columns for i in col):
            raise ValueError("matrix shape does not match labels")
        if not (type(denominator) is int and denominator > 0):
            raise ValueError("denominator must be a positive integer")
        vars(self).update(labels=labels, columns=columns, denominator=denominator)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"RationalMatrix field {name!r} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not RationalMatrix:
            return NotImplemented
        return (self.labels, self.columns, self.denominator) == (
            other.labels, other.columns, other.denominator)

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def rows(self) -> tuple:  # tuple of tuples of Fraction
        rows = [[Fraction(0)] * self.size for _ in self.labels]
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                rows[i][j] = Fraction(x, self.denominator)
        return tuple(map(tuple, rows))

    def column_sums(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(sum(col.values()), self.denominator)
                     for col in self.columns)

    def to_float(self):
        """The dense float64 ndarray of the entries (imports numpy); the PF
        solve reads the same doubles from `columns` instead."""
        import numpy as np

        mat = np.zeros((self.size, self.size))
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                mat[i, j] = x / self.denominator  # int division rounds correctly
        return mat

    def is_primitive(self) -> tuple[bool, int | None]:
        """Primitivity of the support pattern, with witness exponent.

        Checks boolean powers up to the Wielandt bound (m-1)^2 + 1; returns
        (True, k) for the smallest k with an all-positive power.
        """
        n = self.size
        cur = step = [{i for i, x in col.items() if x > 0} for col in self.columns]
        for k in range(1, (n - 1) ** 2 + 2):  # up to the Wielandt bound
            if all(len(col) == n for col in cur):
                return True, k
            # boolean product with the one-step support, column by column
            cur = [set().union(*(cur[t] for t in col)) for col in step]
        return False, None


class IterateDistribution(NamedTuple):
    """Exact law of the n-th iterate of a random substitution on a word."""

    source: Word
    n: int
    entries: Mapping[Word, Fraction]


def _substitute(words, e0: int, laws, denominator: int, limit: int) -> tuple[dict, int]:
    """Law of a word drawn from `words` (numerators over D^e0) with each letter
    c replaced by an independent draw from laws[c] = (numerators over D^e, e);
    every law is keyed by `bytes` words."""
    exps = {word: sum(laws[c][1] for c in word) for word in words}
    top = max(exps.values())
    out: dict[bytes, int] = {}
    for word, x in words.items():
        acc = {b"": x * denominator ** (top - exps[word])}
        for c in word:
            nxt: dict[bytes, int] = {}
            numerators = laws[c][0]
            for prefix, y in acc.items():
                for w, z in numerators.items():
                    key = prefix + w
                    nxt[key] = nxt.get(key, 0) + y * z
                if len(nxt) > limit:
                    raise GuardExceeded(f"iterate support exceeds guard limit {limit}")
            acc = nxt
        for w, y in acc.items():
            out[w] = out.get(w, 0) + y
        if len(out) > limit:
            raise GuardExceeded(f"iterate support exceeds guard limit {limit}")
    return out, e0 + top


class SubstitutionRule:
    """A random substitution rule as given: the constructor checks only that
    there is one image list per letter; `from_data` and `from_file` are the
    validating entry points.  Immutable after construction; all operations
    are pure and safe for concurrent use.
    """

    def __init__(self, alphabet: Alphabet, images: Sequence[Sequence[tuple[Word, Fraction]]]):
        self.alphabet = alphabet
        self.images = tuple(tuple(entries) for entries in images)
        # (D, the images as bytes with integer weights q = p * D)
        d = math.lcm(*(p.denominator for entries in self.images for _, p in entries))
        self._integer_form = d, tuple(
            tuple((bytes(w), int(p * d)) for w, p in entries) for entries in self.images
        )
        self._primitive: tuple[bool, int | None] | None = None
        self._language = None
        if len(self.images) != alphabet.size:
            raise ValueError("one image distribution per letter is required")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_data(cls, data: Mapping) -> "SubstitutionRule":
        """Validate a config as `json.load` reads it, in one pass; raises
        RuleValidationError listing every violated invariant and bad shape.

        Expected shape (a word may also be a list of symbols)::

            {"alphabet": ["a", "b"],
             "rules": {"a": [{"word": "ab", "prob": "1/2"}, ...], ...}}
        """
        if not isinstance(data, Mapping):
            raise RuleValidationError(
                [f"config must be a JSON object, got {type(data).__name__}"])
        raw_alphabet = data.get("alphabet")
        if not isinstance(raw_alphabet, list):  # a string would be read letter by letter
            raise RuleValidationError(
                [f"bad alphabet: expected a list of symbols, got {raw_alphabet!r}"])
        try:
            alphabet = Alphabet(raw_alphabet)
        except ValueError as exc:
            raise RuleValidationError([f"bad alphabet: {exc}"]) from None

        raw_rules = data.get("rules")
        if not isinstance(raw_rules, Mapping):
            raise RuleValidationError(["missing or malformed 'rules' mapping"])

        problems = [f"rule for unknown letter {symbol!r}"
                    for symbol in raw_rules if symbol not in alphabet.symbols]
        images = []
        for symbol in alphabet.symbols:
            entries = raw_rules.get(symbol, [])
            if not isinstance(entries, list):
                problems.append(
                    f"images of {symbol!r} must be a list, got {type(entries).__name__}")
                continue
            if not entries:
                problems.append(f"letter {symbol!r} has no image words")
            law: dict[Word, Fraction] = {}
            for entry in entries:
                if not (isinstance(entry, Mapping)
                        and isinstance(entry.get("word"), (str, list))):
                    problems.append(f"image of {symbol!r} must be an object with a"
                                    f" string or list 'word', got {entry!r}")
                    continue
                try:
                    word = alphabet.encode(entry["word"])
                except (KeyError, ValueError) as exc:
                    problems.append(f"image of {symbol!r}: {exc}")
                    continue
                if len(word) == 0:
                    problems.append(f"image of {symbol!r} is empty")
                    continue
                raw = entry.get("prob")
                try:  # a bool is an int, but no probability
                    prob = Fraction(raw) if type(raw) in (str, int, Fraction) else None
                except (ValueError, ZeroDivisionError):  # "half", "1/0"
                    prob = None
                if prob is None:
                    problems.append(f"image probability of {symbol!r}: probability must"
                                    f" be a rational string or integer, got {raw!r}")
                    continue
                if not 0 < prob <= 1:
                    problems.append(
                        f"image probability of {symbol!r} must lie in (0,1], got {prob}"
                    )
                    continue
                if word in law:
                    problems.append(
                        f"duplicate image word {alphabet.decode(word)!r} for {symbol!r}"
                    )
                    continue
                law[word] = prob
            if law and (total := sum(law.values())) != 1:
                problems.append(
                    f"image probabilities of {symbol!r} sum to {total}, not 1"
                )
            images.append(law.items())
        if problems:
            raise RuleValidationError(problems)
        return cls(alphabet, images)

    @classmethod
    def from_file(cls, path) -> "SubstitutionRule":
        with open(path) as fh:
            return cls.from_data(json.load(fh))

    # -- basic accessors ---------------------------------------------------

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

        Dynamic programming over the prefixes of v that the images reach: at
        most O(|u| * |v|) steps per image instead of enumerating the
        exponentially many decompositions.
        """
        u = self.encode(u)
        v = bytes(self.encode(v))
        if len(u) == 0:
            raise ValueError("source word must be nonempty")
        denominator, images = self._integer_form
        # prev[j] = probability (numerator over D^letters seen), where nonzero,
        # that the images of the letters seen so far concatenate exactly to v[:j]
        prev = {0: 1}
        for letter in u:
            cur: dict[int, int] = {}
            for j, x in prev.items():
                for img, q in images[letter]:
                    if v.startswith(img, j):
                        cur[j + len(img)] = cur.get(j + len(img), 0) + x * q
            prev = cur
        return Fraction(prev.get(len(v), 0), denominator ** len(u))

    def iterate_distribution(
        self, u: WordLike, n: int, max_support: int | None = None
    ) -> IterateDistribution:
        """Exact law of theta^n(u), built from the laws of theta^m(c) once per
        (letter, depth) pair reachable from u.  For n >= 1, GuardExceeded is
        raised exactly when the support exceeds the guard: with the other
        choices fixed, each partial law maps one-to-one into that support."""
        u = self.encode(u)
        if n < 0:
            raise ValueError("iteration count must be nonnegative")
        if n == 0:
            return IterateDistribution(source=u, n=0, entries={u: Fraction(1)})
        limit = guard_limit(ITERATE_SUPPORT_LIMIT, max_support)
        denominator, images = self._integer_form
        reach = [set(u)]  # reach[d]: the letters of the realisations of theta^d(u)
        for _ in range(n):
            reach.append({c for b in reach[-1] for img, _ in images[b] for c in img})
        laws = {c: ({bytes((c,)): 1}, 0) for c in reach[n]}  # theta^m(c), m = 0..n
        for depth in range(n - 1, -1, -1):
            laws = {b: _substitute(dict(images[b]), 1, laws, denominator, limit)
                    for b in reach[depth]}
        numerators, e = _substitute({bytes(u): 1}, 0, laws, denominator, limit)
        scale = denominator**e
        entries = {tuple(w): Fraction(x, scale) for w, x in numerators.items()}
        return IterateDistribution(source=u, n=n, entries=entries)

    # -- mean matrix and classification ------------------------------------

    def mean_matrix(self) -> RationalMatrix:
        """Mean substitution matrix: entry (a, b) is the expected number of
        occurrences of letter a in the image of letter b."""
        m = self.alphabet.size
        denominator, images = self._integer_form
        columns = tuple({} for _ in range(m))
        for col, entries in zip(columns, images):
            for img, q in entries:
                for a, cnt in enumerate(abelianise(img, m)):
                    if cnt:
                        col[a] = col.get(a, 0) + q * cnt
        return RationalMatrix(tuple(range(m)), columns, denominator)

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
        return sum(p * len(w) for w, p in self.images[self.encode([letter])[0]])

    def __repr__(self) -> str:
        parts = []
        for code, entries in enumerate(self.images):
            opts = ", ".join(
                f"{self.alphabet.decode(w)}:{p}" for w, p in entries
            )
            parts.append(f"{self.alphabet.symbol(code)} -> {{{opts}}}")
        return f"SubstitutionRule({'; '.join(parts)})"
