"""Finite-word combinatorics over a small interned alphabet.

A letter's code is its position in the declared alphabet order, which also
fixes the lexicographic order used everywhere else in the package.  An
alphabet has at most 255 symbols, so every code fits in a byte.  The public
API speaks words as tuples of letter codes; inside, the exact layer (kernel,
language, induced columns, iterate laws) and the sampler hold them as
`bytes`, one byte per letter, which sort exactly as the tuples do.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence, Union

WordLike = Union[str, Sequence[int]]


MAX_SYMBOLS = 255  # codes 0..254; the sampler pads its image table with 255


class Alphabet:
    """Ordered finite alphabet mapping symbols to small integer codes.

    Needs 1 to 255 distinct nonempty string symbols, which hold no space
    unless all are single characters (ValueError otherwise).
    """

    def __init__(self, symbols: Iterable[str]):
        symbols = tuple(symbols)
        if not symbols:
            raise ValueError("alphabet must contain at least one symbol")
        if len(symbols) > MAX_SYMBOLS:
            raise ValueError(f"alphabet has more than {MAX_SYMBOLS} symbols")
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be distinct")
        for s in symbols:
            if not isinstance(s, str) or not s:
                raise ValueError("alphabet symbols must be nonempty strings")
        self._symbols = symbols
        self._codes = {s: i for i, s in enumerate(symbols)}
        self._single_char = all(len(s) == 1 for s in symbols)
        if not self._single_char and any(" " in s for s in symbols):
            raise ValueError("multi-character symbols must not contain a space")
        self._valid = bytes(range(len(symbols)))
        self._sep = "" if self._single_char else " "
        self._decode_table = {i: s + self._sep for i, s in enumerate(symbols)}

    @property
    def symbols(self) -> tuple[str, ...]:
        return self._symbols

    @property
    def size(self) -> int:
        return len(self._symbols)

    def code(self, symbol: str) -> int:
        try:
            return self._codes[symbol]
        except KeyError:
            raise KeyError(f"unknown letter {symbol!r}") from None

    def symbol(self, code: int) -> str:
        return self._symbols[code]

    def encode(self, word: WordLike) -> tuple[int, ...]:
        """Intern a word given as a string (its symbols joined as `decode`
        joins them), a sequence of symbols, or a sequence of codes."""
        if isinstance(word, str):
            if self._single_char or not word:  # "" is the empty word
                return tuple(self.code(c) for c in word)
            if not self._codes.keys() >= set(word.split(" ")):
                raise ValueError(f"{word!r} is not a space-separated word of symbols")
            word = word.split(" ")  # as `decode` joins them
        out = []
        for x in word:
            if isinstance(x, str):
                out.append(self.code(x))
            else:
                # ints, bools and numpy integers; a float is no code, 1.0 neither
                code = operator.index(x) if hasattr(type(x), "__index__") else -1
                if not 0 <= code < self.size:
                    raise KeyError(f"letter code {x} out of range")
                out.append(code)
        return tuple(out)

    def decode(self, codes: Sequence[int]) -> str:
        """Symbols of the codes joined by "" on single-character
        alphabets, else by " "; a code outside [0, size) raises KeyError."""
        try:
            # other sequences go by item, as a buffer (numpy int64, say)
            # holds more than one byte per code
            raw = (bytes(codes) if isinstance(codes, (bytes, tuple, list))
                   else bytes(iter(codes)))
            bad = raw.translate(None, self._valid)
        except ValueError:  # a code outside range(256)
            raw, bad = b"", [c for c in codes if not 0 <= c < self.size]
        if bad:
            raise KeyError(f"letter code {bad[0]} out of range")
        text = raw.decode("latin-1").translate(self._decode_table)
        return text[: len(text) - len(self._sep)] if raw else text

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self._symbols == other._symbols

    def __hash__(self) -> int:
        return hash(self._symbols)

    def __repr__(self) -> str:
        return f"Alphabet({list(self._symbols)!r})"


def count_occurrences(u: Sequence, v: Sequence) -> int:
    """Number of (possibly overlapping) occurrences of v as a subword of u.

    Returns 0 when v is longer than u.
    """
    lv = len(v)
    if lv == 0:
        raise ValueError("pattern word must be nonempty")
    # the windows of u are the tuples zip draws from its lv shifted copies
    return sum(map(tuple(v).__eq__, zip(*(u[k:] for k in range(lv)))))


def abelianise(u: Sequence[int], size: int) -> tuple[int, ...]:
    """Letter-count vector of u, indexed by letter code; components sum to |u|."""
    if len(u) == 0:
        raise ValueError("cannot abelianise the empty word")
    counts = [0] * size
    for c in u:
        counts[c] += 1
    return tuple(counts)
