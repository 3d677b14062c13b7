"""Exact mean matrix of the window-induced substitution.

The induced substitution acts on the alphabet of legal length-ell words: the
image of a word u is the sequence of ell-windows of the inflation of
u[1..ell], one window for every start position inside the image of the
first letter.  Its mean matrix therefore has column sums equal to the
expected image length of the first letter of the column word, and shares its
PF eigenvalue with the letter-level mean matrix.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .guards import INDUCED_COLUMN_LIMIT, GuardExceeded, guard_limit
from .substitution import RationalMatrix, SubstitutionRule, Word


def _column_weights(
    images: Sequence[Sequence[tuple[Word, Fraction]]],
    u: Word,
    ell: int,
    limit: int,
    scale: Fraction | float = Fraction(1),
) -> dict[Word, Fraction]:
    """Expected window counts E[occurrences of w in the induced image of u],
    times `scale`; images[c] lists the (image, probability) pairs of
    letter c.

    Joint realisations of the letter images are enumerated with prefix
    sharing: only the first first_len + ell - 1 output letters matter (the
    windows start at positions 1..first_len), so realisations agreeing on
    that prefix are merged and the remaining letters contribute probability
    one.  With Fraction probabilities and scale the result is bit-identical
    to plain enumeration; with floats the same sums run in floating point.
    """
    # state: (prefix capped at first_len + ell - 1 letters, first image len)
    states: dict[tuple[Word, int], Fraction] = {((), 0): scale}
    for letter in u:
        nxt: dict[tuple[Word, int], Fraction] = {}
        for (prefix, first), weight in states.items():
            if first and len(prefix) >= first + ell - 1:
                # prefix already long enough; remaining letters integrate out
                key = (prefix, first)
                nxt[key] = nxt.get(key, 0) + weight
                continue
            for img, p in images[letter]:
                f = first if first else len(img)
                cap = f + ell - 1
                key = ((prefix + img)[:cap], f)
                nxt[key] = nxt.get(key, 0) + weight * p
            if len(nxt) > limit:
                raise GuardExceeded(
                    f"induced-matrix column enumeration exceeds guard {limit}"
                )
        states = nxt
    counts: dict[Word, Fraction] = {}
    for (prefix, first), weight in states.items():
        for k in range(first):
            w = prefix[k : k + ell]
            counts[w] = counts.get(w, 0) + weight
    return counts


def _window_row(index: dict[Word, int], w: Word) -> int:
    """Position of a window produced by a legal word among the legal words."""
    try:
        return index[w]
    except KeyError:
        raise RuntimeError(
            f"window {w} produced by a legal word is not in the language; "
            "language enumeration is inconsistent"
        ) from None


def induced_mean_matrix(rule: SubstitutionRule, ell: int) -> RationalMatrix:
    """Exact mean matrix of the ell-induced substitution, indexed by the
    legal ell-words of `rule.language()` in lexicographic order.

    For ell = 1 this is the plain mean substitution matrix.  For ell > 1 the
    rule must be expanding, matching the standing hypothesis under which the
    induced construction is meaningful.
    """
    if ell < 1:
        raise ValueError("window length must be >= 1")
    if ell > 1 and not rule.is_expanding():
        raise ValueError("induced matrices with ell > 1 require an expanding rule")
    primitive, _ = rule.is_primitive()
    if not primitive:
        raise ValueError("induced matrices require a primitive rule")
    table = rule.language()
    words = table.words_of_length(ell)
    index = table.index(ell)
    limit = guard_limit(INDUCED_COLUMN_LIMIT)
    n = len(words)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for j, u in enumerate(words):
        for w, weight in _column_weights(rule.images, u, ell, limit).items():
            rows[_window_row(index, w)][j] = weight
    return RationalMatrix(labels=words, rows=tuple(tuple(r) for r in rows))
