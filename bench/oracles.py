"""Oracles that check benchmark outputs without calling stochsub.

They read the rule configs as plain JSON and use only closed forms that hold
for the bundled rules: images of one letter all have the same length (so
iterate lengths are fixed and a realisation splits into letter images at
known positions), and expected 2-word counts of an iterate obey an exact
linear recursion.
"""

from __future__ import annotations

import json
from fractions import Fraction


def load_rules(path) -> dict[str, list[tuple[str, Fraction]]]:
    """letter -> [(image word, probability)] from a single-character config."""
    with open(path) as fh:
        data = json.load(fh)
    return {letter: [(e["word"], Fraction(e["prob"])) for e in entries]
            for letter, entries in data["rules"].items()}


def image_length(rules, letter) -> int:
    lengths = {len(w) for w, _ in rules[letter]}
    if len(lengths) != 1:
        raise ValueError(f"images of {letter!r} differ in length")
    return lengths.pop()


def iterate_letter_counts(rules, letter: str, n: int) -> dict[str, int]:
    """Letter counts of every realisation of the n-th iterate, for rules whose
    images of one letter are permutations of each other."""
    counts = {letter: 1}
    for _ in range(n):
        nxt: dict[str, int] = {}
        for c, k in counts.items():
            image = rules[c][0][0]
            if any(sorted(w) != sorted(image) for w, _ in rules[c]):
                raise ValueError(f"images of {c!r} differ in letter content")
            for x in image:
                nxt[x] = nxt.get(x, 0) + k
        counts = nxt
    return counts


def expected_pair_count(rules, letter: str, pair: str, n: int) -> Fraction:
    """E[occurrences of the 2-word `pair` in the n-th iterate of `letter`].

    Images of distinct letters are independent, so the expected counts of
    letters and of 2-words after one more round are linear in the counts
    before it: a 2-word of the image arises inside one letter's image or
    across the boundary between the images of two adjacent letters.
    """
    letters = {letter: Fraction(1)}
    pairs: dict[str, Fraction] = {}
    for _ in range(n):
        nl: dict[str, Fraction] = {}
        np_: dict[str, Fraction] = {}
        for c, k in letters.items():
            for w, p in rules[c]:
                for x in w:
                    nl[x] = nl.get(x, 0) + k * p
                for i in range(len(w) - 1):
                    np_[w[i:i + 2]] = np_.get(w[i:i + 2], 0) + k * p
        for xy, k in pairs.items():
            for w1, p1 in rules[xy[0]]:
                for w2, p2 in rules[xy[1]]:
                    key = w1[-1] + w2[0]
                    np_[key] = np_.get(key, 0) + k * p1 * p2
        letters, pairs = nl, np_
    return pairs.get(pair, Fraction(0))


def kernel(rules, u: str, v: str) -> Fraction:
    """P[the one-step image of u equals v], for rules whose images of one
    letter share a length: v then splits into letter images at fixed
    positions and the probability is a product."""
    prob, pos = Fraction(1), 0
    for c in u:
        seg = v[pos:pos + image_length(rules, c)]
        pos += len(seg)
        prob *= sum((p for w, p in rules[c] if w == seg), Fraction(0))
    return prob if pos == len(v) else Fraction(0)
