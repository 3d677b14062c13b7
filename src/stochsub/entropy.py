"""Entropy partial sums and the constant-length maximal-entropy criterion.

Both entropies are computed as finite-n partial quantities over the legal
words of length n; natural logarithms throughout.  The language refuses a
non-integer n, n < 1 and a non-primitive rule.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .measure import FrequencyMeasure
from .substitution import SubstitutionRule
from .words import abelianise


def metric_entropy_partial(fm: FrequencyMeasure, n: int) -> float:
    """-(1/n) * sum over legal n-words of mu([w]) log mu([w]); ValueError (from
    `FrequencyMeasure.frequency_vector`) for n > 1 on a non-expanding rule,
    which has no legal words longer than one letter."""
    _, vec = fm.frequency_vector(n)
    return -sum(x * math.log(x) for x in vec if x > 0) / int(n)  # not a numpy float


def topological_entropy_partial(rule: SubstitutionRule, n: int) -> float:
    """log(number of legal n-words) / n; ValueError for n > 1 on a
    non-expanding rule, which has no legal words longer than one letter."""
    if n > 1 and not rule.is_expanding():
        raise ValueError("topological entropy with n > 1 requires an expanding rule")
    return math.log(len(rule.language().words_of_length(n))) / int(n)  # not a numpy float


class MaxEntropyReport(NamedTuple):
    """Outcome of the shared-image constant-length criterion.

    A rule qualifies when every letter has the same set of image words, all
    of one common length with pairwise equal letter counts, and the rule is
    primitive.  With uniform probabilities the metric entropy is then
    (1/N) log(number of images); the report carries that prediction together
    with partial sums at the deepest affordable n.
    """

    qualifies: bool
    reason: str
    image_length: int | None = None      # common image length N
    image_count: int | None = None       # number of image words per letter
    uniform: bool | None = None
    predicted_entropy: float | None = None
    checked_n: int | None = None
    metric_partial: float | None = None
    topological_partial: float | None = None


def max_entropy_class_check(rule: SubstitutionRule, max_n: int = 8) -> MaxEntropyReport:
    """Whether the rule meets the shared-image criterion and, for uniform
    probabilities, both partial sums at n = `max_n` rounded down to a
    multiple of the image length N, and at least N.  GuardExceeded past the
    language guard at that n."""
    supports = rule.supports()
    base = set(supports[0])
    for letter in range(1, rule.alphabet.size):
        if set(supports[letter]) != base:
            return MaxEntropyReport(False, "image word sets differ between letters")
    lengths = {len(w) for w in base}
    if len(lengths) != 1:
        return MaxEntropyReport(False, "image words have unequal lengths")
    big_n = lengths.pop()
    if big_n < 2:
        return MaxEntropyReport(False, "rule is not expanding")
    size = rule.alphabet.size
    abel = {abelianise(w, size) for w in base}
    if len(abel) != 1:
        return MaxEntropyReport(False, "image words have unequal letter counts")
    primitive, _ = rule.is_primitive()
    if not primitive:
        return MaxEntropyReport(False, "rule is not primitive")

    count = len(base)
    uniform = all(
        all(p == entries[0][1] for _, p in entries) for entries in rule.images
    )
    report = MaxEntropyReport(
        qualifies=True,
        reason="shared images of common length and letter counts, primitive",
        image_length=big_n,
        image_count=count,
        uniform=uniform,
    )
    if not uniform:
        return report
    n = max(big_n, (max_n // big_n) * big_n)
    return report._replace(
        predicted_entropy=math.log(count) / big_n,
        checked_n=n,
        metric_partial=metric_entropy_partial(FrequencyMeasure(rule), n),
        topological_partial=topological_entropy_partial(rule, n),
    )
