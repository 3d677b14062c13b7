"""The ergodic frequency measure on cylinder sets.

The measure of a cylinder over a legal word v is the v-component R_ell(v)
of the L1-normalised right PF eigenvector of the induced mean matrix for
windows of length ell = |v|; it does not depend on the cylinder's position.
Words outside the language (on a non-expanding rule, all longer than one
letter) carry measure zero, flagged with a warning, not an error.

R_ell is computed without the |L_ell|-sized eigenproblem.  Let theta^k be
the inflating power of the rule's language table (see `language`), whose
shortest image has minlen >= 2 letters; its mean matrices are the k-th
powers of the rule's, so it has the same frequency vectors and eigenvalue
lambda^k.  The induced column of theta^k at a word depends only on the
first m = 1 + ceil((ell - 1) / minlen) letters of the word, so summing the
induced eigen-equation over the extensions of each prefix with the
consistency identity gives

    lambda^k R_ell(v) = sum over p in L_m of R_m(p) W_ell(p, v),

where W_ell(p, v) is the expected number of v-windows starting in the image
of p's first letter.  R_ell comes from R_m in the language's one pass per
length (`language._recursion_pass`), which sums the tail prefixes of every
p, scaled by R_m(p), per first letter and joins each sum once; every
probability is positive, so its windows are the legal ell-words, which the
rule's `LanguageTable` stores with the vector.  The pass sums exact
integers: R_m over one power of two, theta^k's images weighted p * D.
Their total over that scale and D^m must equal lambda^k = sum over letters a
of R_1(a) E|theta^k(a)| = 1^T M^k R_1, from the stored letter frequencies
and theta^k's `expected_image_length`, and normalises them, one correctly
rounded int / int quotient per component.  At length 2, and at every length
without a usable power, the pass runs on theta over L_m, m = ell - 1, for
the windows C that a word's first ell - 1 letters determine.  The self part
B adds, per x in L_ell and realisation with single-letter images of
x[1:-1], the window from the last letter of theta(x_0) to the first of
theta(x[-1]).  So R_ell is the PF vector of C 1^T + B, by
`spectral._power_iterate`, its eigenvalue checked as lambda.  The one PF
solve on a matrix is R_1's, on the mean matrix.
`FrequencyMeasure.frequency_vector` is the one writer of the table's
vectors.  Every FrequencyMeasure on one rule shares the table, and finds a
cylinder's component by bisecting its sorted words; nothing is locked, and
concurrent requests for one length may both compute it (the first words
stored are the ones every reader gets).
A vector is a tuple of Python floats, so no caller can change the one the
table shares, and no frequency or entropy loads numpy.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple, Sequence

from .induced import induced_mean_matrix
from .language import _check_length, _language_budget, _recursion_pass, _window_counts
from .spectral import _power_iterate, pf_eigenpair
from .substitution import SubstitutionRule, Word
from .words import WordLike


# largest frequency change that `unique_ergodicity_probe` calls insensitive
PROBE_TOLERANCE = 1e-6


class IllegalWordWarning(UserWarning):
    """A cylinder was requested for a word outside the language."""


class FrequencyMeasure:
    """Cylinder-set measure backed by the frequency vectors of the rule's
    language table, which every FrequencyMeasure on the rule shares, and
    which refuses a non-primitive rule (ValueError)."""

    def __init__(self, rule: SubstitutionRule):
        self.rule = rule
        self.table = rule.language()

    def frequency_vector(self, ell: int) -> tuple[tuple[Word, ...], tuple[float, ...]]:
        """Legal ell-words with their limiting frequencies (sums to 1), both
        tuples, shared by every FrequencyMeasure on the rule; ValueError for
        ell > 1 on a non-expanding rule."""
        ell = _check_length(ell)
        if ell > 1 and not self.rule.is_expanding():
            raise ValueError("frequency vectors with ell > 1 require an expanding rule")
        vectors = self.table._vectors
        if ell not in vectors:
            m = self.table.prefix_length(ell)
            if ell == 1:
                vectors[1] = pf_eigenpair(induced_mean_matrix(self.rule, 1)).right
            else:
                vectors[ell] = (self._self_part_vector(ell) if m is None
                                else self._recursion_vector(ell, m))
        return self.table.words_of_length(ell), vectors[ell]

    def _integer_vector(self, m: int) -> tuple[list[int], int]:
        """R_m as integers over the largest of its power-of-two denominators."""
        ratios = [x.as_integer_ratio() for x in self.frequency_vector(m)[1]]
        scale = max(d for _, d in ratios)
        return [n * (scale // d) for n, d in ratios], scale

    def _check_lambda(self, ell: int, found: float, k: int, power: SubstitutionRule) -> None:
        # lambda^k = 1^T M^k R_1: the letter frequencies times E|theta^k(a)|
        _, letter_vec = self.frequency_vector(1)
        expected = sum(r * float(power.expected_image_length(a))
                       for a, r in enumerate(letter_vec))
        if abs(found - expected) > 1e-9 * expected:
            raise RuntimeError(f"frequency vector for length {ell} sums to {found} before "
                               f"normalisation, not lambda^{k} = {expected}")

    def _recursion_vector(self, ell: int, m: int) -> tuple[float, ...]:
        k, power = self.table.power
        weights, scale = self._integer_vector(m)
        _, sums = _recursion_pass(self.table, ell, m, weights)
        total = sum(sums)
        self._check_lambda(ell, total / (scale * power._integer_form[0] ** m), k, power)
        return tuple(x / total for x in sums)  # int / int rounds correctly

    def _self_part_vector(self, ell: int) -> tuple[float, ...]:
        """R_ell as the PF vector of C 1^T + B on theta (module docstring), C
        and B spending one language budget."""
        words = self.table.words_of_length(ell)
        index = {bytes(w): i for i, w in enumerate(words)}
        weights, scale = self._integer_vector(ell - 1)
        denominator, images = self.rule._integer_form
        budget = _language_budget()
        c = [0.0] * len(words)
        for w, n in _window_counts(images, self.table.words_of_length(ell - 1), ell,
                                   budget, weights, denominator).items():
            if len(w) == ell:  # a cut-short window is the self part's
                c[index[w]] = n / (scale * denominator ** (ell - 1))
        self_part = []  # B's entries (row, column, value), a row repeating in a column
        for j, u in enumerate(words):
            middles = [(b"", 1)]
            for letter in u[1:-1]:
                budget.spend(len(middles))
                middles = [(mid + img, n * q) for mid, n in middles
                           for img, q in images[letter] if len(img) == 1]
            self_part += [(index[a[-1:] + mid + b[:1]], j, p * n * q / denominator**ell)
                          for a, p in images[u[0]] for mid, n in middles
                          for b, q in images[u[-1]]]

        def step(x: list[float]) -> list[float]:  # (C 1^T + B) x, as x sums to 1
            y = list(c)
            for i, j, v in self_part:
                y[i] += v * x[j]
            return y

        lam, vec, _, _ = _power_iterate(step, len(words))
        self._check_lambda(ell, lam, 1, self.rule)
        return tuple(vec)

    def cylinder_measure(self, v: WordLike) -> float:
        """Measure of the cylinder set of v at any fixed position.

        The empty specification denotes the whole space (measure 1); illegal
        words get measure 0 with an IllegalWordWarning.
        """
        w = self.rule.encode(v)
        if len(w) == 0:
            return 1.0
        if len(w) == 1 or self.rule.is_expanding():  # else no word this long is legal
            _, vec = self.frequency_vector(len(w))  # first, as its pass stores the words
        pos = self.table.position(w)
        if pos is None:
            warnings.warn(
                f"word {self.rule.alphabet.decode(w)!r} is not legal; measure 0",
                IllegalWordWarning,
                stacklevel=2,
            )
            return 0.0
        return vec[pos]

    def consistency_residual(self, ell0: int, ell: int) -> float:
        """Worst absolute defect of the refinement identity: the measure of a
        length-ell0 cylinder must equal the summed measures of its length-ell
        extensions at every anchoring position.  Both word lists come from the
        rule's one language, so every window of an ell-word is an ell0-word.

        Raises ValueError unless 1 <= ell0 <= ell, and ValueError (from
        `frequency_vector`) for ell > 1 on a non-expanding rule.
        """
        if not 1 <= ell0 <= ell:
            raise ValueError("need 1 <= ell0 <= ell")
        base_words, base_vec = self.frequency_vector(ell0)
        ext_words, ext_vec = self.frequency_vector(ell)
        worst = 0.0
        for k in range(ell - ell0 + 1):
            sums = {w: 0.0 for w in base_words}
            for u, value in zip(ext_words, ext_vec):
                sums[u[k : k + ell0]] += value
            for w, value in zip(base_words, base_vec):
                worst = max(worst, abs(value - sums[w]))
        return worst


class ErgodicityProbe(NamedTuple):
    """Finite-length sensitivity verdict; never a proof of unique ergodicity."""

    sensitive: bool
    max_difference: float
    ell: int

    @property
    def verdict(self) -> str:
        return "sensitive" if self.sensitive else "insensitive-up-to-ell"


def unique_ergodicity_probe(
    rule: SubstitutionRule,
    ell: int,
    variants: Sequence[SubstitutionRule],
) -> ErgodicityProbe:
    """Compare frequency vectors of probability-perturbed rules.

    Every variant must share the image supports of the base rule (the
    subshift, hence the language, depends only on supports), so its
    frequency vectors are indexed by the base rule's words and are compared
    component by component.  The verdict is 'sensitive' if any frequency
    component for any window length j <= ell moves by more than
    PROBE_TOLERANCE.

    Raises ValueError for an empty `variants`, for a variant that changes
    the image supports, for ell < 1 (from the language) and for ell > 1 on
    a non-expanding rule.
    """
    if not variants:
        raise ValueError("the probe needs at least one variant")
    base_supports = rule.supports()
    for variant in variants:
        if variant.alphabet != rule.alphabet or variant.supports() != base_supports:
            raise ValueError("perturbation changes the image supports")
    base = FrequencyMeasure(rule)
    base.frequency_vector(ell)  # the language refuses ell < 1 here
    worst = 0.0
    for variant in variants:
        fm = FrequencyMeasure(variant)
        for j in range(1, ell + 1):
            _, vec_a = base.frequency_vector(j)
            _, vec_b = fm.frequency_vector(j)
            worst = max(worst, *(abs(a - b) for a, b in zip(vec_a, vec_b)))
    return ErgodicityProbe(worst > PROBE_TOLERANCE, worst, ell)
