"""The ergodic frequency measure on cylinder sets.

The measure of a cylinder over a legal word v is the v-component R_ell(v)
of the L1-normalised right PF eigenvector of the induced mean matrix for
windows of length ell = |v|; it does not depend on the cylinder's position.
Words outside the language carry measure zero (flagged with a warning, not
an error).

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
of p's first letter (`_column_weights`).  R_ell is built from R_m in one
kernel pass over L_m and normalised by its total, which must equal
lambda^k; every probability is positive, so the windows of that pass are
the legal ell-words, which the rule's `LanguageTable` stores with the
vector.  The PF solve on `induced_mean_matrix` remains where the recursion
does not apply: at the base lengths with m >= ell, and for rules without an
inflating power or whose power has a large law.  Every FrequencyMeasure on
one rule shares the table, and finds a cylinder's component by bisecting
its sorted words; nothing is locked, and concurrent requests for one length
may both compute it (the first words stored are the ones every reader gets).
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .induced import induced_mean_matrix
from .language import _column_weights, _language_budget
from .spectral import pf_eigenpair
from .substitution import SubstitutionRule, Word
from .words import WordLike

if TYPE_CHECKING:
    import numpy as np


class IllegalWordWarning(UserWarning):
    """A cylinder was requested for a word outside the language."""


class FrequencyMeasure:
    """Cylinder-set measure backed by the frequency vectors of the rule's
    language table, which every FrequencyMeasure on the rule shares."""

    def __init__(self, rule: SubstitutionRule):
        primitive, _ = rule.is_primitive()
        if not primitive:
            raise ValueError("frequency measures require a primitive rule")
        self.rule = rule
        self.table = rule.language()

    def frequency_vector(self, ell: int) -> tuple[tuple[Word, ...], np.ndarray]:
        """Legal ell-words with their limiting frequencies (sums to 1)."""
        vectors = self.table._vectors
        if ell not in vectors:
            m = self.table.prefix_length(ell)
            if m is None:
                vectors[ell] = self._pf_vector(ell)
            else:
                vectors[ell] = self._recursion_vector(ell, m)
        return self.table.words_of_length(ell), vectors[ell]

    def _pf_vector(self, ell: int) -> np.ndarray:
        pair = pf_eigenpair(induced_mean_matrix(self.rule, ell))
        total = pair.right.sum()
        if abs(total - 1.0) > 1e-9:
            raise RuntimeError(f"frequency vector for length {ell} sums to {total}")
        self.table._eigenvalue = pair.value
        return pair.right

    def _recursion_vector(self, ell: int, m: int) -> np.ndarray:
        import numpy as np

        prefixes, prefix_vec = self.frequency_vector(m)
        k, power = self.table.power
        images = [[(bytes(img), float(q)) for img, q in entries]
                  for entries in power.images]
        budget = _language_budget()
        counts: dict[bytes, float] = {}
        for p, r in zip(prefixes, prefix_vec):
            for w, x in _column_weights(images, p, ell, budget, float(r)).items():
                counts[w] = counts.get(w, 0) + x
        keys = sorted(counts)  # bytes sort as the tuples of the stored words
        self.table._store(ell, tuple(map(tuple, keys)))
        vec = np.array([counts[w] for w in keys])
        total = vec.sum()
        expected = self.table._eigenvalue**k
        if abs(total - expected) > 1e-9 * expected:
            raise RuntimeError(
                f"frequency vector for length {ell} sums to {total} before "
                f"normalisation, not lambda^{k} = {expected}"
            )
        return vec / total

    def cylinder_measure(self, v: WordLike) -> float:
        """Measure of the cylinder set of v at any fixed position.

        The empty specification denotes the whole space (measure 1); illegal
        words get measure 0 with an IllegalWordWarning.
        """
        w = self.rule.encode(v)
        if len(w) == 0:
            return 1.0
        _, vec = self.frequency_vector(len(w))
        pos = self.table.position(w)
        if pos is None:
            warnings.warn(
                f"word {self.rule.alphabet.decode(w)!r} is not legal; measure 0",
                IllegalWordWarning,
                stacklevel=2,
            )
            return 0.0
        return float(vec[pos])

    def consistency_residual(self, ell0: int, ell: int) -> float:
        """Worst absolute defect of the refinement identity: the measure of a
        length-ell0 cylinder must equal the summed measures of its length-ell
        extensions at every anchoring position."""
        if not 1 <= ell0 <= ell:
            raise ValueError("need 1 <= ell0 <= ell")
        base_words, base_vec = self.frequency_vector(ell0)
        ext_words, ext_vec = self.frequency_vector(ell)
        worst = 0.0
        for k in range(ell - ell0 + 1):
            sums = {w: 0.0 for w in base_words}
            for u, value in zip(ext_words, ext_vec):
                mid = u[k : k + ell0]
                if mid in sums:
                    sums[mid] += value
            for w, value in zip(base_words, base_vec):
                worst = max(worst, abs(float(value) - sums[w]))
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
    tolerance: float = 1e-6,
) -> ErgodicityProbe:
    """Compare frequency vectors of probability-perturbed rules.

    Every variant must share the image supports of the base rule (the
    subshift, hence the language, depends only on supports).  The verdict is
    'sensitive' if any frequency component for any window length j <= ell
    moves by more than the tolerance.
    """
    import numpy as np

    base_supports = rule.supports()
    for variant in variants:
        if variant.alphabet != rule.alphabet or variant.supports() != base_supports:
            raise ValueError("perturbation changes the image supports")
    base = FrequencyMeasure(rule)
    worst = 0.0
    for variant in variants:
        fm = FrequencyMeasure(variant)
        for j in range(1, ell + 1):
            words_a, vec_a = base.frequency_vector(j)
            words_b, vec_b = fm.frequency_vector(j)
            if words_a != words_b:
                raise RuntimeError("variant language differs from base language")
            worst = max(worst, float(np.abs(vec_a - vec_b).max()))
    return ErgodicityProbe(sensitive=worst > tolerance, max_difference=worst, ell=ell)
