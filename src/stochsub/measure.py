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
of p's first letter (`_column_weights`).  R_ell is built from R_m, which is
built the same way, and normalised by its total, which must equal lambda^k.
The PF solve on `induced_mean_matrix` remains where the recursion does not
apply: at the base lengths with m >= ell, and for rules without an inflating
power or whose power has a large law.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .guards import INDUCED_COLUMN_LIMIT, guard_limit
from .induced import _column_weights, _window_row, induced_mean_matrix
from .spectral import pf_eigenpair
from .substitution import SubstitutionRule, Word
from .words import WordLike


class IllegalWordWarning(UserWarning):
    """A cylinder was requested for a word outside the language."""


class FrequencyMeasure:
    """Cylinder-set measure backed by cached per-length frequency vectors.

    Cache population is serialised by a lock; reads of populated entries are
    plain dict lookups, so results are identical to a single-threaded build.
    """

    def __init__(self, rule: SubstitutionRule):
        primitive, _ = rule.is_primitive()
        if not primitive:
            raise ValueError("frequency measures require a primitive rule")
        self.rule = rule
        self.table = rule.language()
        self._cache: dict[int, tuple[tuple[Word, ...], np.ndarray]] = {}
        self._lock = threading.Lock()
        self._value: float | None = None  # PF eigenvalue of the rule

    def frequency_vector(self, ell: int) -> tuple[tuple[Word, ...], np.ndarray]:
        """Legal ell-words with their limiting frequencies (sums to 1)."""
        if ell in self._cache:
            return self._cache[ell]
        m = self.table.prefix_length(ell)
        # built before taking the lock, which is not re-entrant
        prefixes = self.frequency_vector(m) if m is not None else None
        with self._lock:
            if ell not in self._cache:
                if prefixes is None:
                    self._cache[ell] = self._pf_vector(ell)
                else:
                    self._cache[ell] = self._renormalised_vector(ell, *prefixes)
        return self._cache[ell]

    def _pf_vector(self, ell: int) -> tuple[tuple[Word, ...], np.ndarray]:
        matrix = induced_mean_matrix(self.rule, ell)
        pair = pf_eigenpair(matrix)
        vec = pair.right
        total = vec.sum()
        if abs(total - 1.0) > 1e-9:
            raise RuntimeError(f"frequency vector for length {ell} sums to {total}")
        self._value = pair.value
        return matrix.labels, vec

    def _renormalised_vector(
        self, ell: int, prefixes: tuple[Word, ...], prefix_vec: np.ndarray
    ) -> tuple[tuple[Word, ...], np.ndarray]:
        k, power = self.table.power
        limit = guard_limit(INDUCED_COLUMN_LIMIT)
        words = self.table.words_of_length(ell)
        index = self.table.index(ell)
        images = [[(img, float(q)) for img, q in entries] for entries in power.images]
        vec = np.zeros(len(words))
        for p, r in zip(prefixes, prefix_vec):
            for w, x in _column_weights(images, p, ell, limit, float(r)).items():
                vec[_window_row(index, w)] += x
        total = vec.sum()
        expected = self._value**k
        if abs(total - expected) > 1e-9 * expected:
            raise RuntimeError(
                f"frequency vector for length {ell} sums to {total} before "
                f"normalisation, not lambda^{k} = {expected}"
            )
        return words, vec / total

    def cylinder_measure(self, v: WordLike) -> float:
        """Measure of the cylinder set of v at any fixed position.

        The empty specification denotes the whole space (measure 1); illegal
        words get measure 0 with an IllegalWordWarning.
        """
        w = self.rule.encode(v)
        if len(w) == 0:
            return 1.0
        words, vec = self.frequency_vector(len(w))
        idx = self.table.index(len(w))
        pos = idx.get(w)
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


@dataclass(frozen=True)
class ErgodicityProbe:
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
