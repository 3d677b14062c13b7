from fractions import Fraction

import pytest

from stochsub import induced_mean_matrix, pf_eigenpair

from conftest import (
    make_deterministic_fibonacci,
    make_fibonacci,
    make_non_expanding,
    make_period_doubling,
    make_zeta,
)

F = Fraction


def plain_column_weights(rule, u, ell):
    """Oracle: enumerate every joint realisation of the letter images of u
    with its product probability and count the windows directly."""
    joint = [((), F(1), 0)]  # (concatenation, probability, first image length)
    for pos, letter in enumerate(u):
        joint = [
            (word + img, prob * p, len(img) if pos == 0 else first)
            for word, prob, first in joint
            for img, p in rule.images[letter]
        ]
    counts = {}
    for word, prob, first in joint:
        for k in range(first):
            w = word[k:k + ell]
            counts[w] = counts.get(w, F(0)) + prob
    return counts


def expected_induced(p):
    """The 4x4 induced matrix of the random period doubling rule, rows and
    columns ordered aa, ab, ba, bb."""
    q = 1 - p
    return (
        (p * q, q, 1 + p, F(2)),
        (1 - p * q, p, q, F(0)),
        (1 - p * q, F(1), F(0), F(0)),
        (p * q, F(0), F(0), F(0)),
    )


class TestPeriodDoubling:
    @pytest.mark.parametrize("p", [F(1, 4), F(1, 2), F(3, 4)])
    def test_matches_closed_form(self, p):
        rule = make_period_doubling(p)
        mat = induced_mean_matrix(rule, 2)
        assert [rule.alphabet.decode(w) for w in mat.labels] == \
            ["aa", "ab", "ba", "bb"]
        assert mat.rows == expected_induced(p)

    def test_column_sums_are_two(self):
        mat = induced_mean_matrix(make_period_doubling(F(2, 7)), 2)
        assert mat.column_sums() == (F(2),) * 4


class TestAgainstPlainEnumeration:
    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_bit_identical(self, ell):
        for rule in (make_fibonacci(F(1, 3)), make_period_doubling(F(2, 5)),
                     make_zeta(F(1, 7))):
            mat = induced_mean_matrix(rule, ell)
            index = rule.language().index(ell)
            for j, u in enumerate(mat.labels):
                oracle = plain_column_weights(rule, u, ell)
                for w, weight in oracle.items():
                    assert mat.rows[index[w]][j] == weight
                col_total = sum(mat.rows[i][j] for i in range(mat.size))
                assert col_total == sum(oracle.values())


class TestStructure:
    def test_ell_one_is_mean_matrix(self, fibonacci):
        assert induced_mean_matrix(fibonacci, 1).rows == \
            fibonacci.mean_matrix().rows

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_column_sum_identity(self, ell, fibonacci, period_doubling):
        for rule in (fibonacci, period_doubling):
            mat = induced_mean_matrix(rule, ell)
            for u, total in zip(mat.labels, mat.column_sums()):
                assert total == rule.expected_image_length(u[0])

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_induced_matrix_primitive(self, ell, fibonacci, period_doubling):
        for rule in (fibonacci, period_doubling):
            primitive, _ = induced_mean_matrix(rule, ell).is_primitive()
            assert primitive

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_eigenvalue_coincides(self, ell, fibonacci, period_doubling, zeta):
        for rule in (fibonacci, period_doubling, zeta):
            lam = pf_eigenpair(rule.mean_matrix()).value
            lam_ell = pf_eigenpair(induced_mean_matrix(rule, ell)).value
            assert abs(lam - lam_ell) <= 1e-9

    def test_deterministic_fibonacci(self):
        rule = make_deterministic_fibonacci()
        mat = induced_mean_matrix(rule, 2)
        # classical induced (collared) substitution: single realisation per word
        table = rule.language()
        for j, u in enumerate(mat.labels):
            oracle = plain_column_weights(rule, u, 2)
            for w, weight in oracle.items():
                assert mat.rows[table.index(2)[w]][j] == weight

    def test_non_expanding_rejected(self):
        with pytest.raises(ValueError, match="expanding"):
            induced_mean_matrix(make_non_expanding(), 2)
