from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stochsub import (
    FrequencyMeasure,
    GuardExceeded,
    RationalMatrix,
    SubstitutionRule,
    induced_mean_matrix,
    pf_eigenpair,
)
from stochsub.cli import run
from stochsub.language import _column_weights, _StateBudget

from conftest import (
    CONFIG_DIR,
    make_deterministic_fibonacci,
    make_fibonacci,
    make_non_expanding,
    make_period_doubling,
    make_zeta,
    small_rules,
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
            table = rule.language()
            for j, u in enumerate(mat.labels):
                oracle = plain_column_weights(rule, u, ell)
                for w, weight in oracle.items():
                    assert mat.rows[table.position(w)][j] == weight
                col_total = sum(mat.rows[i][j] for i in range(mat.size))
                assert col_total == sum(oracle.values())


def fraction_induced_rows(rule, ell):
    """Oracle: the induced matrix with the realisation kernel run on the
    Fraction probabilities themselves."""
    table = rule.language()
    words = table.words_of_length(ell)
    images = [[(bytes(w), p) for w, p in entries] for entries in rule.images]
    rows = [[F(0)] * len(words) for _ in words]
    for j, u in enumerate(words):
        budget = _StateBudget(10**7, "oracle column")
        for w, weight in _column_weights(images, u, ell, budget).items():
            rows[table.position(w)][j] = weight
    return tuple(tuple(r) for r in rows)


class TestAgainstFractionKernel:
    @given(small_rules(), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_equal_in_value_and_type(self, rule, ell):
        assume(rule.is_primitive()[0] and rule.is_expanding())
        mat = induced_mean_matrix(rule, ell)
        assert mat.rows == fraction_induced_rows(rule, ell)
        assert all(type(x) is F for row in mat.rows for x in row)


def per_word_columns(rule, ell):
    """Oracle: the kernel run on every legal ell-word separately, as
    (column, states spent) pairs."""
    words = rule.language().words_of_length(ell)
    index = {bytes(w): i for i, w in enumerate(words)}
    denominator, images = rule._integer_form
    out = []
    for u in words:
        budget = _StateBudget(10**7, "oracle column")
        counts = _column_weights(images, u, ell, budget, mass=denominator)
        out.append(({index[w]: x for w, x in counts.items()}, budget.used))
    return out


def assert_columns_per_word(rule, ell):
    mat = induced_mean_matrix(rule, ell)
    oracle = per_word_columns(rule, ell)
    assert len(mat.columns) == len(oracle)
    for col, (expected, _) in zip(mat.columns, oracle):
        assert list(col.items()) == list(expected.items())  # same order too
        assert all(type(x) is int for x in col.values())


class TestColumnsPerPrefix:
    """Each column is computed once per m-letter prefix of its word and
    shared; it must equal the kernel run on the word itself."""

    @pytest.mark.parametrize("name,max_ell", [
        ("fibonacci", 7), ("period_doubling", 9), ("zeta", 9), ("dyck", 4),
        ("deterministic_fibonacci", 8),
    ])
    def test_bundled_configs_bit_identical(self, name, max_ell):
        rule = SubstitutionRule.from_file(CONFIG_DIR / f"{name}.json")
        for ell in range(1, max_ell + 1):
            assert_columns_per_word(rule, ell)

    @given(small_rules(), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_random_rules_bit_identical(self, rule, ell):
        assume(rule.is_primitive()[0] and rule.is_expanding())
        assert_columns_per_word(rule, ell)

    @given(small_rules(min_length=2), st.integers(3, 5))
    @settings(max_examples=30, deadline=None)
    def test_random_inflating_rules_bit_identical(self, rule, ell):
        # every image has two letters or more, so words of length ell share
        # columns through prefixes shorter than ell
        assume(rule.is_primitive()[0])
        assert_columns_per_word(rule, ell)

    def test_period_doubling_shares_columns(self):
        mat = induced_mean_matrix(make_period_doubling(), 9)
        distinct = {id(col) for col in mat.columns}
        prefixes = {u[:5] for u in mat.labels}  # m = 1 + ceil(8 / 2)
        assert len(distinct) == len(prefixes) < mat.size

    @pytest.mark.parametrize("name,ell", [("period_doubling", 9), ("zeta", 8)])
    def test_guard_trips_at_the_widest_word_column(self, name, ell, monkeypatch):
        rule = SubstitutionRule.from_file(CONFIG_DIR / f"{name}.json")
        widest = max(used for _, used in per_word_columns(rule, ell))
        monkeypatch.setattr("stochsub.induced.INDUCED_COLUMN_LIMIT", widest)
        induced_mean_matrix(rule, ell)
        monkeypatch.setattr("stochsub.induced.INDUCED_COLUMN_LIMIT", widest - 1)
        with pytest.raises(GuardExceeded, match="induced-matrix column"):
            induced_mean_matrix(rule, ell)


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
                assert mat.rows[table.position(w)][j] == weight

    def test_non_expanding_rejected(self):
        with pytest.raises(ValueError, match="expanding"):
            induced_mean_matrix(make_non_expanding(), 2)

    def test_table_missing_a_legal_word_is_refused(self):
        # a table whose stored words miss a legal one must not yield a matrix
        # (nor a KeyError): the missing word is a window of a stored one
        rule = make_period_doubling()
        words = make_period_doubling().language().words_of_length(4)
        rule.language()._store(4, words[1:])
        with pytest.raises(RuntimeError,
                           match=r"window of the legal word .* is not legal"):
            induced_mean_matrix(rule, 4)


def dense_to_float(mat):
    """Oracle: the float matrix converted cell by cell from the dense rows,
    zeros included."""
    return np.array([[float(x) for x in row] for row in mat.rows], dtype=float)


class TestSparseColumns:
    @pytest.mark.parametrize("name,max_ell", [
        ("fibonacci", 4), ("period_doubling", 4), ("zeta", 4),
        ("deterministic_fibonacci", 4), ("dyck", 3),
    ])
    def test_to_float_equals_dense_oracle(self, name, max_ell):
        rule = SubstitutionRule.from_file(CONFIG_DIR / f"{name}.json")
        for mat in [rule.mean_matrix()] + [induced_mean_matrix(rule, ell)
                                           for ell in range(1, max_ell + 1)]:
            assert np.array_equal(mat.to_float(), dense_to_float(mat))

    @given(small_rules(), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_to_float_equals_dense_oracle_on_random_rules(self, rule, ell):
        assume(rule.is_primitive()[0] and rule.is_expanding())
        mat = induced_mean_matrix(rule, ell)
        assert np.array_equal(mat.to_float(), dense_to_float(mat))

    def test_pf_route_never_builds_rows(self, monkeypatch, capsys):
        def refuse(self):
            raise AssertionError("dense rows built on the PF route")

        monkeypatch.setattr(RationalMatrix, "rows", property(refuse))
        rule = SubstitutionRule.from_file(CONFIG_DIR / "dyck.json")
        words, vec = FrequencyMeasure(rule).frequency_vector(5)
        assert len(words) == len(vec) and abs(vec.sum() - 1.0) <= 1e-12
        assert run(["check", "--config", str(CONFIG_DIR / "dyck.json")]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_rows_view_of_columns(self):
        mat = RationalMatrix(labels=("x", "y"), columns=({1: F(1, 2)}, {}))
        assert mat.rows == ((F(0), F(0)), (F(1, 2), F(0)))
        assert mat.column_sums() == (F(1, 2), F(0))

    @pytest.mark.parametrize("columns", [
        ({0: F(1)},),
        ({0: F(1)}, {1: F(1)}, {}),
        ({0: F(1)}, {2: F(1)}),
        ({-1: F(1)}, {1: F(1)}),
    ])
    def test_rejects_wrong_shape(self, columns):
        with pytest.raises(ValueError, match="^matrix shape does not match labels$"):
            RationalMatrix(labels=("x", "y"), columns=columns)

    @pytest.mark.parametrize("denominator", [0, -1, 2.0, True])
    def test_rejects_bad_denominator(self, denominator):
        with pytest.raises(ValueError, match="^denominator must be a positive integer$"):
            RationalMatrix(labels=("x",), columns=({0: 1},),
                           denominator=denominator)

    @pytest.mark.parametrize("name,max_ell", [
        ("fibonacci", 4), ("period_doubling", 4), ("dyck", 3),
    ])
    def test_integer_numerators_over_a_power_of_d(self, name, max_ell):
        rule = SubstitutionRule.from_file(CONFIG_DIR / f"{name}.json")
        d, _ = rule._integer_form
        mats = [(rule.mean_matrix(), d)] + [(induced_mean_matrix(rule, ell), d**ell)
                                            for ell in range(1, max_ell + 1)]
        for mat, denominator in mats:
            assert mat.denominator == denominator
            assert all(type(x) is int and x > 0
                       for col in mat.columns for x in col.values())


class TestColumnGuard:
    # dyck ell 4: 160 words; its widest column spends 9 kernel states.  The
    # constant is patched, not STOCHSUB_GUARD_LIMIT, which would trip the
    # language guard first.
    def test_boundary(self, monkeypatch):
        rule = SubstitutionRule.from_file(CONFIG_DIR / "dyck.json")
        monkeypatch.setattr("stochsub.induced.INDUCED_COLUMN_LIMIT", 9)
        assert induced_mean_matrix(rule, 4).size == 160
        monkeypatch.setattr("stochsub.induced.INDUCED_COLUMN_LIMIT", 8)
        with pytest.raises(GuardExceeded, match="induced-matrix column "
                           "enumeration exceeds guard 8$"):
            induced_mean_matrix(rule, 4)
