from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochsub import (
    Alphabet,
    RuleValidationError,
    SubstitutionRule,
    validate_rule,
)

from conftest import make_fibonacci, make_non_expanding, make_period_doubling

F = Fraction


def symbolic_kernel_rule(p1, q1):
    """a -> b | ba, b -> b | ab, with rational weights."""
    ab = Alphabet(["a", "b"])
    return SubstitutionRule(ab, [
        [(ab.encode("b"), F(p1)), (ab.encode("ba"), 1 - F(p1))],
        [(ab.encode("b"), F(q1)), (ab.encode("ab"), 1 - F(q1))],
    ])


class TestValidation:
    def test_valid_config_roundtrip(self):
        rule = validate_rule({
            "alphabet": ["a", "b"],
            "rules": {"a": [{"word": "ab", "prob": "1/2"},
                            {"word": "ba", "prob": "1/2"}],
                      "b": [{"word": "a", "prob": "1"}]},
        })
        assert rule.alphabet.symbols == ("a", "b")
        assert rule.max_image_length() == 2

    def test_sum_mismatch(self):
        with pytest.raises(RuleValidationError, match="sum to"):
            validate_rule({"alphabet": ["a"],
                           "rules": {"a": [{"word": "aa", "prob": "1/3"}]}})

    def test_all_problems_reported(self):
        with pytest.raises(RuleValidationError) as exc:
            validate_rule({
                "alphabet": ["a", "b"],
                "rules": {"a": [{"word": "", "prob": "1/2"},
                                {"word": "ab", "prob": "3/2"}],
                          "c": [{"word": "a", "prob": "1"}]},
            })
        text = "; ".join(exc.value.problems)
        assert "empty" in text
        assert "(0,1]" in text
        assert "unknown letter 'c'" in text
        assert "'b' has no image" in text

    def test_missing_images_listed_beside_other_problems(self):
        # 'b' occurs in the text of the probability problem of 'a'; the
        # missing images of 'b' must still be reported
        with pytest.raises(RuleValidationError) as exc:
            validate_rule({
                "alphabet": ["a", "b"],
                "rules": {"a": [{"word": "b", "prob": "2"}], "b": []},
            })
        assert exc.value.problems == [
            "image probability of 'a' must lie in (0,1], got 2",
            "letter 'b' has no image words",
        ]

    def test_duplicate_image_word(self):
        with pytest.raises(RuleValidationError, match="duplicate"):
            validate_rule({"alphabet": ["a"],
                           "rules": {"a": [{"word": "aa", "prob": "1/2"},
                                           {"word": "aa", "prob": "1/2"}]}})

    def test_image_over_unknown_letter(self):
        with pytest.raises(RuleValidationError, match="image of 'a'"):
            validate_rule({"alphabet": ["a"],
                           "rules": {"a": [{"word": "ax", "prob": "1"}]}})


class TestKernel:
    def test_two_decompositions(self):
        # a -> b|ba, b -> b|ab: [image(ab) = bab] happens via (ba)(b) or (b)(ab)
        p1, q1 = F(1, 3), F(1, 5)
        p2, q2 = 1 - p1, 1 - q1
        rule = symbolic_kernel_rule(p1, q1)
        assert rule.kernel("ab", "bab") == p2 * q1 + p1 * q2

    def test_impossible_target(self):
        rule = make_fibonacci()
        assert rule.kernel("a", "aa") == 0
        assert rule.kernel("ab", "ab") == 0  # image of ab has length 3

    def test_single_letter(self):
        rule = make_fibonacci(F(1, 3))
        assert rule.kernel("a", "ab") == F(1, 3)
        assert rule.kernel("b", "a") == 1

    def test_total_mass_one(self):
        rule = make_period_doubling(F(2, 5))
        dist = rule.iterate_distribution("ab", 1)
        assert sum(rule.kernel("ab", w) for w in dist.entries) == 1

    def test_chapman_kolmogorov(self):
        # kernel of the two-step rule equals the one-step law composed with itself
        rule = make_fibonacci(F(1, 3))
        two = rule.iterate_distribution("a", 2)
        for w, p in two.entries.items():
            via = sum(q * rule.kernel(mid, w)
                      for mid, q in rule.iterate_distribution("a", 1).entries.items())
            assert via == p


class TestIterates:
    def test_second_iterate_law(self):
        p1, p2 = F(1, 4), F(3, 4)
        rule = make_fibonacci(p1, p2)
        dist = rule.iterate_distribution("a", 2)
        law = {rule.alphabet.decode(w): p for w, p in dist.entries.items()}
        assert law == {"aab": p2 * p1, "aba": p1 * p1 + p2 * p2, "baa": p1 * p2}

    def test_total_probability(self):
        rule = make_period_doubling(F(1, 3))
        for n in range(4):
            assert rule.iterate_distribution("a", n).total() == 1

    def test_expected_abelianisation_matches_matrix_power(self):
        rule = make_period_doubling(F(2, 7))
        mat = rule.mean_matrix()
        m = rule.alphabet.size
        vec = [F(1), F(0)]  # e_a
        for n in range(1, 5):
            vec = [sum(mat.rows[i][j] * vec[j] for j in range(m)) for i in range(m)]
            got = rule.iterate_distribution("a", n).expected_abelianisation(m)
            assert list(got) == vec

    def test_zero_iterations(self):
        rule = make_fibonacci()
        dist = rule.iterate_distribution("ab", 0)
        assert dict(dist.entries) == {rule.encode("ab"): F(1)}


class TestMeanMatrix:
    def test_fibonacci(self):
        mat = make_fibonacci(F(1, 3)).mean_matrix()
        assert mat.rows == ((F(1), F(1)), (F(1), F(0)))

    def test_period_doubling(self):
        mat = make_period_doubling(F(1, 5)).mean_matrix()
        assert mat.rows == ((F(1), F(2)), (F(1), F(0)))

    def test_non_expanding_remark_matrix(self):
        p1 = F(2, 7)
        mat = make_non_expanding(p1).mean_matrix()
        assert mat.rows == ((p1, p1), (1 - p1, 1 - p1))

    def test_column_sums_are_expected_lengths(self):
        rule = make_period_doubling(F(1, 3))
        sums = rule.mean_matrix().column_sums()
        assert sums == tuple(rule.expected_image_length(c) for c in range(2))

    @given(st.fractions(min_value=F(1, 10), max_value=F(9, 10)))
    @settings(max_examples=25, deadline=None)
    def test_mean_matrix_independent_of_probability_support_split(self, p):
        # both Fibonacci images share the abelianisation (1,1)
        assert make_fibonacci(p).mean_matrix().rows == ((F(1), F(1)), (F(1), F(0)))


class TestClassification:
    def test_primitive_with_witness(self, period_doubling):
        primitive, k = period_doubling.is_primitive()
        assert primitive and k == 2

    def test_non_primitive(self):
        ab = Alphabet(["a", "b"])
        rule = SubstitutionRule(ab, [
            [(ab.encode("aa"), F(1))],
            [(ab.encode("bb"), F(1))],
        ])
        assert rule.is_primitive() == (False, None)

    def test_expanding(self, fibonacci, non_expanding):
        assert fibonacci.is_expanding()
        assert not non_expanding.is_expanding()
