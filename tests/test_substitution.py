import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochsub import (
    Alphabet,
    GuardExceeded,
    RuleValidationError,
    SubstitutionRule,
    abelianise,
)

from conftest import (
    CONFIG_DIR,
    make_fibonacci,
    make_non_expanding,
    make_period_doubling,
    small_rules,
)

F = Fraction


def fraction_iterate_law(rule, u, n):
    """Oracle: the law of theta^n(u) one step at a time, convolving the
    letter images of every word of the previous law in Fraction arithmetic."""
    dist = {rule.encode(u): F(1)}
    for _ in range(n):
        nxt = {}
        for word, prob in dist.items():
            partial = {(): prob}
            for letter in word:
                grown = {}
                for prefix, wp in partial.items():
                    for img, ip in rule.images[letter]:
                        key = prefix + img
                        grown[key] = grown.get(key, F(0)) + wp * ip
                partial = grown
            for word2, p2 in partial.items():
                nxt[word2] = nxt.get(word2, F(0)) + p2
        dist = nxt
    return dist


def fraction_kernel(rule, u, v):
    """Oracle: the kernel's dynamic programme over prefixes of v in Fraction
    arithmetic."""
    u, v = rule.encode(u), rule.encode(v)
    prev = [F(1)] + [F(0)] * len(v)
    for letter in u:
        cur = [F(0)] * (len(v) + 1)
        for img, p in rule.images[letter]:
            li = len(img)
            for j in range(li, len(v) + 1):
                if prev[j - li] and v[j - li : j] == img:
                    cur[j] += prev[j - li] * p
        prev = cur
    return prev[len(v)]


def law_total(dist):
    """Oracle: the total probability of an iterate law."""
    return sum(dist.entries.values(), F(0))


def expected_abelianisation(dist, size):
    """Oracle: the expected letter counts of an iterate law."""
    acc = [F(0)] * size
    for w, p in dist.entries.items():
        for i, c in enumerate(abelianise(w, size)):
            acc[i] += p * c
    return tuple(acc)


def symbolic_kernel_rule(p1, q1):
    """a -> b | ba, b -> b | ab, with rational weights."""
    ab = Alphabet(["a", "b"])
    return SubstitutionRule(ab, [
        [(ab.encode("b"), F(p1)), (ab.encode("ba"), 1 - F(p1))],
        [(ab.encode("b"), F(q1)), (ab.encode("ab"), 1 - F(q1))],
    ])


class TestValidation:
    def test_valid_config_roundtrip(self):
        rule = SubstitutionRule.from_data({
            "alphabet": ["a", "b"],
            "rules": {"a": [{"word": "ab", "prob": "1/2"},
                            {"word": "ba", "prob": "1/2"}],
                      "b": [{"word": "a", "prob": "1"}]},
        })
        assert rule.alphabet.symbols == ("a", "b")
        assert rule.max_image_length() == 2

    def test_sum_mismatch(self):
        with pytest.raises(RuleValidationError, match="sum to"):
            SubstitutionRule.from_data({
                "alphabet": ["a"], "rules": {"a": [{"word": "aa", "prob": "1/3"}]},
            })

    def test_all_problems_reported(self):
        with pytest.raises(RuleValidationError) as exc:
            SubstitutionRule.from_data({
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

    def test_malformed_probabilities_collected(self):
        # "1/0" divides by zero inside Fraction, and JSON true and false are
        # bools, which Python counts as ints; none of them is a probability
        with pytest.raises(RuleValidationError) as exc:
            SubstitutionRule.from_data({
                "alphabet": ["a", "b"],
                "rules": {"a": [{"word": "ab", "prob": "1/0"},
                                {"word": "ba", "prob": True}],
                          "b": [{"word": "a", "prob": False},
                                {"word": "b", "prob": "half"}]},
            })
        assert exc.value.problems == [
            f"image probability of {letter!r}: probability must be a rational"
            f" string or integer, got {prob!r}"
            for letter, prob in [("a", "1/0"), ("a", True), ("b", False),
                                 ("b", "half")]
        ]

    def test_missing_images_listed_beside_other_problems(self):
        # 'b' occurs in the text of the probability problem of 'a'; the
        # missing images of 'b' must still be reported
        with pytest.raises(RuleValidationError) as exc:
            SubstitutionRule.from_data({
                "alphabet": ["a", "b"],
                "rules": {"a": [{"word": "b", "prob": "2"}], "b": []},
            })
        assert exc.value.problems == [
            "image probability of 'a' must lie in (0,1], got 2",
            "letter 'b' has no image words",
        ]

    def test_duplicate_image_word(self):
        with pytest.raises(RuleValidationError, match="duplicate"):
            SubstitutionRule.from_data({
                "alphabet": ["a"],
                "rules": {"a": [{"word": "aa", "prob": "1/2"},
                                {"word": "aa", "prob": "1/2"}]},
            })

    def test_image_over_unknown_letter(self):
        with pytest.raises(RuleValidationError, match="image of 'a'"):
            SubstitutionRule.from_data({
                "alphabet": ["a"], "rules": {"a": [{"word": "ax", "prob": "1"}]},
            })


@pytest.mark.parametrize("call,message", [
    (lambda rule: rule.iterate_distribution("a", -1),
     "iteration count must be nonnegative"),
    (lambda rule: rule.kernel("", "a"), "source word must be nonempty"),
    (lambda rule: SubstitutionRule(rule.alphabet, rule.images[:1]),
     "one image distribution per letter is required"),
], ids=["iterate-negative-n", "kernel-empty-source", "constructor-image-count"])
def test_argument_errors(fibonacci, call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(fibonacci)


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

    def test_word_types_agree(self):
        rule = symbolic_kernel_rule(F(1, 3), F(1, 4))
        for u, v in (("ab", "bab"), ("a", "ba"), ("ba", "abba"), ("ba", "bbab")):
            expected = rule.kernel(u, v)
            cu, cv = rule.encode(u), rule.encode(v)
            for uu in (u, cu, list(cu), bytes(cu)):
                for vv in (v, cv, list(cv), bytes(cv)):
                    assert rule.kernel(uu, vv) == expected
        assert rule.kernel(b"\x01\x00", b"\x00\x01\x01\x00") > 0

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
            assert law_total(rule.iterate_distribution("a", n)) == 1

    def test_expected_abelianisation_matches_matrix_power(self):
        rule = make_period_doubling(F(2, 7))
        mat = rule.mean_matrix()
        m = rule.alphabet.size
        vec = [F(1), F(0)]  # e_a
        for n in range(1, 5):
            vec = [sum(mat.rows[i][j] * vec[j] for j in range(m)) for i in range(m)]
            got = expected_abelianisation(rule.iterate_distribution("a", n), m)
            assert list(got) == vec

    def test_zero_iterations(self):
        rule = make_fibonacci()
        dist = rule.iterate_distribution("ab", 0)
        assert dict(dist.entries) == {rule.encode("ab"): F(1)}

    def test_guard_raises_exactly_past_the_support(self, fibonacci):
        law = fibonacci.iterate_distribution("a", 6, max_support=10080)
        assert len(law.entries) == 10080
        with pytest.raises(GuardExceeded, match="limit 10079"):
            fibonacci.iterate_distribution("a", 6, max_support=10079)

    def test_guard_ignores_a_larger_intermediate_law(self):
        # a -> b|c, b -> a, c -> a: the law at depth 1 has two words, the law
        # at depth 2 one
        abc = Alphabet(["a", "b", "c"])
        half = F(1, 2)
        rule = SubstitutionRule(abc, [
            [(abc.encode("b"), half), (abc.encode("c"), half)],
            [(abc.encode("a"), F(1))],
            [(abc.encode("a"), F(1))],
        ])
        assert len(rule.iterate_distribution("a", 1).entries) == 2
        law = rule.iterate_distribution("a", 2, max_support=1)
        assert dict(law.entries) == {(0,): F(1)}


# (n, sha256 of repr(sorted(law.entries.items()))) for theta^n of the first
# letter of each bundled config, recorded with the one-step Fraction
# convolution of `fraction_iterate_law`
LAW_DIGESTS = {
    "fibonacci":
        (6, "ecbaa28270f79f9e6b8627fbf9a12aad4075554612c963b37e9c9be5451d2e82"),
    "period_doubling":
        (4, "7ffe89b3858d004333ebd3d0f8987db9c313a4ba8dc9098ad4089bb97988b095"),
    "zeta": (3, "d827219d4c410aac825dc673aa120baa066095874b9163810259912dde965d51"),
    "dyck": (3, "d0818dd9c500b1692ffcafefe6731aeea6c9f83ea1941fb7ff23a8f6f7bd5a44"),
    "deterministic_fibonacci":
        (8, "4f698181dcf7b221183216af2bbae82062d9f8e120feccf79e6874d4e4b31498"),
    "non_expanding":
        (3, "70a482935b2d6be4b411f1e6cc0a8f3ff5afc797efa264ce0e036c8677f31c57"),
}


@pytest.mark.parametrize("name", LAW_DIGESTS)
def test_iterate_law_pinned(name):
    n, digest = LAW_DIGESTS[name]
    rule = SubstitutionRule.from_file(CONFIG_DIR / f"{name}.json")
    law = rule.iterate_distribution(rule.alphabet.symbols[0], n)
    assert all(type(p) is F for p in law.entries.values())
    assert hashlib.sha256(repr(sorted(law.entries.items())).encode()).hexdigest() \
        == digest


class TestAgainstFractionOracles:
    @given(small_rules(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_iterate_law(self, rule, data):
        size = rule.alphabet.size
        u = tuple(data.draw(st.lists(st.integers(0, size - 1), min_size=1,
                                     max_size=2)))
        n = data.draw(st.integers(0, 2))
        oracle = fraction_iterate_law(rule, u, n)
        law = rule.iterate_distribution(u, n, max_support=len(oracle))
        assert law.entries == oracle
        assert all(type(p) is F for p in law.entries.values())
        if n > 0:
            with pytest.raises(GuardExceeded):
                rule.iterate_distribution(u, n, max_support=len(oracle) - 1)

    @given(small_rules(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_kernel(self, rule, data):
        size = rule.alphabet.size
        letters = st.lists(st.integers(0, size - 1), min_size=1, max_size=4)
        u = tuple(data.draw(letters))
        # a realisation of the images of u, and an arbitrary word
        v = sum((data.draw(st.sampled_from(rule.supports()[c])) for c in u), ())
        for target in (v, tuple(data.draw(letters))):
            value = rule.kernel(u, target)
            assert type(value) is F
            assert value == fraction_kernel(rule, u, target)
            assert rule.kernel(bytes(u), bytes(target)) == value
        assert rule.kernel(u, v) > 0


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
