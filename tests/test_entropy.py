import math
from fractions import Fraction

import pytest

from stochsub import (
    FrequencyMeasure,
    SubstitutionRule,
    max_entropy_class_check,
    metric_entropy_partial,
    topological_entropy_partial,
)

from conftest import (
    AB,
    make_deterministic_fibonacci,
    make_fibonacci,
    make_period_doubling,
    make_zeta,
)

F = Fraction
HALF_LOG_2 = 0.5 * math.log(2)


def zeta_metric_oracle(p: float, length: int) -> float:
    """Finite-n metric entropy of the two-image constant-length rule whose
    pair frequencies are binomial in p, for even word lengths.

    For an even length L = 2n, the L-words split into interior words (whose
    frequency is p^j q^(n-j) / 2^? pattern weights) plus a boundary
    correction coupling the two extreme words; summing x log x over that
    family gives the expression below.
    """
    if length % 2 or length < 2:
        raise ValueError("oracle is defined for even lengths only")
    q = 1.0 - p

    def xlx(x):
        return x * math.log(x) if x > 0 else 0.0

    n = length // 2
    err_a = xlx(p**n + q**(n + 1)) - xlx(p**n) - xlx(q**(n + 1))
    err_b = xlx(q**n + p**(n + 1)) - xlx(q**n) - xlx(p**(n + 1))
    s = (length + 1) * (xlx(p) + xlx(q)) + err_a + err_b
    return -s / (2 * length) + math.log(2) / length


class TestZetaMetric:
    @pytest.mark.parametrize("p", [F(1, 4), F(1, 2), F(3, 4)])
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14, 16])
    def test_matches_oracle(self, p, n):
        fm = FrequencyMeasure(make_zeta(p))
        assert abs(metric_entropy_partial(fm, n)
                   - zeta_metric_oracle(float(p), n)) <= 1e-9

    def test_half_maximises_at_depth_six_and_beyond(self):
        for n in (6, 8, 10):
            values = {p: metric_entropy_partial(FrequencyMeasure(make_zeta(p)), n)
                      for p in (F(1, 4), F(1, 2), F(3, 4))}
            assert values[F(1, 2)] >= values[F(1, 4)]
            assert values[F(1, 2)] >= values[F(3, 4)]

    def test_partial_sums_decrease_toward_limit(self):
        fm = FrequencyMeasure(make_zeta())
        values = [metric_entropy_partial(fm, n) for n in (2, 4, 6, 8, 10, 12)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] > HALF_LOG_2

    def test_oracle_limit(self):
        # the closed finite-n form itself converges to (1/2) log 2
        assert abs(zeta_metric_oracle(0.5, 600) - HALF_LOG_2) <= 0.01


class TestTopological:
    def test_depth_one_is_log_alphabet(self, zeta, dyck):
        assert topological_entropy_partial(zeta, 1) == pytest.approx(math.log(2))
        assert topological_entropy_partial(dyck, 1) == pytest.approx(math.log(4))

    def test_zeta_counts(self, zeta):
        for n in (2, 4, 6):
            cards = 2**(n // 2) + 2**(n // 2 + 1) - 2
            assert topological_entropy_partial(zeta, n) == \
                pytest.approx(math.log(cards) / n)

    def test_non_expanding_rule_has_no_longer_words(self, non_expanding):
        assert topological_entropy_partial(non_expanding, 1) == math.log(2)
        for n in (2, 5):
            with pytest.raises(ValueError,
                               match="with n > 1 requires an expanding rule"):
                topological_entropy_partial(non_expanding, n)

    def test_deterministic_fibonacci_small_and_decreasing(self):
        rule = make_deterministic_fibonacci()
        values = [topological_entropy_partial(rule, n) for n in range(2, 13)]
        assert values[-1] <= 0.25
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestMetricMisc:
    def test_deterministic_fibonacci_small_and_decreasing(self):
        fm = FrequencyMeasure(make_deterministic_fibonacci())
        values = [metric_entropy_partial(fm, n) for n in range(2, 13)]
        assert values[-1] <= 0.25
        assert all(a >= b + -1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_gibbs_inequality(self, n, zeta, period_doubling, fibonacci):
        for rule in (zeta, period_doubling, fibonacci):
            fm = FrequencyMeasure(rule)
            assert metric_entropy_partial(fm, n) <= \
                topological_entropy_partial(rule, n) + 1e-9

    def test_non_expanding_rule_has_no_longer_words(self, non_expanding):
        fm = FrequencyMeasure(non_expanding)
        assert metric_entropy_partial(fm, 1) == pytest.approx(math.log(2))
        for n in (2, 5):
            with pytest.raises(ValueError, match="^frequency vectors with ell > 1 "
                                                 "require an expanding rule$"):
                metric_entropy_partial(fm, n)


class TestMaxEntropyClass:
    def test_zeta_qualifies(self):
        report = max_entropy_class_check(make_zeta(), max_n=8)
        assert report.qualifies and report.uniform
        assert report.image_length == 2 and report.image_count == 2
        assert report.predicted_entropy == pytest.approx(HALF_LOG_2)
        assert abs(report.metric_partial - report.topological_partial) <= 0.02

    def test_non_uniform_zeta_qualifies_without_prediction(self):
        report = max_entropy_class_check(make_zeta(F(1, 4)))
        assert report.qualifies and not report.uniform
        assert report.predicted_entropy is None

    def test_fibonacci_fails_on_lengths(self):
        report = max_entropy_class_check(make_fibonacci())
        assert not report.qualifies

    def test_period_doubling_fails_on_image_sets(self):
        report = max_entropy_class_check(make_period_doubling())
        assert not report.qualifies
        assert "differ" in report.reason

    @pytest.mark.parametrize("images,reason", [
        (("ab", "b"), "image words have unequal lengths"),
        (("a", "b"), "rule is not expanding"),
        (("aa", "bb"), "image words have unequal letter counts"),
        (("aa",), "rule is not primitive"),  # b is in no image
    ])
    def test_refusals(self, images, reason):
        # every letter gets the same images, so the image sets never differ
        shared = [(AB.encode(w), F(1, len(images))) for w in images]
        report = max_entropy_class_check(SubstitutionRule(AB, [shared, shared]))
        assert not report.qualifies
        assert report.reason == reason
        assert report.predicted_entropy is None
