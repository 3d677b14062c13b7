import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings

from stochsub import (
    FrequencyMeasure,
    GuardExceeded,
    IllegalWordWarning,
    SubstitutionRule,
    induced_mean_matrix,
    legal_words,
    pf_eigenpair,
    topological_entropy_partial,
    unique_ergodicity_probe,
)
from stochsub import language
from stochsub.guards import Budget

from conftest import (
    CONFIG_DIR,
    make_deterministic_fibonacci,
    make_fibonacci,
    make_large_power,
    make_no_inflating_power,
    make_period_doubling,
    make_zeta,
    small_rules,
)

F = Fraction


def pd_pair_frequencies(p):
    """Closed-form limiting pair frequencies (aa, ab, ba, bb) of the random
    period doubling rule."""
    p = float(p)
    d = 3 * (p * p - p + 2)
    return np.array([2, 2 * (1 - p + p * p), 2 * (1 - p + p * p), p - p * p]) / d


class TestFrequencyVector:
    @pytest.mark.parametrize("p", [F(1, 4), F(1, 2), F(3, 4)])
    def test_period_doubling_closed_form(self, p):
        fm = FrequencyMeasure(make_period_doubling(p))
        words, vec = fm.frequency_vector(2)
        assert [fm.rule.alphabet.decode(w) for w in words] == \
            ["aa", "ab", "ba", "bb"]
        assert np.abs(vec - pd_pair_frequencies(p)).max() <= 1e-10

    def test_letter_frequencies(self):
        fm = FrequencyMeasure(make_fibonacci())
        _, vec = fm.frequency_vector(1)
        phi = (1 + math.sqrt(5)) / 2
        assert abs(vec[0] - 1 / phi) <= 1e-9

    @pytest.mark.parametrize("ell", range(1, 7))
    def test_normalization(self, ell, fibonacci, period_doubling, zeta):
        for rule in (fibonacci, period_doubling, zeta):
            _, vec = FrequencyMeasure(rule).frequency_vector(ell)
            assert abs(sum(vec) - 1.0) <= 1e-9


    def test_period_doubling_depth_sixteen(self, period_doubling):
        fm = FrequencyMeasure(period_doubling)
        words, vec = fm.frequency_vector(16)
        assert len(words) == 9816
        assert abs(sum(vec) - 1.0) <= 1e-9
        assert fm.consistency_residual(2, 16) <= 1e-9


def assert_matches_pf_route(rule, max_ell):
    """frequency_vector agrees with the PF eigenvector of the full induced
    matrix, word for word."""
    fm = FrequencyMeasure(rule)
    for ell in range(1, max_ell + 1):
        words, vec = fm.frequency_vector(ell)
        matrix = induced_mean_matrix(rule, ell)
        assert words == matrix.labels
        right = pf_eigenpair(matrix).right
        assert len(vec) == len(right)
        assert max(abs(a - b) for a, b in zip(vec, right)) <= 1e-12


def test_concurrent_recursion_does_not_deadlock():
    # more threads than cores, each asking for the lengths in its own order;
    # nothing is locked, so a length may be computed twice, always alike
    fm = FrequencyMeasure(make_fibonacci())
    expected = {ell: FrequencyMeasure(make_fibonacci()).frequency_vector(ell)[1]
                for ell in range(1, 9)}
    results, errors = [], []

    def work(order):
        try:
            for ell in order:
                results.append((ell, fm.frequency_vector(ell)[1]))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    orders = [range(8, 0, -1), range(1, 9), (5, 8, 3, 1, 7, 2, 6, 4),
              (8, 4, 6, 2, 7, 1, 5, 3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(o,)) for o in orders]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and len(results) == 8 * len(orders)
    for ell, vec in results:
        assert np.array_equal(vec, expected[ell])


def load(name):
    return SubstitutionRule.from_file(CONFIG_DIR / f"{name}.json")


def count_states(monkeypatch):
    """Record the states every `Budget` spends from now on."""
    spent = []
    spend = Budget.spend

    def counting(budget, states):
        spent.append(states)
        spend(budget, states)

    monkeypatch.setattr(Budget, "spend", counting)
    return spent


class TestOneTablePerRule:
    def test_fresh_length_spends_the_language_states(self, monkeypatch):
        # the words and the vector of fibonacci ell 12 come from one kernel
        # pass, which spends the language's 9 139 states once
        fm = FrequencyMeasure(load("fibonacci"))
        for ell in range(1, 12):
            fm.frequency_vector(ell)
        spent = count_states(monkeypatch)
        fm.frequency_vector(12)
        assert sum(spent) == 9139

    def test_one_language_budget_per_length(self, monkeypatch):
        fm = FrequencyMeasure(load("fibonacci"))
        for ell in range(1, 12):
            fm.frequency_vector(ell)
        monkeypatch.setenv("STOCHSUB_GUARD_LIMIT", "9138")
        with pytest.raises(GuardExceeded,
                           match="^language enumeration exceeds guard 9138 kernel states$"):
            fm.frequency_vector(12)
        monkeypatch.setenv("STOCHSUB_GUARD_LIMIT", "9139")
        assert len(fm.frequency_vector(12)[0]) == len(fm.table.words_of_length(12))

    def test_measures_on_one_rule_share_vectors(self):
        rule = load("zeta")
        first = FrequencyMeasure(rule)
        words, vec = first.frequency_vector(6)
        # the second measure asks a deep length first, then reads the first's
        second = FrequencyMeasure(rule)
        deep_words, deep_vec = second.frequency_vector(12)
        assert second.frequency_vector(6)[0] is words
        assert second.frequency_vector(6)[1] is vec
        assert first.frequency_vector(12)[1] is deep_vec
        fresh_words, fresh_vec = FrequencyMeasure(load("zeta")).frequency_vector(12)
        assert deep_words == fresh_words and np.array_equal(deep_vec, fresh_vec)

    @pytest.mark.parametrize("name,ell", [
        ("fibonacci", 12), ("period_doubling", 14), ("zeta", 12),
    ])
    def test_frequency_pass_stores_the_language(self, name, ell):
        rule = load(name)
        words, _ = FrequencyMeasure(rule).frequency_vector(ell)
        assert rule.language().words_of_length(ell) is words
        assert words == legal_words(load(name), ell)

    @staticmethod
    def kernel_lengths(monkeypatch) -> list[int]:
        """The window length of every later call of the realisation kernel."""
        lengths = []
        kernel = language._window_counts

        def spy(images, words, ell, *args, **kwargs):
            lengths.append(ell)
            return kernel(images, words, ell, *args, **kwargs)

        monkeypatch.setattr(language, "_window_counts", spy)
        return lengths

    @pytest.mark.parametrize("query", ["cylinder_measure", "frequency_vector"])
    def test_cold_query_makes_one_kernel_pass_for_its_length(self, monkeypatch, query):
        # cylinder_measure asks for the vector before the word's position:
        # the float pass stores the words, so no unit pass runs for them
        ell = 12
        word = legal_words(load("period_doubling"), ell)[5]
        lengths = self.kernel_lengths(monkeypatch)
        fm = FrequencyMeasure(load("period_doubling"))
        value = fm.cylinder_measure(word) if query == "cylinder_measure" else None
        words, vec = fm.frequency_vector(ell)
        assert lengths.count(ell) == 1
        assert value in (None, vec[words.index(word)])

    def test_words_then_vector_makes_two_passes(self, monkeypatch):
        # the other order: the unit pass stores the words, then the float pass
        # runs and keeps them without building its own word tuples again
        ell = 12
        lengths = self.kernel_lengths(monkeypatch)
        rule = load("period_doubling")
        words = rule.language().words_of_length(ell)
        assert FrequencyMeasure(rule).frequency_vector(ell)[0] is words
        assert lengths.count(ell) == 2

    @pytest.mark.parametrize("name", ["period_doubling", "fibonacci", "zeta"])
    def test_recursion_from_a_stored_base_vector(self, name):
        # R_2 stored by another route: the recursion needs no state of its solve
        _, base = FrequencyMeasure(load(name)).frequency_vector(2)
        rule = load(name)
        rule.language()._vectors[2] = base
        words, vec = FrequencyMeasure(rule).frequency_vector(5)
        expected_words, expected = FrequencyMeasure(load(name)).frequency_vector(5)
        assert words == expected_words
        assert np.array_equal(vec, expected)

    def test_handed_out_vectors_cannot_change_the_shared_ones(self):
        # the vectors are tuples of floats: scaling one in place rebinds the
        # caller's name and leaves what every measure on the rule reads
        rule = load("period_doubling")
        fm = FrequencyMeasure(rule)
        _, letters = fm.frequency_vector(1)
        _, pairs = fm.frequency_vector(2)
        letters *= 0
        pairs *= 0
        assert FrequencyMeasure(rule).cylinder_measure("bb") == pytest.approx(1 / 21)
        words, vec = fm.frequency_vector(5)
        assert len(vec) == len(words) and abs(sum(vec) - 1.0) <= 1e-12
        assert type(vec) is tuple and {type(x) for x in vec} == {float}

    def test_recursion_checks_its_total_against_lambda_power(self):
        rule = load("period_doubling")
        _, base = FrequencyMeasure(load("period_doubling")).frequency_vector(2)
        rule.language()._vectors[2] = tuple(2 * x for x in base)
        with pytest.raises(RuntimeError, match=r"before normalisation, not lambda\^1"):
            FrequencyMeasure(rule).frequency_vector(3)

    def test_language_callers_solve_no_eigenproblem(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("PF solve on a language-only path")

        monkeypatch.setattr("stochsub.measure.pf_eigenpair", refuse)
        rule = load("fibonacci")
        assert topological_entropy_partial(rule, 12) > 0
        assert len(rule.language().words_of_length(13)) > 0
        assert rule.language()._vectors == {}


@pytest.mark.parametrize("make,top", [
    (lambda: load("dyck"), 5), (lambda: load("fibonacci"), 6),
    (lambda: load("period_doubling"), 6), (make_no_inflating_power, 4),
    (make_large_power, 4),
], ids=["dyck", "fibonacci", "period_doubling", "no_inflating_power", "large_power"])
def test_frequency_vectors_solve_no_eigenproblem_past_the_alphabet(monkeypatch, make, top):
    # the one PF solve is R_1's on the mean matrix; every longer vector comes
    # from the exact pass, with the self part where there is no prefix length
    rule = make()

    def letters_only(matrix, _solve=pf_eigenpair):
        assert matrix.size <= rule.alphabet.size
        return _solve(matrix)

    monkeypatch.setattr("stochsub.measure.pf_eigenpair", letters_only)
    fm = FrequencyMeasure(rule)
    for ell in range(1, top + 1):
        words, vec = fm.frequency_vector(ell)
        assert len(vec) == len(words) and abs(sum(vec) - 1.0) <= 1e-12


class TestAgainstPFRoute:
    @pytest.mark.parametrize("name,max_ell", [
        ("fibonacci", 6), ("period_doubling", 6), ("zeta", 6),
        ("deterministic_fibonacci", 6), ("dyck", 3),
    ])
    def test_bundled_configs(self, name, max_ell):
        assert_matches_pf_route(
            SubstitutionRule.from_file(CONFIG_DIR / f"{name}.json"), max_ell)

    @pytest.mark.parametrize("make", [make_no_inflating_power, make_large_power])
    def test_rules_without_usable_power(self, make):
        rule = make()
        assert rule.language().power is None
        assert_matches_pf_route(rule, 4)

    @settings(max_examples=40, deadline=None)
    @given(small_rules())
    def test_small_primitive_rules(self, rule):
        assume(rule.is_primitive()[0] and rule.is_expanding())
        assert_matches_pf_route(rule, 4)


class TestCylinderMeasure:
    def test_bb_value(self):
        fm = FrequencyMeasure(make_period_doubling())
        assert abs(fm.cylinder_measure("bb") - 1 / 21) <= 1e-10

    def test_full_space(self, period_doubling):
        assert FrequencyMeasure(period_doubling).cylinder_measure("") == 1.0

    def test_illegal_word_measures_zero_with_warning(self, period_doubling):
        fm = FrequencyMeasure(period_doubling)
        with pytest.warns(IllegalWordWarning):
            assert fm.cylinder_measure("bbb") == 0.0

    def test_non_expanding_longer_word_measures_zero_with_warning(
            self, non_expanding):
        # every image is one letter, so no legal word has two letters
        fm = FrequencyMeasure(non_expanding)
        for word in ("aa", "ab", "bab"):
            with pytest.warns(IllegalWordWarning, match="is not legal; measure 0"):
                assert fm.cylinder_measure(word) == 0.0
        assert fm.cylinder_measure("a") == pytest.approx(0.5)

    def test_non_expanding_longer_vector_is_refused(self, non_expanding):
        fm = FrequencyMeasure(non_expanding)
        for ell in (2, 3):
            with pytest.raises(ValueError, match="^frequency vectors with ell > 1 "
                                                 "require an expanding rule$"):
                fm.frequency_vector(ell)

    def test_float_code_is_refused(self, fibonacci):
        # a float code is refused, not truncated to the letter 1
        fm = FrequencyMeasure(fibonacci)
        with pytest.raises(KeyError, match="letter code 1.5 out of range"):
            fm.cylinder_measure([0, 1.5])
        assert fm.cylinder_measure([0, np.int64(1)]) == fm.cylinder_measure("ab")

    def test_components_by_position(self, zeta):
        fm = FrequencyMeasure(zeta)
        words, vec = fm.frequency_vector(7)
        assert [fm.cylinder_measure(w) for w in words] == list(vec)

    def test_additivity_both_sides(self, fibonacci, period_doubling):
        for rule in (fibonacci, period_doubling):
            fm = FrequencyMeasure(rule)
            table = fm.table
            for v in table.words_of_length(2):
                base = fm.cylinder_measure(v)
                right = sum(fm.cylinder_measure(v + (c,))
                            for c in range(2) if table.is_legal(v + (c,)))
                left = sum(fm.cylinder_measure((c,) + v)
                           for c in range(2) if table.is_legal((c,) + v))
                assert abs(base - right) <= 1e-9
                assert abs(base - left) <= 1e-9

    def test_monotone_under_extension(self, zeta):
        fm = FrequencyMeasure(zeta)
        table = fm.table
        for v in table.words_of_length(3):
            for c in range(2):
                if table.is_legal(v + (c,)):
                    assert fm.cylinder_measure(v + (c,)) <= \
                        fm.cylinder_measure(v) + 1e-12


class TestConsistency:
    def test_equal_lengths_residual_zero(self, period_doubling):
        assert FrequencyMeasure(period_doubling).consistency_residual(3, 3) <= 1e-12

    def test_pair_to_letter_closed_form(self):
        # R_a = R_aa + R_ab = 2/3 holds exactly in the closed forms
        fm = FrequencyMeasure(make_period_doubling(F(1, 3)))
        assert fm.consistency_residual(1, 2) <= 1e-10

    @pytest.mark.parametrize("ell0,ell", [(1, 2), (1, 3), (2, 4), (3, 5), (1, 5)])
    def test_examples(self, ell0, ell, fibonacci, period_doubling, zeta):
        for rule in (fibonacci, period_doubling, zeta):
            assert FrequencyMeasure(rule).consistency_residual(ell0, ell) <= 1e-9


    @pytest.mark.parametrize("ell0,ell", [(0, 2), (3, 2)])
    def test_lengths_out_of_order(self, period_doubling, ell0, ell):
        with pytest.raises(ValueError, match=r"^need 1 <= ell0 <= ell$"):
            FrequencyMeasure(period_doubling).consistency_residual(ell0, ell)


class TestErgodicityProbe:
    def test_period_doubling_sensitive(self):
        probe = unique_ergodicity_probe(
            make_period_doubling(), 2,
            [make_period_doubling(F(1, 4)), make_period_doubling(F(3, 4))])
        assert probe.sensitive and probe.verdict == "sensitive"

    def test_zeta_sensitive(self):
        probe = unique_ergodicity_probe(
            make_zeta(), 2, [make_zeta(F(1, 4)), make_zeta(F(3, 4))])
        assert probe.sensitive

    def test_deterministic_fibonacci_insensitive(self):
        rule = make_deterministic_fibonacci()
        probe = unique_ergodicity_probe(rule, 2, [make_deterministic_fibonacci()])
        assert not probe.sensitive
        assert probe.verdict == "insensitive-up-to-ell"

    def test_support_change_rejected(self):
        with pytest.raises(ValueError, match="supports"):
            unique_ergodicity_probe(make_period_doubling(), 2, [make_zeta()])

    @pytest.mark.parametrize("ell", [0, -1])
    def test_no_window_length_rejected(self, ell):
        # no length j <= ell to compare: the language refuses ell < 1
        rule = make_period_doubling()
        with pytest.raises(ValueError, match=r"^word length must be >= 1$"):
            unique_ergodicity_probe(rule, ell, [make_period_doubling(F(1, 4))])

    def test_no_variant_rejected(self):
        with pytest.raises(ValueError, match=r"^the probe needs at least one variant$"):
            unique_ergodicity_probe(make_period_doubling(), 2, [])
