"""The exact layer holds words as `bytes` inside; every public entry point
returns them as tuples of int letter codes."""

import pytest

from stochsub import (
    FrequencyMeasure,
    LanguageTable,
    SubstitutionRule,
    induced_mean_matrix,
    legal_words,
)

from conftest import CONFIG_DIR

# (config, deepest length checked): deep enough that the recursion route of
# the language and of the frequency vectors runs past the PF base lengths
CASES = [("fibonacci", 7), ("period_doubling", 6), ("zeta", 6),
         ("deterministic_fibonacci", 6), ("dyck", 4), ("non_expanding", 3)]


def is_word(w) -> bool:
    return type(w) is tuple and all(type(c) is int for c in w)


@pytest.mark.parametrize("name,top", CASES)
def test_entry_points_return_tuple_words(name, top):
    rule = SubstitutionRule.from_file(CONFIG_DIR / f"{name}.json")
    # the frequency vectors come first, so that on the recursion route the
    # words the rule's table stores are those of the float kernel pass
    expanding = rule.is_expanding()
    measure = FrequencyMeasure(rule)
    for ell in range(1, top + 1 if expanding else 2):
        freq_words, _ = measure.frequency_vector(ell)
        assert type(freq_words) is tuple and all(map(is_word, freq_words))
    for ell in range(1, top + 1):
        words = legal_words(rule, ell)
        assert type(words) is tuple and all(map(is_word, words))
        assert rule.language().words_of_length(ell) == words
        assert all(map(is_word, rule.language().words_of_length(ell)))
        fresh = LanguageTable(rule).words_of_length(ell)
        assert type(fresh) is tuple and all(map(is_word, fresh))
        assert fresh == words
        if expanding or ell == 1:
            labels = induced_mean_matrix(rule, ell).labels
            assert type(labels) is tuple and all(map(is_word, labels))
            assert labels == words
    for letter in rule.alphabet.symbols:
        for n in range(4):
            law = rule.iterate_distribution(letter, n)
            assert is_word(law.source)
            assert law.entries and all(map(is_word, law.entries))
    if rule.language().power is not None:
        power = rule.language().power[1]
        assert all(is_word(w) for entries in power.images for w, _ in entries)
