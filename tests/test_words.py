from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stochsub import (
    Alphabet,
    FrequencyMeasure,
    RuleValidationError,
    SubstitutionRule,
    abelianise,
    count_occurrences,
)


class TestAlphabet:
    def test_encode_decode_roundtrip(self):
        ab = Alphabet(["a", "b"])
        assert ab.encode("abba") == (0, 1, 1, 0)
        assert ab.decode((0, 1, 1, 0)) == "abba"

    def test_multichar_symbols(self):
        al = Alphabet(["x1", "x2"])
        assert al.encode(["x1", "x2", "x1"]) == (0, 1, 0)
        assert al.decode((0, 1)) == "x1 x2"
        with pytest.raises(ValueError):
            al.encode("x1x2")

    def test_multichar_string_words(self):
        # symbols joined by single spaces, as `decode` writes them
        al = Alphabet(["x1", "x2", "yz"])
        assert al.encode("x2 x1 x2") == (1, 0, 1)
        assert al.encode("x1") == (0,)
        assert al.encode("yz x1") == (2, 0)
        for bad in ("x1 x3", "x1  x2", " x1"):
            with pytest.raises(ValueError, match="not a space-separated word of symbols"):
                al.encode(bad)

    def test_multichar_legal_words_roundtrip(self):
        rule = SubstitutionRule.from_data({
            "alphabet": ["x1", "x2", "x3"],
            "rules": {
                "x1": [{"word": ["x1", "x2"], "prob": "1/2"},
                       {"word": ["x3", "x1"], "prob": "1/2"}],
                "x2": [{"word": ["x1", "x1"], "prob": "1"}],
                "x3": [{"word": ["x2", "x3", "x1"], "prob": "1"}],
            },
        })
        al = rule.alphabet
        for ell in range(1, 7):
            for w in rule.language().words_of_length(ell):
                assert al.encode(al.decode(w)) == w

    @pytest.mark.parametrize("symbols", [["a", "b"], ["x1", "x2"]])
    def test_empty_word_on_every_alphabet(self, symbols):
        al = Alphabet(symbols)
        assert al.encode("") == ()
        assert al.decode(()) == ""
        assert al.encode(al.decode(())) == ()

    def test_empty_word_is_legal_on_multichar_alphabets(self):
        rule = SubstitutionRule.from_data({
            "alphabet": ["x1", "x2"],
            "rules": {"x1": [{"word": ["x1", "x2"], "prob": "1"}],
                      "x2": [{"word": ["x1"], "prob": "1"}]},
        })
        assert rule.language().is_legal("")
        assert FrequencyMeasure(rule).cylinder_measure("") == 1.0

    def test_from_data_reports_an_empty_image_string(self):
        with pytest.raises(RuleValidationError) as info:
            SubstitutionRule.from_data({
                "alphabet": ["x1", "x2"],
                "rules": {"x1": [{"word": "", "prob": "1"}],
                          "x2": [{"word": ["x1"], "prob": "1"}]},
            })
        assert "image of 'x1' is empty" in info.value.problems

    def test_repr_and_hash_agree_with_eq(self):
        ab, same = Alphabet(["a", "b"]), Alphabet(["a", "b"])
        swapped = Alphabet(["b", "a"])
        assert repr(ab) == "Alphabet(['a', 'b'])"
        assert ab == same and hash(ab) == hash(same)
        assert ab != swapped and ab != ["a", "b"]
        assert len({ab, same, swapped}) == 2

    def test_rejects_bad_alphabets(self):
        with pytest.raises(ValueError):
            Alphabet([])
        with pytest.raises(ValueError):
            Alphabet(["a", "a"])
        with pytest.raises(ValueError):
            Alphabet(["a", ""])

    @pytest.mark.parametrize("symbols", [["x", "x y", "y"], ["ab", " "], ["ab", "c "]])
    def test_rejects_a_space_in_multichar_symbols(self, symbols):
        # decode would join ["x", "y"] and ["x y"] alike, as "x y"
        with pytest.raises(ValueError, match="must not contain a space"):
            Alphabet(symbols)

    def test_space_is_a_symbol_of_single_char_alphabets(self):
        al = Alphabet(["a", " "])
        assert al.encode("a a ") == (0, 1, 0, 1)
        assert al.decode((1, 0, 1)) == " a "

    def test_from_data_lists_a_space_in_a_symbol(self):
        with pytest.raises(RuleValidationError) as info:
            SubstitutionRule.from_data({
                "alphabet": ["x", "x y", "y"],
                "rules": {"x": [{"word": ["x"], "prob": "1"}]},
            })
        assert info.value.problems == [
            "bad alphabet: multi-character symbols must not contain a space"]

    def test_unknown_letters(self):
        ab = Alphabet(["a", "b"])
        with pytest.raises(KeyError):
            ab.code("c")
        with pytest.raises(KeyError):
            ab.encode([5])

    @pytest.mark.parametrize("codes", [(-1, 0), (0, 2), (1, 300), b"\x00\x07"])
    def test_decode_rejects_codes_out_of_range(self, codes):
        ab = Alphabet(["a", "b"])
        bad = next(c for c in codes if not 0 <= c < 2)
        with pytest.raises(KeyError, match=f"letter code {bad} out of range"):
            ab.decode(codes)

    def test_decode_accepts_any_code_sequence(self):
        ab = Alphabet(["a", "b"])
        for codes in ((0, 1, 1), [0, 1, 1], b"\x00\x01\x01",
                      np.array([0, 1, 1]), np.array([0, 1, 1], dtype=np.uint8)):
            assert ab.decode(codes) == "abb"
        assert ab.decode(()) == ""
        assert Alphabet(["x1", "x2"]).decode(b"\x01") == "x2"

    @given(st.lists(st.integers(0, 3), max_size=30),
           st.sampled_from([(["a", "b", "c", "d"], ""), (["a", "bc", "d", "e"], " ")]))
    def test_decode_matches_join(self, codes, case):
        symbols, sep = case
        al = Alphabet(symbols)
        assert al.decode(codes) == sep.join(al.symbol(c) for c in codes)

    @pytest.mark.parametrize("code", [1.5, np.float64(1.0), Fraction(1)])
    def test_encode_rejects_non_integer_codes(self, code):
        # a float or Fraction is not truncated to a code, even when whole
        with pytest.raises(KeyError, match=f"letter code {code} out of range"):
            Alphabet(["a", "b"]).encode([0, code])

    def test_encode_takes_integer_codes(self):
        codes = Alphabet(["a", "b"]).encode([np.int64(1), True, np.uint8(0), 0])
        assert codes == (1, 1, 0, 0)
        assert all(type(c) is int for c in codes)

    def test_at_most_255_symbols(self):
        symbols = [chr(0x100 + i) for i in range(256)]
        assert Alphabet(symbols[:255]).decode((254, 0)) == symbols[254] + symbols[0]
        with pytest.raises(ValueError, match="more than 255 symbols"):
            Alphabet(symbols)


class TestCountOccurrences:
    def test_overlapping(self):
        assert count_occurrences("aaaa", "aa") == 3
        assert count_occurrences("abab", "ab") == 2
        assert count_occurrences("ab", "ba") == 0

    def test_overlapping_bytes(self):
        # bordered patterns: occurrences overlap, so bytes.count would miss some
        assert count_occurrences(b"aaaa", b"aa") == 3
        assert count_occurrences(b"ababa", b"aba") == 2
        assert count_occurrences(b"abab", b"ab") == 2  # no border

    def test_mixed_types_compare_windows(self):
        assert count_occurrences(b"\x00\x01\x00\x01", (0, 1)) == 2
        assert count_occurrences(b"\x00\x00\x00", (0, 0)) == 2
        assert count_occurrences(b"ab", "ab") == 0  # ints never equal strs
        assert count_occurrences(b"\x00\x01", (0, 257)) == 0
        assert count_occurrences((0, 1, 0), b"\x00") == 2

    def test_longer_pattern_gives_zero(self):
        assert count_occurrences("ab", "abc") == 0
        assert count_occurrences(b"ab", b"abc") == 0

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            count_occurrences("ab", "")

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=30),
           st.lists(st.integers(0, 1), min_size=1, max_size=4))
    def test_matches_naive_scan(self, u, v):
        naive = sum(1 for i in range(len(u)) if u[i:i + len(v)] == v)
        assert count_occurrences(u, v) == naive
        assert count_occurrences(bytes(u), bytes(v)) == naive
        assert count_occurrences(bytes(u), tuple(v)) == naive
        ab = "".join("ab"[c] for c in u), "".join("ab"[c] for c in v)
        assert count_occurrences(*ab) == naive
        assert count_occurrences(*(x.encode() for x in ab)) == naive


class TestAbelianise:
    def test_example(self):
        assert abelianise((0, 1, 1, 0, 0), 2) == (3, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            abelianise((), 2)

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=40))
    def test_components_sum_to_length(self, u):
        assert sum(abelianise(u, 3)) == len(u)

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=25))
    def test_counts_match_single_letter_occurrences(self, u):
        counts = abelianise(u, 3)
        for c in range(3):
            if counts[c]:
                assert count_occurrences(u, (c,)) == counts[c]
