import hashlib
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

from stochsub import (
    FrequencyMeasure,
    GuardExceeded,
    LanguageTable,
    SubstitutionRule,
    empirical_frequency,
    induced_mean_matrix,
    legal_words,
    metric_entropy_partial,
    topological_entropy_partial,
)

from conftest import (
    AB,
    CONFIG_DIR,
    make_large_power,
    make_no_inflating_power,
    make_non_expanding,
    make_period_doubling,
    small_rules,
)


def brute_force_language(rule, ell):
    """Oracle: grow the set of short legal words to a fixed point.

    Keeps every subword of length <= ell + 2 of every realisation of the
    inflation of every word collected so far; the set is finite and only
    grows, so the iteration stabilises.  Deliberately wasteful (full
    realisation enumeration, longer windows than needed) to stay independent
    of the library's automaton.
    """
    supports = rule.supports()
    cap = ell + 2

    def inflations(word):
        reals = [()]
        for c in word:
            reals = [r + img for r in reals for img in supports[c]]
        return reals

    words = {(c,) for c in range(rule.alphabet.size)}
    while True:
        new = set(words)
        for w in words:
            for r in inflations(w):
                for k in range(1, cap + 1):
                    for i in range(len(r) - k + 1):
                        new.add(r[i:i + k])
        if new == words:
            break
        words = new
    return tuple(sorted(w for w in words if len(w) == ell))


def _inflation_pieces(supports, word, ell):
    """All length-ell subwords of all realisations of the one-step inflation
    of `word`, together with any full realisations shorter than ell.

    Runs a window automaton over the letters of `word`: a state is the last
    ell-1 letters emitted so far, so realisations sharing a suffix are
    processed once.  For short realisations the state is the whole prefix.
    """
    out = set()
    tail = ell - 1
    # state: (last min(tail, emitted) letters, min(emitted, ell))
    frontier = {((), 0)}
    for letter in word:
        nxt = set()
        for buf, emitted in frontier:
            for img in supports[letter]:
                b, e = buf, emitted
                for c in img:
                    if len(b) == tail:
                        out.add(b + (c,))
                    b = (b + (c,))[-tail:] if tail else ()
                    e = min(e + 1, ell)
                nxt.add((b, e))
        frontier = nxt
    # realisations that never reached length ell survive whole in the buffer
    for buf, emitted in frontier:
        if emitted < ell:
            out.add(buf)
    return out


def fixed_point_language(rule, ell):
    """Oracle: the set fixed point of the multi-valued substitution.

    Iterates on set states until a state repeats (the state space is
    finite), then unions every state seen: plain stabilisation could miss
    late-appearing words under non-monotone iteration.  No power of the rule
    and no shorter length is used.
    """
    supports = rule.supports()
    state = frozenset((c,) for c in range(rule.alphabet.size))
    seen = {state}
    union = set(state)
    while True:
        pieces = set()
        for w in state:
            pieces |= _inflation_pieces(supports, w, ell)
        state = frozenset(pieces)
        union |= pieces
        if state in seen:
            break
        seen.add(state)
    return tuple(sorted(w for w in union if len(w) == ell))


class TestLegalWords:
    def test_single_letters(self, fibonacci):
        assert legal_words(fibonacci, 1) == ((0,), (1,))

    def test_period_doubling_pairs(self, period_doubling):
        words = legal_words(period_doubling, 2)
        assert [period_doubling.alphabet.decode(w) for w in words] == \
            ["aa", "ab", "ba", "bb"]

    def test_fibonacci_pairs_include_bb(self, fibonacci):
        # bb arises inside the realisation abba of the image of aa
        words = [fibonacci.alphabet.decode(w) for w in legal_words(fibonacci, 2)]
        assert words == ["aa", "ab", "ba", "bb"]

    def test_zeta_counts(self, zeta):
        # card of the even-length language is 2^n + 2^(n+1) - 2
        for n in (1, 2, 3):
            assert len(legal_words(zeta, 2 * n)) == 2**n + 2**(n + 1) - 2

    def test_sturmian_complexity(self, det_fibonacci):
        for ell in range(1, 9):
            assert len(legal_words(det_fibonacci, ell)) == ell + 1

    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_matches_brute_force(self, ell, fibonacci, period_doubling, zeta):
        for rule in (fibonacci, period_doubling, zeta):
            assert legal_words(rule, ell) == brute_force_language(rule, ell)

    def test_non_expanding_brute_force(self, non_expanding):
        assert legal_words(non_expanding, 1) == ((0,), (1,))
        rule = make_non_expanding()
        # the only realisations are single letters; no longer word is legal
        assert legal_words(rule, 2) == ()

    def test_closure_under_restriction(self, period_doubling, dyck):
        for rule in (period_doubling, dyck):
            table = LanguageTable(rule)
            for ell in (2, 3, 4):
                shorter = set(table.words_of_length(ell - 1))
                for w in table.words_of_length(ell):
                    assert w[:-1] in shorter and w[1:] in shorter

    def test_substitution_invariance(self, period_doubling):
        ell = 3
        legal = set(legal_words(period_doubling, ell))
        supports = period_doubling.supports()
        for u in legal:
            reals = [()]
            for c in u:
                reals = [r + img for r in reals for img in supports[c]]
            for r in reals:
                for i in range(len(r) - ell + 1):
                    assert r[i:i + ell] in legal


# a -> aa, b -> bb: expanding, but neither letter reaches the other
NOT_PRIMITIVE = SubstitutionRule(AB, [[(AB.encode("aa"), Fraction(1))],
                                      [(AB.encode("bb"), Fraction(1))]])


@pytest.mark.parametrize("call", [
    lambda rule: legal_words(rule, 2),
    LanguageTable,
    lambda rule: rule.language(),
    lambda rule: induced_mean_matrix(rule, 1),
    lambda rule: induced_mean_matrix(rule, 2),
    FrequencyMeasure,
    lambda rule: topological_entropy_partial(rule, 2),
    lambda rule: empirical_frequency(rule, "a", "a", 2, 2),
], ids=["legal_words", "LanguageTable", "language", "induced-1", "induced-2",
        "FrequencyMeasure", "topological", "empirical_frequency"])
def test_one_primitivity_gate(call):
    with pytest.raises(ValueError, match="^languages and frequency measures "
                                         "need a primitive rule$"):
        call(NOT_PRIMITIVE)


@pytest.mark.parametrize("call", [
    lambda rule: legal_words(rule, 0),
    lambda rule: rule.language().words_of_length(0),
    lambda rule: induced_mean_matrix(rule, 0),
    lambda rule: FrequencyMeasure(rule).frequency_vector(0),
    lambda rule: metric_entropy_partial(FrequencyMeasure(rule), 0),
    lambda rule: topological_entropy_partial(rule, 0),
], ids=["legal_words", "words_of_length", "induced", "frequency_vector",
        "metric", "topological"])
def test_one_length_gate(call):
    with pytest.raises(ValueError, match="^word length must be >= 1$"):
        call(make_period_doubling())


class TestAgainstFixedPoint:
    @pytest.mark.parametrize("name,max_ell", [
        ("fibonacci", 6), ("period_doubling", 6), ("zeta", 6),
        ("deterministic_fibonacci", 6), ("non_expanding", 6), ("dyck", 5),
    ])
    def test_bundled_configs(self, name, max_ell):
        rule = SubstitutionRule.from_file(CONFIG_DIR / f"{name}.json")
        table = LanguageTable(rule)
        for ell in range(1, max_ell + 1):
            assert table.words_of_length(ell) == fixed_point_language(rule, ell)

    @pytest.mark.parametrize("make", [make_no_inflating_power, make_large_power])
    def test_rules_without_usable_power(self, make):
        rule = make()
        assert LanguageTable(rule).power is None
        for ell in range(1, 5):
            assert legal_words(rule, ell) == fixed_point_language(rule, ell)

    def test_third_power(self):
        # a -> b -> c -> ab: the shortest image has two letters from theta^3 on
        from fractions import Fraction
        from stochsub import Alphabet
        abc = Alphabet(["a", "b", "c"])
        rule = SubstitutionRule(abc, [[(abc.encode(w), Fraction(1))]
                                      for w in ("b", "c", "ab")])
        table = LanguageTable(rule)
        assert table.power[0] == 3
        for ell in range(1, 9):
            assert table.words_of_length(ell) == fixed_point_language(rule, ell)

    @settings(max_examples=40, deadline=None)
    @given(small_rules())
    def test_small_primitive_rules(self, rule):
        assume(rule.is_primitive()[0])
        table = LanguageTable(rule)
        for ell in range(1, 5):
            assert table.words_of_length(ell) == fixed_point_language(rule, ell)


# (ell, sha256 of repr(words_of_length(ell))) per bundled config, recorded
# with the whole-word automaton of `_inflation_pieces`; the fixed-point
# oracle only reaches short lengths, so these pin the deep words
LANGUAGE_DIGESTS = {
    "deterministic_fibonacci":
        (20, "65c502e43a16b347d0f4a964cf732ba04f85f29dae8034209418cc224ae5e28a"),
    "dyck": (6, "9d49b672d0fb6ed29a8300c2a3ee05a09d7d85bd2019103369a25e391b2b2020"),
    "fibonacci":
        (14, "fe62daeb9b70147e865876ba29ee92778c590b3d7531c7efe0b5f7eb3cbea46a"),
    "non_expanding":
        (6, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    "period_doubling":
        (16, "e93406e1dd7ebfb11248bc52f99f6b88872da1456da5701b6812d8831f908b94"),
    "zeta": (16, "cc313a6b34e9cecba55fbf7cc7dcab939b1089b04a67d1c2efc974a5479b3482"),
}


@pytest.mark.parametrize("name", LANGUAGE_DIGESTS)
def test_language_pinned_at_depth(name):
    ell, digest = LANGUAGE_DIGESTS[name]
    rule = SubstitutionRule.from_file(CONFIG_DIR / f"{name}.json")
    words = LanguageTable(rule).words_of_length(ell)
    assert hashlib.sha256(repr(words).encode()).hexdigest() == digest


# kernel states one length spends once the shorter lengths are cached: dyck
# by the closure, fibonacci by recursion through theta^2
@pytest.mark.parametrize("name,ell,states", [
    ("dyck", 5, 10622), ("fibonacci", 12, 9139),
])
def test_guard_counts_kernel_states(monkeypatch, name, ell, states):
    rule = SubstitutionRule.from_file(CONFIG_DIR / f"{name}.json")
    tables = [LanguageTable(rule), LanguageTable(rule)]
    for table in tables:
        for j in range(1, ell):
            table.words_of_length(j)
    monkeypatch.setenv("STOCHSUB_GUARD_LIMIT", str(states))
    assert tables[0].words_of_length(ell)
    monkeypatch.setenv("STOCHSUB_GUARD_LIMIT", str(states - 1))
    with pytest.raises(GuardExceeded, match=f"exceeds guard {states - 1} kernel"):
        tables[1].words_of_length(ell)


class TestLanguageTable:
    def test_position_agrees_with_order(self, zeta):
        table = LanguageTable(zeta)
        words = table.words_of_length(3)
        assert all(table.position(w) == i for i, w in enumerate(words))
        assert table.position("aaa") is None

    def test_table_keeps_its_own_lengths(self):
        # the shorter lengths the recursion needs land in the table that
        # enumerates, not in the rule's shared table
        rule = SubstitutionRule.from_file(CONFIG_DIR / "zeta.json")
        table = LanguageTable(rule)
        table.words_of_length(8)
        assert table.prefix_length(8) in table._table
        assert rule.language()._table == {}

    def test_is_legal(self, period_doubling):
        table = LanguageTable(period_doubling)
        assert table.is_legal("bb")
        assert not table.is_legal("bbb")
        assert table.is_legal("")
