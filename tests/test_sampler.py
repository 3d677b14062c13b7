import hashlib
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from stochsub import (
    FrequencyMeasure,
    GuardExceeded,
    SubstitutionRule,
    empirical_frequency,
    gw_direction_estimate,
    length_tail,
    sample_iterate,
    sample_iterate_law,
)

from stochsub import sampler
from stochsub._seeding import TrialSeed, generators, seed_states
from stochsub.sampler import DirectionStats, _trials
from stochsub.spectral import pf_eigenpair
from stochsub.words import abelianise

from conftest import (
    CONFIG_DIR,
    make_deterministic_fibonacci,
    make_fibonacci,
    make_non_expanding,
    make_period_doubling,
    reference_trials,
    small_rules,
)

F = Fraction


def fib_numbers(n):
    seq = [1, 1]
    while len(seq) < n:
        seq.append(seq[-1] + seq[-2])
    return seq


class TestSampleIterate:
    def test_deterministic_rule_gives_unique_word(self):
        rule = make_deterministic_fibonacci()
        for n in range(6):
            word = sample_iterate(rule, "a", n, seed=n + 17)
            exact = next(iter(rule.iterate_distribution("a", n).entries))
            assert word == exact

    def test_reproducible(self, fibonacci):
        a = sample_iterate(fibonacci, "a", 10, seed=42)
        b = sample_iterate(fibonacci, "a", 10, seed=42)
        assert a == b
        assert a != sample_iterate(fibonacci, "a", 10, seed=43)

    @pytest.mark.parametrize("seed", [0, 1, 2, 99])
    def test_fibonacci_lengths(self, seed, fibonacci):
        fibs = fib_numbers(13)
        for n in range(11):
            assert len(sample_iterate(fibonacci, "a", n, seed=seed)) == fibs[n + 1]

    def test_zero_rounds(self, fibonacci):
        assert sample_iterate(fibonacci, "b", 0) == fibonacci.encode("b")


class TestLawAgreement:
    def test_chi_square_second_iterate(self, fibonacci):
        trials = 10_000
        counts = sample_iterate_law(fibonacci, "a", 2, trials, seed=7)
        exact = fibonacci.iterate_distribution("a", 2).entries
        observed = [counts.get(w, 0) for w in exact]
        expected = [float(p) * trials for p in exact.values()]
        result = sps.chisquare(observed, expected)
        assert result.pvalue > 0.001

    @pytest.mark.parametrize("n", [1, 3])
    def test_chi_square_other_depths(self, n, fibonacci):
        trials = 10_000
        counts = sample_iterate_law(fibonacci, "a", n, trials, seed=11)
        exact = fibonacci.iterate_distribution("a", n).entries
        assert set(counts) <= set(exact)
        observed = [counts.get(w, 0) for w in exact]
        expected = [float(p) * trials for p in exact.values()]
        assert sps.chisquare(observed, expected).pvalue > 0.001


class TestEmpiricalFrequency:
    def test_fibonacci_letter_frequency(self, fibonacci):
        stats = empirical_frequency(fibonacci, "a", "a", 15, 200, seed=3)
        phi = (1 + math.sqrt(5)) / 2
        # the single-letter frequency is the deterministic Fibonacci ratio,
        # so stderr is 0 and only the finite-depth bias remains
        assert abs(stats.estimate - 1 / phi) <= max(3 * stats.stderr, 1e-6)

    def test_period_doubling_bb(self, period_doubling):
        stats = empirical_frequency(period_doubling, "a", "bb", 12, 200, seed=3)
        assert abs(stats.estimate - 1 / 21) <= max(0.005, 3 * stats.stderr)

    def test_deterministic_rule_zero_stderr(self):
        rule = make_deterministic_fibonacci()
        stats = empirical_frequency(rule, "a", "ab", 8, 20, seed=1)
        word = sample_iterate(rule, "a", 8)
        from stochsub import count_occurrences
        assert stats.stderr == 0.0
        assert stats.estimate == count_occurrences(word, rule.encode("ab")) / len(word)

    def test_illegal_word_rejected(self, period_doubling):
        with pytest.raises(ValueError, match="legal"):
            empirical_frequency(period_doubling, "a", "bbb", 5, 5)

    def test_depth_zero_rejected(self, period_doubling):
        # n = 0 meets the samplers' n >= 0, but its one-letter word has no
        # frequency to estimate
        with pytest.raises(ValueError, match="^need n >= 1$"):
            empirical_frequency(period_doubling, "a", "b", 0, 5)

    def test_deviation_shrinks_with_depth(self, period_doubling):
        target = FrequencyMeasure(period_doubling).cylinder_measure("bb")
        devs = [abs(empirical_frequency(period_doubling, "a", "bb", n, 100,
                                        seed=5).estimate - target)
                for n in (4, 8, 12)]
        final = empirical_frequency(period_doubling, "a", "bb", 12, 100, seed=5)
        assert devs[-1] <= max(0.01, 3 * final.stderr)
        assert devs[-1] <= devs[0] + 0.01


class TestAgainstMeasure:
    """The sampled frequency of a word at depth n against its cylinder
    measure, at seed 1729: z = (estimate - measure) / stderr."""

    @pytest.mark.parametrize("name,letter,word,n,trials", [
        ("fibonacci", "a", "ab", 16, 500),        # z = -0.35
        ("period_doubling", "a", "bb", 14, 500),  # z = -0.12
        ("dyck", "(", "()", 8, 200),              # z = -0.40
        ("zeta", "a", "ab", 12, 300),             # z = +0.16
    ])
    def test_z_score(self, name, letter, word, n, trials):
        rule = SubstitutionRule.from_file(CONFIG_DIR / f"{name}.json")
        stats = empirical_frequency(rule, letter, word, n, trials, seed=1729)
        measure = FrequencyMeasure(rule).cylinder_measure(word)
        assert stats.stderr > 0
        assert abs(stats.estimate - measure) <= 4 * stats.stderr

    def test_per_trial_spread_falls_with_depth(self, fibonacci):
        # stderr * sqrt(trials): 0.0139, 0.0033, 0.0013
        spreads = [empirical_frequency(fibonacci, "a", "ab", n, trials,
                                       seed=1729).stderr * math.sqrt(trials)
                   for n, trials in ((10, 2000), (16, 500), (20, 200))]
        assert spreads[0] > spreads[1] > spreads[2] > 0


class TestDirections:
    def test_fibonacci_direction_is_exact(self, fibonacci):
        est = gw_direction_estimate(fibonacci, "a", 10, 50, seed=2)
        # both images of a letter share an abelianisation, so every trial
        # produces the same letter counts; only the finite-depth bias of the
        # Fibonacci ratio separates the direction from the eigenvector
        assert len(set(est.growth_factors)) == 1
        assert est.max_direction_distance <= 1e-4

    def test_period_doubling_concentrates(self, period_doubling):
        est = gw_direction_estimate(period_doubling, "a", 12, 100, seed=2)
        assert est.max_direction_distance <= 0.02
        assert est.mean_growth_factor > 0

    def test_non_expanding_rejected(self):
        with pytest.raises(ValueError, match="expanding"):
            gw_direction_estimate(make_non_expanding(), "a", 3, 5)

    @pytest.mark.parametrize("n,seed", [(1, 7), (2, 1), (4, 1729)])
    def test_letter_counts_match_abelianise_on_dyck(self, dyck, n, seed):
        # four letters, and realisations of one to three letters miss some
        pair = pf_eigenpair(dyck.mean_matrix())
        worst, growth = 0.0, []
        for word in _trials(dyck, "(", n, 200, seed):
            counts = np.array(abelianise(word, dyck.alphabet.size), dtype=float)
            worst = max(worst, float(np.abs(counts / counts.sum() - pair.right).sum()))
            growth.append(len(word) / pair.value**n)
        oracle = DirectionStats(worst, float(np.mean(growth)), tuple(growth),
                                200, n, seed)
        assert gw_direction_estimate(dyck, "(", n, 200, seed=seed) == oracle


class TestLengthTail:
    def test_fibonacci_lengths_beat_linear(self, fibonacci):
        assert length_tail(fibonacci, "a", 10, 1.0, 50, seed=4) == 0.0

    def test_non_expanding_always_short(self):
        rule = make_non_expanding()
        assert length_tail(rule, "a", 5, 2.0, 20, seed=4) == 1.0

    def test_non_increasing_in_depth(self, period_doubling):
        vals = [length_tail(period_doubling, "a", n, 1.0, 50, seed=4)
                for n in (4, 8, 12)]
        assert vals[0] >= vals[1] >= vals[2]


# every sampler called as (rule, letter, n, trials, **seed); sample_iterate
# draws exactly one trial and takes no trial count
SAMPLERS = {
    "sample_iterate": lambda r, a, n, t, **kw: sample_iterate(r, a, n, **kw),
    "empirical_frequency":
        lambda r, a, n, t, **kw: empirical_frequency(r, a, "a", n, t, **kw),
    "sample_iterate_law": lambda r, a, n, t, **kw: sample_iterate_law(r, a, n, t, **kw),
    "gw_direction_estimate":
        lambda r, a, n, t, **kw: gw_direction_estimate(r, a, n, t, **kw),
    "length_tail": lambda r, a, n, t, **kw: length_tail(r, a, n, 1.0, t, **kw),
}


class TestInputContract:
    @pytest.mark.parametrize("name", SAMPLERS)
    def test_letter_code_out_of_range(self, name, fibonacci):
        for code in (-1, fibonacci.alphabet.size):
            with pytest.raises(KeyError, match="out of range"):
                SAMPLERS[name](fibonacci, code, 3, 5)

    @pytest.mark.parametrize("name", SAMPLERS)
    def test_unknown_symbol(self, name, fibonacci):
        with pytest.raises(KeyError, match="unknown letter"):
            SAMPLERS[name](fibonacci, "c", 3, 5)

    @pytest.mark.parametrize("name", SAMPLERS)
    def test_negative_depth(self, name, fibonacci):
        with pytest.raises(ValueError, match="nonnegative"):
            SAMPLERS[name](fibonacci, "a", -1, 5)

    @pytest.mark.parametrize("name", [s for s in SAMPLERS if s != "sample_iterate"])
    def test_no_trials(self, name, fibonacci):
        with pytest.raises(ValueError, match="trials >= 1"):
            SAMPLERS[name](fibonacci, "a", 3, 0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7"])
    @pytest.mark.parametrize("name", SAMPLERS)
    def test_seed_not_a_non_negative_integer(self, name, seed, fibonacci):
        with pytest.raises(ValueError, match=f"^seed must be a non-negative "
                                             f"integer, got {re.escape(repr(seed))}$"):
            SAMPLERS[name](fibonacci, "a", 3, 5, seed=seed)

    @pytest.mark.parametrize("k", [-1.0, 0.0, math.nan, math.inf])
    def test_tail_threshold(self, k, fibonacci):
        with pytest.raises(ValueError, match="finite and > 0"):
            length_tail(fibonacci, "a", 3, k, 5)

    def test_checked_before_first_trial(self, fibonacci):
        with pytest.raises(KeyError):
            _trials(fibonacci, -1, 3, 1, 0)
        with pytest.raises(ValueError):
            _trials(fibonacci, "a", -1, 1, 0)
        with pytest.raises(ValueError):
            _trials(fibonacci, "a", 3, 0, 0)
        with pytest.raises(ValueError):
            _trials(fibonacci, "a", 3, 1, -1)

    def test_letter_guard_checked_after_the_samplers_own(self, period_doubling,
                                                         monkeypatch):
        # every realisation of theta^27(a) has 2**27 letters, over the
        # default guard; the samplers' own checks still refuse first
        monkeypatch.delenv("STOCHSUB_GUARD_LIMIT", raising=False)
        realisations = _trials(period_doubling, "a", 27, 1, 0)
        with pytest.raises(ValueError, match="is not legal"):
            empirical_frequency(period_doubling, "a", "bbb", 27, 5)
        with pytest.raises(ValueError, match="finite and > 0"):
            length_tail(period_doubling, "a", 27, -1.0, 5)
        with pytest.raises(GuardExceeded,
                           match="^sampled word exceeds letter budget 100000000$"):
            next(realisations)

    def test_code_and_symbol_agree(self, fibonacci):
        for code, symbol in enumerate(fibonacci.alphabet.symbols):
            assert sample_iterate(fibonacci, code, 6, seed=3) == \
                sample_iterate(fibonacci, symbol, 6, seed=3)


def sampler_outputs(rule):
    """repr of every sampler's output at fixed arguments and seeds."""
    a = rule.alphabet.symbols[0]
    out = [sample_iterate(rule, a, 7, seed=11),
           sample_iterate(rule, 1, 5, seed=12),
           empirical_frequency(rule, a, a, 6, 8, seed=13),
           sorted(sample_iterate_law(rule, a, 3, 40, seed=14).items()),
           length_tail(rule, a, 6, 1.5, 30, seed=16)]
    try:
        out.append(gw_direction_estimate(rule, a, 6, 8, seed=15))
    except ValueError as exc:  # non_expanding
        out.append(str(exc))
    return repr(out)


# sha256 of sampler_outputs per bundled config, recorded before the samplers
# shared one trial loop (re-recorded when the growth factors became Python
# floats, which changed their repr, not their values, and for dyck when the PF
# solve moved to sparse Python floats, which moved the last digit of
# max_direction_distance, 0.48571428571428577 -> 0.4857142857142858, and no
# sampled word); a mismatch means the seed contract has changed
SAMPLER_DIGESTS = {
    "deterministic_fibonacci":
        "22bf9293d89a40dddd2b2a1d915a1fd5ba460705f20679809006b6b199c310f9",
    "dyck": "746da3757cc7cefeccd4765c6a376cbde2e49ae990e8f39e79f3b7c23d941509",
    "fibonacci":
        "19de16cf090989f14eb0a89daeb0c678e05e9b12f3a95ec369dc97dce495a38f",
    "non_expanding":
        "04042739e341dd72b562730157a6223bf9d7a36d578bdf54054a0b5f8a409bdb",
    "period_doubling":
        "967b40b793b8af5c90cf6019f9ab52ca2ca6683c9ba2eed1f82b1070eb218f38",
    "zeta": "96bd366751da79a10454bcc7862cd2cc3f6340b5b1303dbacadc978e85d63c44",
}


@pytest.mark.parametrize("name", SAMPLER_DIGESTS)
def test_seed_contract_pinned(name):
    rule = SubstitutionRule.from_file(CONFIG_DIR / f"{name}.json")
    digest = hashlib.sha256(sampler_outputs(rule).encode()).hexdigest()
    assert digest == SAMPLER_DIGESTS[name]


def assert_engine_matches(rule, letter, n, trials, seed):
    engine = list(map(tuple, _trials(rule, letter, n, trials, seed)))
    assert engine == list(map(tuple, reference_trials(rule, letter, n, trials, seed)))


def outcome(realisations):
    """The words a trial iterator yields, as tuples, and the GuardExceeded
    message that ends it, or None."""
    words = []
    try:
        words.extend(map(tuple, realisations))
    except GuardExceeded as exc:
        return words, str(exc)
    return words, None


class TestBatchedEngine:
    @pytest.mark.parametrize("name", SAMPLER_DIGESTS)
    def test_matches_reference_on_bundled_configs(self, name):
        rule = SubstitutionRule.from_file(CONFIG_DIR / f"{name}.json")
        for letter in range(rule.alphabet.size):
            for n in range(9):
                for seed in (0, 7, 1729):
                    assert_engine_matches(rule, letter, n, 3, seed)

    @settings(max_examples=60, deadline=None)
    @given(small_rules(), st.integers(0, 6), st.integers(1, 12), st.integers(0, 2**32))
    def test_matches_reference_on_random_rules(self, rule, n, trials, seed):
        assert_engine_matches(rule, 0, n, trials, seed)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(small_rules(), small_rules(min_length=2)), st.integers(1, 6),
           st.integers(0, 2**32))
    def test_guard_matches_reference_at_every_limit(self, rule, n, seed):
        # the checks before a round only refuse earlier, with the same
        # message; within one batch, before any word is yielded
        longest = max(map(len, reference_trials(rule, 0, n, 3, seed)))
        with pytest.MonkeyPatch.context() as mp:
            for limit in range(longest + 1):
                mp.setenv("STOCHSUB_GUARD_LIMIT", str(limit))
                words, message = outcome(reference_trials(rule, 0, n, 3, seed))
                engine = outcome(_trials(rule, 0, n, 3, seed))
                assert engine == (words if message is None else [], message)

    @pytest.mark.parametrize("name, letter, n, trials", [
        ("period_doubling", "a", 16, 50),   # batches of 2**20 // 2**16 = 16
        ("fibonacci", "a", 6, 1025),        # 2**6 letters count as 1024:
        ("fibonacci", "a", 6, 2049),        # batches of 1024 trials
    ])
    def test_matches_reference_across_batches(self, name, letter, n, trials):
        rule = SubstitutionRule.from_file(CONFIG_DIR / f"{name}.json")
        bound = max(rule.max_image_length() ** n, 1024)
        assert trials % (sampler.BATCH_LETTERS // bound) != 0
        assert_engine_matches(rule, letter, n, trials, 1729)

    def test_realisations_are_bytes(self, dyck):
        words = list(_trials(dyck, "(", 4, 5, 3))
        assert all(type(w) is bytes for w in words)
        assert len({len(w) for w in words}) > 1

    def test_guard_trips_in_the_middle_of_a_batch(self, dyck, monkeypatch):
        # the smallest limit that the first dyck trial passes and a later
        # trial of the same batch of 40 exceeds
        trials, seed = 40, 5
        for limit in range(1, 3**5):
            monkeypatch.setenv("STOCHSUB_GUARD_LIMIT", str(limit))
            passed = []
            with pytest.raises(GuardExceeded) as oracle:
                passed.extend(reference_trials(dyck, "(", 5, trials, seed))
            if passed:
                break
        assert 0 < len(passed) < trials
        with pytest.raises(GuardExceeded) as engine:
            list(_trials(dyck, "(", 5, trials, seed))
        assert str(engine.value) == str(oracle.value)


def seed_sequence_states(seed, lo, hi):
    """Oracle: the state numpy's own SeedSequence([seed, i]) gives trial i's
    PCG64, one trial at a time, for lo <= i < hi."""
    return np.array([np.random.SeedSequence([seed, i]).generate_state(4, np.uint64)
                     for i in range(lo, hi)], dtype=np.uint64).reshape(-1, 4)


SEEDS = [0, 1, 1729, 2**32 - 1, 2**32, 2**64 + 3, 2**200 + 7, np.int64(5), np.uint64(5)]


class TestBatchSeeding:
    # 0..1100 crosses a block of 1024 states; i passes 2**32 in the second
    # range, where it becomes two entropy words
    @pytest.mark.parametrize("lo, hi", [(0, 1101), (2**32 - 2, 2**32 + 2)])
    @pytest.mark.parametrize("seed", SEEDS, ids=repr)
    def test_states_and_streams_match_seed_sequence(self, seed, lo, hi):
        states = seed_states(seed, lo, hi)
        assert states.dtype == np.uint64
        assert np.array_equal(states, seed_sequence_states(seed, lo, hi))
        rngs = list(generators(seed, lo, hi))
        assert len(rngs) == hi - lo
        for i, rng in zip(range(lo, hi), rngs):
            oracle = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i])))
            assert np.array_equal(rng.random(64), oracle.random(64))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**130 - 1), st.integers(0, 2**33), st.integers(1, 40))
    def test_states_match_seed_sequence(self, seed, lo, size):
        assert np.array_equal(seed_states(seed, lo, lo + size),
                              seed_sequence_states(seed, lo, lo + size))

    @pytest.mark.parametrize("n_words, dtype", [(8, np.uint32), (4, np.uint32),
                                                (2, np.uint64), (4, None)])
    def test_trial_seed_refuses_other_requests(self, n_words, dtype):
        seed = TrialSeed(seed_states(1729, 0, 1)[0])
        with pytest.raises(NotImplementedError,
                           match=re.escape(f"not generate_state({n_words!r}, {dtype!r})")):
            seed.generate_state(n_words, dtype)


if __name__ == "__main__":
    # the cost of seeding one trial's generator, by numpy's SeedSequence
    # and by the sampler's route, `seed_states` over 1024 trials at a time,
    # best of 5:
    # PYTHONPATH=src python tests/test_sampler.py
    import time

    def best_per_trial(build, trials):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            build(trials)
            times.append(time.perf_counter() - start)
        return min(times) / trials * 1e6

    def seed_sequence_route(trials):
        return [np.random.Generator(np.random.PCG64(np.random.SeedSequence([1729, i])))
                for i in range(trials)]

    def batch_route(trials):
        return list(generators(1729, 0, trials))

    print("trials\tseed_sequence_us\tbatch_us")
    for trials in (200, 1000, 5000):
        assert np.array_equal(seed_states(1729, 0, trials),
                              seed_sequence_states(1729, 0, trials))
        print(f"{trials}\t{best_per_trial(seed_sequence_route, trials):.2f}"
              f"\t{best_per_trial(batch_route, trials):.2f}")
