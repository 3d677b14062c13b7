import hashlib
import math
from fractions import Fraction

import pytest
from scipy import stats as sps

from stochsub import (
    FrequencyMeasure,
    SubstitutionRule,
    empirical_frequency,
    gw_direction_estimate,
    length_tail,
    sample_iterate,
    sample_iterate_law,
)

from stochsub.sampler import _trials

from conftest import (
    CONFIG_DIR,
    make_deterministic_fibonacci,
    make_fibonacci,
    make_non_expanding,
    make_period_doubling,
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

    def test_deviation_shrinks_with_depth(self, period_doubling):
        target = FrequencyMeasure(period_doubling).cylinder_measure("bb")
        devs = [abs(empirical_frequency(period_doubling, "a", "bb", n, 100,
                                        seed=5).estimate - target)
                for n in (4, 8, 12)]
        final = empirical_frequency(period_doubling, "a", "bb", 12, 100, seed=5)
        assert devs[-1] <= max(0.01, 3 * final.stderr)
        assert devs[-1] <= devs[0] + 0.01


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


# every sampler called as (rule, letter, n, trials); sample_iterate draws
# exactly one trial and takes no trial count
SAMPLERS = {
    "sample_iterate": lambda r, a, n, t: sample_iterate(r, a, n),
    "empirical_frequency": lambda r, a, n, t: empirical_frequency(r, a, "a", n, t),
    "sample_iterate_law": lambda r, a, n, t: sample_iterate_law(r, a, n, t),
    "gw_direction_estimate": lambda r, a, n, t: gw_direction_estimate(r, a, n, t),
    "length_tail": lambda r, a, n, t: length_tail(r, a, n, 1.0, t),
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

    def test_checked_before_first_trial(self, fibonacci):
        with pytest.raises(KeyError):
            _trials(fibonacci, -1, 3, 1, 0)
        with pytest.raises(ValueError):
            _trials(fibonacci, "a", -1, 1, 0)
        with pytest.raises(ValueError):
            _trials(fibonacci, "a", 3, 0, 0)

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
# shared one trial loop; a mismatch means the seed contract has changed
SAMPLER_DIGESTS = {
    "deterministic_fibonacci":
        "482aed81a8b874b60abbd9d764c735abcae2876c034fceadedb0f8f56b821e28",
    "dyck": "5ced8fda6f1bf057d70d3386479e904b35a3685032658febb7e54a89c19a6849",
    "fibonacci":
        "fc8e71cce558e48e7839f51b6cdacad3dab0a80f3901660f0d31bc5149a4190b",
    "non_expanding":
        "04042739e341dd72b562730157a6223bf9d7a36d578bdf54054a0b5f8a409bdb",
    "period_doubling":
        "57c85cf6caadb8dbe34fcd72018b70e356f91bbd521d6a6b3e5e974a1276a5e7",
    "zeta": "b69dca009d549fd2ef98f6c15eb66c980d95633637253c912f2ba0e72c0e9d83",
}


@pytest.mark.parametrize("name", SAMPLER_DIGESTS)
def test_seed_contract_pinned(name):
    rule = SubstitutionRule.from_file(CONFIG_DIR / f"{name}.json")
    digest = hashlib.sha256(sampler_outputs(rule).encode()).hexdigest()
    assert digest == SAMPLER_DIGESTS[name]
