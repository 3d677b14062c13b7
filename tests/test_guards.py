"""`guards.Budget`, the one guard type: its limit, its two counts, and the
exact trip point of the refusal sites not pinned elsewhere.

The other sites are pinned where their layer is tested, each admitted at
its count and refused one below it, with the full message:
- language states: `test_measure.py::TestOneTablePerRule::
  test_one_language_budget_per_length` (fibonacci ell 12, 9139) and
  `test_language.py::test_guard_counts_kernel_states`;
- induced cells: `test_cli.py::TestMatrix::test_cell_guard_boundary`
  (dyck ell 2, 196);
- induced column: `test_induced.py::TestColumnGuard::test_boundary` (dyck
  ell 4, 9);
- iterate support, checked once per word: `test_substitution.py::
  TestIterates::test_guard_raises_exactly_past_the_support` (fibonacci
  theta^6, 10080);
- iterate letters: `test_substitution.py::TestIterates::
  test_guard_counts_the_letters_of_a_word` (deterministic_fibonacci
  theta^14, 987).
"""

from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from stochsub import GuardExceeded, SubstitutionRule, sample_iterate
from stochsub.guards import Budget
from stochsub.sampler import DEFAULT_SEED

from conftest import AB, CONFIG_DIR, reference_trials


class TestBudget:
    def test_spend_is_cumulative(self):
        budget = Budget(5, "spent past {}")
        budget.spend(3)
        budget.spend(2)
        assert budget.used == 5
        with pytest.raises(GuardExceeded, match="^spent past 5$"):
            budget.spend(1)

    def test_check_is_a_peak(self):
        budget = Budget(5, "peak past {}")
        budget.check(5)
        budget.check(5)
        assert budget.used == 0
        with pytest.raises(GuardExceeded, match="^peak past 5$"):
            budget.check(6)

    def test_zero_refuses_only_a_positive_count(self, monkeypatch):
        monkeypatch.setenv("STOCHSUB_GUARD_LIMIT", "0")
        budget = Budget(5, "{}")
        budget.spend(0)
        budget.check(0)
        with pytest.raises(GuardExceeded, match="^0$"):
            budget.check(1)

    def test_explicit_limit_then_variable_then_default(self, monkeypatch):
        monkeypatch.delenv("STOCHSUB_GUARD_LIMIT", raising=False)
        assert Budget(10, "{}").limit == 10
        monkeypatch.setenv("STOCHSUB_GUARD_LIMIT", "3")
        assert Budget(10, "{}").limit == 3
        assert Budget(10, "{}", 7).limit == 7
        assert Budget(10, "{}", 7).message == "7"

    @pytest.mark.parametrize("value", ["abc", "1e6", "-5", ""])
    def test_malformed_variable_refused_when_made(self, monkeypatch, value):
        monkeypatch.setenv("STOCHSUB_GUARD_LIMIT", value)
        with pytest.raises(ValueError, match="^STOCHSUB_GUARD_LIMIT must be a "
                           f"non-negative integer, got {value!r}$"):
            Budget(10, "{}")


def load(name):
    return SubstitutionRule.from_file(CONFIG_DIR / f"{name}.json")


def sampled_length(letter, n, seed, rule):
    """A sampler site's run, bound to its first three arguments: the length
    of one sampled realisation of theta^n(letter)."""
    return len(sample_iterate(rule, letter, n, seed))


# a -> ab | aab, b -> ba: images of two letters or more, of differing lengths
LONG_AND_SHORT = SubstitutionRule(AB, [
    [(AB.encode("ab"), Fraction(1, 2)), (AB.encode("aab"), Fraction(1, 2))],
    [(AB.encode("ba"), Fraction(1))]])

# site: (rule, run, count, message); `run` admits a limit of `count` and is
# refused at count - 1 with `message`, its `{}` the limit.  A sampler site's
# count is the length of the reference loop's word for its run
SITES = {
    # b -> a keeps the shortest image one letter long, yet every realisation
    # of theta^5(a) has F(7) = 13 letters, so 12 refuses it before any round
    "sampler up front": (
        load("fibonacci"), partial(sampled_length, "a", 5, DEFAULT_SEED), 13,
        "sampled word exceeds letter budget {}"),
    # the shortest theta^3(a) has 8 letters; at this seed theta^2(a) has 8
    # and every image has two letters or more, so the round that builds the
    # 16 of theta^3(a) is refused before it draws
    "sampler before the round": (
        LONG_AND_SHORT, partial(sampled_length, "a", 3, 5), 16,
        "sampled word exceeds letter budget {}"),
    # "(" -> "(" keeps the shortest realisation one letter long, and a
    # one-letter image allows no refusal before a round: only the round that
    # builds the 21 letters of theta^3("(") at this seed can be refused
    "sampler after the round": (
        load("dyck"), partial(sampled_length, "(", 3, DEFAULT_SEED), 21,
        "sampled word exceeds letter budget {}"),
    # the 256 words of theta^4(a) trip the check of each partial law, before
    # the word's law is merged
    "iterate support of a partial law": (
        load("zeta"), lambda rule: len(rule.iterate_distribution("a", 4).entries), 256,
        "iterate support exceeds guard limit {}"),
}
# the uniforms each sampler site draws before it refuses count - 1: none up
# front, the 1 + 3 letters of rounds 1 and 2 before round 3, and all three
# rounds' 1 + 3 + 9 where only a round's own result can be refused
SAMPLER_SITES = {"sampler up front": 0, "sampler before the round": 4,
                 "sampler after the round": 13}


@pytest.mark.parametrize("site", SITES)
def test_trip_point(monkeypatch, site):
    rule, run, count, message = SITES[site]
    monkeypatch.setenv("STOCHSUB_GUARD_LIMIT", str(count))
    assert run(rule) == count
    monkeypatch.setenv("STOCHSUB_GUARD_LIMIT", str(count - 1))
    with pytest.raises(GuardExceeded, match=f"^{message.format(count - 1)}$"):
        run(rule)


@pytest.mark.parametrize("site", SAMPLER_SITES)
def test_sampler_site(monkeypatch, site):
    rule, run, count, _ = SITES[site]
    monkeypatch.delenv("STOCHSUB_GUARD_LIMIT", raising=False)
    letter, n, seed = run.args
    (word,) = reference_trials(rule, letter, n, 1, seed)
    assert len(word) == count
    drawn = []

    class CountingGenerator(np.random.Generator):
        def random(self, *args, out=None, **kwargs):
            drawn.append(out.size)
            return super().random(*args, out=out, **kwargs)

    monkeypatch.setattr(np.random, "Generator", CountingGenerator)
    monkeypatch.setenv("STOCHSUB_GUARD_LIMIT", str(count - 1))
    with pytest.raises(GuardExceeded):
        run(rule)
    assert sum(drawn) == SAMPLER_SITES[site]
