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

import pytest

from stochsub import GuardExceeded, SubstitutionRule, sample_iterate
from stochsub.guards import Budget

from conftest import CONFIG_DIR


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


# site: (config, run, count, message); `run` admits a limit of `count` and
# is refused at count - 1 with `message`, its `{}` the limit
SITES = {
    # every image has two letters, so the round that doubles 16 letters to
    # 32 is refused before it draws
    "sampler before the round": (
        "period_doubling", lambda rule: len(sample_iterate(rule, "a", 5)), 32,
        "sampled word exceeds letter budget {}"),
    # b -> a keeps the shortest image one letter long, so only the round
    # that builds theta^5(a), F(7) = 13 letters, can be refused
    "sampler after the round": (
        "fibonacci", lambda rule: len(sample_iterate(rule, "a", 5)), 13,
        "sampled word exceeds letter budget {}"),
    # the 256 words of theta^4(a) trip the check of each partial law, before
    # the word's law is merged
    "iterate support of a partial law": (
        "zeta", lambda rule: len(rule.iterate_distribution("a", 4).entries), 256,
        "iterate support exceeds guard limit {}"),
}


@pytest.mark.parametrize("site", SITES)
def test_trip_point(monkeypatch, site):
    name, run, count, message = SITES[site]
    rule = load(name)
    monkeypatch.setenv("STOCHSUB_GUARD_LIMIT", str(count))
    assert run(rule) == count
    monkeypatch.setenv("STOCHSUB_GUARD_LIMIT", str(count - 1))
    with pytest.raises(GuardExceeded, match=f"^{message.format(count - 1)}$"):
        run(rule)
