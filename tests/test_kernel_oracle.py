"""The `bytes` realisation kernel against the tuple-keyed kernel it replaced.

`tuple_column_weights` is the kernel as it ran on tuples of letter codes.
The library's `_column_weights` must yield the same windows (after `tuple`),
in the same order, with equal values of the same type (bit-equal floats),
and spend the same kernel states, for unit, integer, float and Fraction
weights.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochsub import SubstitutionRule
from stochsub.language import _column_weights, _StateBudget

from conftest import CONFIG_DIR, small_rules

F = Fraction
CONFIGS = ("deterministic_fibonacci", "dyck", "fibonacci", "non_expanding",
           "period_doubling", "zeta")


def tuple_column_weights(images, u, ell, budget, scale=1, mass=1):
    """Oracle: the realisation kernel on tuple words, with prefix sharing
    (see `language._column_weights`)."""
    states = {((), 0): scale}
    for letter in u:
        budget.spend(len(states))
        nxt = {}
        for (prefix, first), weight in states.items():
            if first and len(prefix) >= first + ell - 1:
                key = (prefix, first)
                nxt[key] = nxt.get(key, 0) + weight * mass
                continue
            for img, p in images[letter]:
                f = first if first else len(img)
                cap = f + ell - 1
                key = ((prefix + img)[:cap], f)
                nxt[key] = nxt.get(key, 0) + weight * p
        states = nxt
    counts = {}
    for (prefix, first), weight in states.items():
        for k in range(first):
            w = prefix[k : k + ell]
            counts[w] = counts.get(w, 0) + weight
    return counts


def weightings(rule):
    """(name, tuple images, scale, mass) for unit, integer, float and
    Fraction weights."""
    d, integer = rule._integer_form
    return [
        ("unit", [[(w, 1) for w in support] for support in rule.supports()], 1, 1),
        ("integer", [[(tuple(w), q) for w, q in entries] for entries in integer],
         1, d),
        ("float", [[(w, float(p)) for w, p in entries] for entries in rule.images],
         0.3, 1),
        ("fraction", [list(entries) for entries in rule.images], F(2, 7), 1),
    ]


def assert_same_as_oracle(rule, u, ell):
    for name, images, scale, mass in weightings(rule):
        as_bytes = [[(bytes(w), x) for w, x in entries] for entries in images]
        expected_budget = _StateBudget(10**7, "oracle")
        expected = tuple_column_weights(images, u, ell, expected_budget, scale, mass)
        for word in (u, bytes(u)):
            budget = _StateBudget(10**7, "kernel")
            got = _column_weights(as_bytes, word, ell, budget, scale, mass)
            assert all(type(w) is bytes for w in got), name
            assert [tuple(w) for w in got] == list(expected), name
            for w, x in got.items():
                y = expected[tuple(w)]
                assert type(x) is type(y) and repr(x) == repr(y), (name, w)
            assert budget.used == expected_budget.used, name


@pytest.mark.parametrize("name", CONFIGS)
def test_bundled_configs(name):
    rule = SubstitutionRule.from_file(CONFIG_DIR / f"{name}.json")
    top = 3 if name == "dyck" else 5
    for m in range(1, top):
        for u in rule.language().words_of_length(m):
            for ell in range(1, top + 1):
                assert_same_as_oracle(rule, u, ell)


@given(small_rules(), st.data())
@settings(max_examples=60, deadline=None)
def test_small_rules(rule, data):
    size = rule.alphabet.size
    u = tuple(data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=4)))
    assert_same_as_oracle(rule, u, data.draw(st.integers(1, 4)))

