"""The realisation kernel against the kernels it replaced.

`tuple_column_weights` is the kernel as it ran on tuples of letter codes,
with states keyed by (prefix capped at first_len + ell - 1, first_len), so
that the tail u[1:] was enumerated once for every image of u[0].  The
library's kernel, `language._window_counts`, run on one word as
`conftest.column_weights`, keys its states by the tail's prefix alone,
capped at ell - 1, and joins u[0]'s images last.  It must yield the same
windows (after `tuple`), in the same order, with values of the same type:
equal for unit, integer and Fraction weights, and within 1e-14 relative for
float weights, whose products now take u[0]'s weight last.  The oracle
spends one state on u[0] and then one per (image of u[0], tail state), so
its spend is exactly 1 + |supp theta(u[0])| times the library's.

The kernel takes a list of weighted words, sums their tails per first
letter and joins each sum once.  A call on many words must equal the
weighted sum of single-word calls, with the same state spend: equal in value
and type for unit, integer and Fraction weights, within 1e-15 relative for
floats.  Key order is not part of that contract: the callers that pass many
words sort the keys or read only the keys.  The closure calls the kernel
once per round on the words the last round found, and must inflate each
word it finds exactly once.  `exact_frequency_vector` runs the frequency
pass in Fractions on the library's inputs, R_m (Fractions of its floats)
and the power's probabilities q / D, and normalises exactly;
`per_word_frequency_vector` does the same as the pass once ran, with one
window dict per prefix, merged by a second loop.  The library runs that
pass in integers and rounds each quotient once, so it must give the same
words and a vector within 2^-53 relative of either oracle's, on the bundled
configs, on random small rules and on two rules whose float sums were 1e-13
off.  Those bounds take the library's R_m as given.  `truth_vectors` takes
nothing from the library's floats: where the PF eigenvalue is rational
(period_doubling and zeta: 2, dyck: 7/3), the true frequency vector at a
base length is the exact null vector of the induced matrix minus that
eigenvalue, by Fraction elimination, and `exact_pass` carries it to longer
lengths.  Every library vector must lie within 2e-12 relative of it: the
power iterations (R_1's PF solve, and the self part's where the language
table has no prefix length) stop at an L1 residual of 1e-12, and the
recursion carries their error to every length.  On dyck's true vectors the
self part's split must hold exactly: 7/3 R_ell is the kernel's full-length
windows over L_(ell-1), weighted by R_(ell-1), plus B R_ell, with B by plain
enumeration of the realisations (`self_part_times`).  Run as a script, the
module prints the worst error per length on period_doubling, fibonacci and
zeta with the oracle's and the library's times, then the worst error
against the truth per length, or with `--ladder SRC...` times the library
on a few deep lengths in fresh processes, on each source tree given.
"""

import itertools
import math
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stochsub import FrequencyMeasure, SubstitutionRule, induced_mean_matrix
from stochsub import language
from stochsub.guards import Budget
from stochsub.language import _closure, _window_counts

from conftest import (
    CONFIG_DIR,
    child_env,
    column_weights,
    make_large_power,
    make_no_inflating_power,
    small_rules,
)

F = Fraction
ULP = F(1, 2**53)  # a correctly rounded quotient is at most this far, relative
CONFIGS = ("deterministic_fibonacci", "dyck", "fibonacci", "non_expanding",
           "period_doubling", "zeta")


def tuple_column_weights(images, u, ell, budget, scale=1, mass=1):
    """Oracle: the realisation kernel on tuple words, with prefix sharing
    over states (prefix capped at first_len + ell - 1, first_len)."""
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
        expected_budget = Budget(10**7, "oracle")
        expected = tuple_column_weights(images, u, ell, expected_budget, scale, mass)
        for word in (u, bytes(u)):
            budget = Budget(10**7, "kernel")
            got = column_weights(as_bytes, word, ell, budget, scale, mass)
            assert all(type(w) is bytes for w in got), name
            assert [tuple(w) for w in got] == list(expected), name
            for w, x in got.items():
                y = expected[tuple(w)]
                assert type(x) is type(y), (name, w)
                if name == "float":
                    assert math.isclose(x, y, rel_tol=1e-14), (name, w)
                else:
                    assert x == y, (name, w)
            assert expected_budget.used == 1 + len(images[u[0]]) * budget.used, name


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



def assert_shared_dict_is_the_sum(rule, words, ell):
    """One call on all the words against one call per word: word i scaled by
    (i + 1) * scale, or by 1 without weights (as the closure and the
    language pass call it)."""
    for name, images, scale, mass in weightings(rule):
        as_bytes = [[(bytes(w), x) for w, x in entries] for entries in images]
        weights = (None if name == "unit"
                   else [(i + 1) * scale for i in range(len(words))])
        separate_budget, shared_budget = (Budget(10**7, "kernel"),
                                          Budget(10**7, "kernel"))
        expected = {}
        for u, weight in zip(words, weights or [1] * len(words)):
            one = column_weights(as_bytes, u, ell, separate_budget, weight, mass)
            for w, x in one.items():
                expected[w] = expected.get(w, 0) + x
        got = _window_counts(as_bytes, words, ell, shared_budget, weights, mass)
        assert got.keys() == expected.keys(), name
        for w, x in got.items():
            assert type(x) is type(expected[w]), (name, w)
            if name == "float":
                assert math.isclose(x, expected[w], rel_tol=1e-15), (name, w)
            else:
                assert x == expected[w], (name, w)
        assert shared_budget.used == separate_budget.used, name


@pytest.mark.parametrize("name", CONFIGS)
def test_one_dict_for_many_words_bundled(name):
    rule = SubstitutionRule.from_file(CONFIG_DIR / f"{name}.json")
    top = 3 if name == "dyck" else 5
    for m in range(1, top):
        words = rule.language().words_of_length(m)
        for ell in range(1, top + 1):
            assert_shared_dict_is_the_sum(rule, words, ell)


@given(small_rules(), st.data())
@settings(max_examples=60, deadline=None)
def test_one_dict_for_many_words_small_rules(rule, data):
    size = rule.alphabet.size
    word = st.lists(st.integers(0, size - 1), min_size=1, max_size=4).map(tuple)
    words = data.draw(st.lists(word, min_size=1, max_size=5))
    assert_shared_dict_is_the_sum(rule, words, data.draw(st.integers(1, 4)))


def assert_closure_inflates_each_word_once(rule, ell):
    """The closure passes every word it finds to the kernel exactly once, so
    its spend is the sum of the single-word spends over the words."""
    images = [[(w, 1) for w, _ in entries] for entries in rule._integer_form[1]]
    inflated = []

    def recording(images, words, *args):
        inflated.extend(words)
        return _window_counts(images, words, *args)

    budget = Budget(10**7, "closure")
    with mock.patch.object(language, "_window_counts", recording):
        found = _closure(images, ell, budget)
    assert len(inflated) == len(set(inflated))
    assert set(inflated) == found
    single = Budget(10**7, "single words")
    for u in found:
        column_weights(images, u, ell, single)
    assert budget.used == single.used


@pytest.mark.parametrize("make,top", [
    (lambda: SubstitutionRule.from_file(CONFIG_DIR / "dyck.json"), 6),
    (make_no_inflating_power, 8),
    (make_large_power, 6),
], ids=["dyck", "no_inflating_power", "large_power"])
def test_closure_inflates_each_word_once(make, top):
    rule = make()
    for ell in range(1, top + 1):
        assert_closure_inflates_each_word_once(rule, ell)


@given(small_rules(), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_closure_inflates_each_word_once_small_rules(rule, ell):
    assert_closure_inflates_each_word_once(rule, ell)


def per_word_frequency_vector(rule, ell):
    """Oracle: R_ell from the library's R_m in exact arithmetic, as
    `exact_frequency_vector`, but with the kernel run into a fresh dict per
    prefix and merged into the total by a second loop."""
    fm = FrequencyMeasure(rule)
    m = fm.table.prefix_length(ell)
    prefixes, prefix_vec = fm.frequency_vector(m)
    denominator, integer_images = fm.table.power[1]._integer_form
    images = [[(img, F(q, denominator)) for img, q in entries]
              for entries in integer_images]
    budget = Budget(10**7, "oracle")
    counts = {}
    for p, r in zip(prefixes, prefix_vec):
        for w, x in column_weights(images, p, ell, budget, F(r)).items():
            counts[w] = counts.get(w, 0) + x
    total = sum(counts.values())
    keys = sorted(counts)
    return tuple(map(tuple, keys)), [counts[w] / total for w in keys]


@pytest.mark.parametrize("name,top", [
    ("deterministic_fibonacci", 14), ("fibonacci", 12), ("period_doubling", 14),
    ("zeta", 12),
])
def test_frequency_pass_against_per_word_merge(name, top):
    rule = SubstitutionRule.from_file(CONFIG_DIR / f"{name}.json")
    for ell in range(3, top + 1):
        assert worst_relative_error(rule, ell, per_word_frequency_vector) <= ULP, ell


# rules with an inflating power, drawn often enough that few are discarded
recursion_rules = st.one_of(small_rules(min_length=2), small_rules())


@given(recursion_rules, st.integers(3, 6))
@settings(max_examples=40, deadline=None)
def test_frequency_pass_against_per_word_merge_small_rules(rule, ell):
    assume(rule.is_primitive()[0] and rule.is_expanding())
    assume(rule.language().prefix_length(ell) is not None)
    assert worst_relative_error(rule, ell, per_word_frequency_vector) <= ULP


def exact_pass(rule, ell, prefix_vec):
    """The frequency pass at ell in exact arithmetic, from R_m given as
    Fractions or floats (so Fractions of them) and theta^k's probabilities
    q / D, normalised exactly."""
    table = rule.language()
    prefixes = table.words_of_length(table.prefix_length(ell))
    denominator, integer_images = table.power[1]._integer_form
    images = [[(img, F(q, denominator)) for img, q in entries]
              for entries in integer_images]
    counts = _window_counts(images, prefixes, ell, Budget(10**7, "oracle"),
                            list(map(F, prefix_vec)))
    total = sum(counts.values())
    keys = sorted(counts)
    return tuple(map(tuple, keys)), [counts[w] / total for w in keys]


def exact_frequency_vector(rule, ell):
    """Oracle: the frequency pass in exact arithmetic on the inputs the
    library's pass reads, its own R_m and theta^k's probabilities."""
    fm = FrequencyMeasure(rule)
    _, prefix_vec = fm.frequency_vector(fm.table.prefix_length(ell))
    return exact_pass(rule, ell, prefix_vec)


def worst_relative_error(rule, ell, oracle=exact_frequency_vector):
    """The library's vector against `oracle` (by default
    `exact_frequency_vector`), as the largest relative error of a component
    (a Fraction; every frequency is positive)."""
    expected_words, expected = oracle(rule, ell)
    words, vec = FrequencyMeasure(rule).frequency_vector(ell)
    assert words == expected_words
    return max(abs(F(x) - y) / y for x, y in zip(vec, expected))


def uniform_rule(*supports):
    """The rule on a, b, c whose letters take the images in `supports`
    ("c|aa" for c or aa), each with equal probability."""
    return SubstitutionRule.from_data({
        "alphabet": ["a", "b", "c"],
        "rules": {a: [{"word": w, "prob": f"1/{len(words)}"} for w in words]
                  for a, words in zip("abc", (s.split("|") for s in supports))},
    })


@pytest.mark.parametrize("name", ["deterministic_fibonacci", "fibonacci",
                                  "period_doubling", "zeta"])
def test_frequency_pass_against_exact_sums(name):
    rule = SubstitutionRule.from_file(CONFIG_DIR / f"{name}.json")
    top = 18 if name == "period_doubling" else 14
    for ell in range(3, top + 1):
        assert worst_relative_error(rule, ell) <= ULP, ell


@pytest.mark.parametrize("supports", [
    ("bbb", "c|aa", "a|aaa"),  # theta^3: 8.6e-14 with float sums
    ("c", "ab|bbb", "b"),  # theta^2: 1.4e-13 with float sums
], ids=["a-bbb", "a-c"])
def test_frequency_pass_against_exact_sums_long_power(supports):
    assert worst_relative_error(uniform_rule(*supports), 3) <= ULP


@given(recursion_rules, st.integers(3, 5))
@settings(max_examples=30, deadline=None)
def test_frequency_pass_against_exact_sums_small_rules(rule, ell):
    assume(rule.is_primitive()[0] and rule.is_expanding())
    assume(rule.language().prefix_length(ell) is not None)
    assert worst_relative_error(rule, ell) <= ULP


def null_vector(rows, eigenvalue):
    """The exact null vector of A - eigenvalue I, normalised to sum 1, by
    Fraction elimination; the eigenvalue must be simple."""
    n = len(rows)
    a = [[x - eigenvalue * (i == j) for j, x in enumerate(row)]
         for i, row in enumerate(rows)]
    pivots = []  # reduced row echelon form: row r has its 1 at pivots[r]
    for c in range(n):
        r = len(pivots)
        p = next((i for i in range(r, n) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(n):
            if i != r and a[i][c]:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    (free,) = set(range(n)) - set(pivots)  # one free column: a simple eigenvalue
    x = [F(0)] * n
    x[free] = F(1)
    for row, c in zip(a, pivots):
        x[c] = -row[free]
    total = sum(x)
    return [v / total for v in x]


# (config, PF eigenvalue, deepest length): where the eigenvalue is rational
# the true measure is exact at every length
TRUTH_CASES = (("period_doubling", F(2), 12), ("zeta", F(2), 12), ("dyck", F(7, 3), 3))


def truth_vectors(rule, eigenvalue, top):
    """Oracle: per length 1..top, the legal words and the true frequency
    vector, in Fractions: the exact null vector of the induced matrix minus
    eigenvalue I where the language table has no prefix length, else
    `exact_pass` on the true R_m."""
    table = rule.language()
    truth = {}
    for ell in range(1, top + 1):
        m = table.prefix_length(ell)
        if m is None:
            matrix = induced_mean_matrix(rule, ell)
            truth[ell] = matrix.labels, null_vector(matrix.rows, eigenvalue)
        else:
            truth[ell] = exact_pass(rule, ell, truth[m][1])
    return truth


def truth_errors(name, eigenvalue, top):
    """Per length 1..top, the largest relative error of a component of the
    library's vector against `truth_vectors` (a Fraction)."""
    rule = SubstitutionRule.from_file(CONFIG_DIR / f"{name}.json")
    truth = truth_vectors(rule, eigenvalue, top)
    return [worst_relative_error(rule, ell, lambda rule, ell: truth[ell])
            for ell in truth]


@pytest.mark.parametrize("name,eigenvalue,top", TRUTH_CASES,
                         ids=[case[0] for case in TRUTH_CASES])
def test_frequency_vectors_against_truth(name, eigenvalue, top):
    errors = truth_errors(name, eigenvalue, top)
    assert all(error <= F(2, 10**12) for error in errors), list(map(float, errors))


def self_part_times(rule, words, vec):
    """Oracle: B R by plain enumeration, in Fractions.  Each realisation of
    theta(x), x in `words`, whose letters x[1:-1] take single-letter images
    adds the window from the last letter of x_0's image to the first of
    x[-1]'s, weighted by its probability times x's component of `vec`."""
    out = {}
    for x, r in zip(words, vec):
        for choice in itertools.product(*(rule.images[c] for c in x)):
            if all(len(img) == 1 for img, _ in choice[1:-1]):
                middle = tuple(img[0] for img, _ in choice[1:-1])
                window = (choice[0][0][-1], *middle, choice[-1][0][0])
                out[window] = out.get(window, 0) + r * math.prod(p for _, p in choice)
    return out


@pytest.mark.parametrize("ell", [2, 3])
def test_self_part_split_against_truth(ell):
    # lambda R_ell = C + B R_ell exactly on dyck's true vectors: C the
    # full-length windows of the kernel over L_(ell-1) weighted by R_(ell-1),
    # B the windows only x[-1]'s image completes
    rule = SubstitutionRule.from_file(CONFIG_DIR / "dyck.json")
    truth = truth_vectors(rule, F(7, 3), ell)
    (shorter, short_vec), (words, vec) = truth[ell - 1], truth[ell]
    images = [[(bytes(img), p) for img, p in entries] for entries in rule.images]
    counts = _window_counts(images, shorter, ell, Budget(10**7, "oracle"), short_vec)
    c = {tuple(w): x for w, x in counts.items() if len(w) == ell}
    b = self_part_times(rule, words, vec)
    assert set(c) | set(b) == set(words)
    assert all(c.get(v, 0) + b.get(v, 0) == F(7, 3) * r for v, r in zip(words, vec))


# the ladder rungs timed in fresh processes by `--ladder`
LADDER = (("period_doubling", 22), ("period_doubling", 23), ("zeta", 23),
          ("fibonacci", 19), ("dyck", 7))
RUNG = """\
import sys, time
from importlib import resources
from stochsub import FrequencyMeasure, SubstitutionRule
name, ell = sys.argv[1], int(sys.argv[2])
rule = SubstitutionRule.from_file(resources.files("stochsub") / "configs" / f"{name}.json")
start = time.perf_counter()
FrequencyMeasure(rule).frequency_vector(ell)
seconds = time.perf_counter() - start
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(seconds, int(peak) / 1024)
"""


def ladder(sources, runs=7):
    """Per rung of LADDER and source tree, the median seconds of a fresh
    process's `frequency_vector` (every length it needs, words included) and
    the median of the processes' peak RSS (VmHWM, MB), over `runs` runs that
    alternate the order of the trees."""
    print("config\tell\tsrc\tmedian_seconds\tmedian_vmhwm_mb\tseconds")
    for name, ell in LADDER:
        times = {src: [] for src in sources}
        for run in range(runs):
            for src in sources[::-1] if run % 2 else sources:
                done = subprocess.run([sys.executable, "-c", RUNG, name, str(ell)],
                                      capture_output=True, text=True, check=True,
                                      env=child_env(PYTHONPATH=src))
                times[src].append(tuple(map(float, done.stdout.split())))
        for src, runs_of_src in times.items():
            seconds, peaks = zip(*runs_of_src)
            print(f"{name}\t{ell}\t{src}\t{statistics.median(seconds):.3f}\t"
                  f"{statistics.median(peaks):.1f}\t"
                  + " ".join(f"{x:.3f}" for x in seconds))


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_kernel_oracle.py prints, per length,
    # the worst relative error of the frequency pass against the exact sums,
    # the oracle's seconds and those of the library's own `frequency_vector`
    # on a fresh rule (every length it needs); then, per TRUTH_CASES length,
    # the worst relative error of the library's vector against the truth.  With `--ladder SRC...` it
    # times LADDER instead, in fresh processes on each source tree SRC.
    if sys.argv[1:2] == ["--ladder"]:
        ladder(sys.argv[2:])
        sys.exit()
    print("config\tell\tworst_relative_error\toracle_seconds\tlibrary_seconds")
    for name, top in (("period_doubling", 20), ("fibonacci", 17), ("zeta", 18)):
        path = CONFIG_DIR / f"{name}.json"
        for ell in range(3, top + 1):
            rule = SubstitutionRule.from_file(path)
            start = time.perf_counter()
            FrequencyMeasure(rule).frequency_vector(ell)
            library = time.perf_counter() - start
            start = time.perf_counter()
            worst = worst_relative_error(rule, ell)
            oracle = time.perf_counter() - start
            print(f"{name}\t{ell}\t{float(worst):.3g}\t{oracle:.2f}\t{library:.3f}")
    print("\nconfig\tell\tworst_relative_error_vs_truth")
    for case in TRUTH_CASES:
        for ell, worst in enumerate(truth_errors(*case), 1):
            print(f"{case[0]}\t{ell}\t{float(worst):.3g}")
