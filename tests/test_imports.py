"""The package namespace is lazy, so `import stochsub` loads none of its
modules and importing one module loads only what that module imports; numpy
is imported inside the samplers only, so the package import, the exact
layer (language, matrices, iterate laws and kernel) and the float layer
(`RationalMatrix.to_float`, PF solve, frequencies, entropy and `check`)
start without it; the result records are NamedTuples and plain classes,
so neither loads `dataclasses` or the `inspect` it pulls in;
the package's public names keep the modules they are defined in; and every
guard is read and refused in `guards.py`."""

import ast
import functools
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import stochsub

from conftest import child_env

SRC = str(Path(stochsub.__file__).resolve().parents[1])
CONFIGS = Path(stochsub.__file__).resolve().parent / "configs"

# modules whose import start-up cost the exact paths avoid
PROBED = ("numpy", "dataclasses", "inspect")

# each child runs its case with stdout discarded, then prints its exit code
# and which of the probed modules were loaded
CHILD = """\
import contextlib, os, sys
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = 0
{body}
print(code, *(name for name in {probed!r} if name in sys.modules))
"""


@functools.cache  # each case's child runs once for the tests that share it
def run_child(body: str) -> tuple[int, frozenset[str]]:
    script = CHILD.format(body="\n".join("    " + line for line in body.splitlines()),
                          probed=PROBED)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True, env=child_env(PYTHONPATH=SRC))
    code, *loaded = done.stdout.split()
    return int(code), frozenset(loaded)


def cli(*argv: str) -> str:
    return f"from stochsub.cli import run\ncode = run({list(argv)!r})"


def config(name: str) -> str:
    return str(CONFIGS / f"{name}.json")


EXACT_CASES = {
    "import": ("import stochsub, stochsub.cli", 0),
    "language": (cli("language", "--config", config("dyck"), "--ell", "5"), 0),
    "matrix": (cli("matrix", "--config", config("period_doubling"), "--ell", "9"), 0),
    "freqs-usage-error": (cli("freqs", "--config", config("non_expanding"),
                              "--ell", "2"), 1),
    "law-and-kernel": (
        "from stochsub import SubstitutionRule\n"
        f"rule = SubstitutionRule.from_file({config('fibonacci')!r})\n"
        "law = rule.iterate_distribution('a', 5)\n"
        "assert sum(law.entries.values()) == 1\n"
        "assert rule.kernel('ab', 'aba') > 0", 0),
}

FLOAT_CASES = {
    "freqs": (cli("freqs", "--config", config("period_doubling"), "--ell", "5"), 0),
    "freqs-word": (cli("freqs", "--config", config("period_doubling"), "--ell", "2",
                       "--word", "bb"), 0),
    "freqs-closure": (cli("freqs", "--config", config("dyck"), "--ell", "3"), 0),
    "entropy": (cli("entropy", "--config", config("zeta"), "--max-n", "6"), 0),
    "check": (cli("check", "--config", config("fibonacci")), 0),
    "pf_eigenpair": (
        "from stochsub import (RationalMatrix, SubstitutionRule, induced_mean_matrix,\n"
        "                      pf_eigenpair)\n"
        f"rule = SubstitutionRule.from_file({config('dyck')!r})\n"
        "assert pf_eigenpair(induced_mean_matrix(rule, 3)).value > 1\n"
        "fib = RationalMatrix((0, 1), ({0: 1, 1: 1}, {0: 1}))\n"
        "assert pf_eigenpair(fib).value > 1", 0),
    "to_float": (
        "from stochsub import SubstitutionRule, induced_mean_matrix\n"
        f"dyck = SubstitutionRule.from_file({config('dyck')!r})\n"
        "assert induced_mean_matrix(dyck, 3).to_float()", 0),
}


@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_exact_paths_leave_numpy_unloaded(case):
    body, expected_code = EXACT_CASES[case]
    code, loaded = run_child(body)
    assert code == expected_code and "numpy" not in loaded


@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_exact_paths_leave_dataclasses_and_inspect_unloaded(case):
    body, expected_code = EXACT_CASES[case]
    assert run_child(body) == (expected_code, set())


@pytest.mark.parametrize("case", sorted(FLOAT_CASES))
def test_float_paths_leave_numpy_dataclasses_and_inspect_unloaded(case):
    body, expected_code = FLOAT_CASES[case]
    assert run_child(body) == (expected_code, set())


def test_sampler_loads_numpy():
    # positive control: the probe does see numpy (which imports inspect)
    # where the samplers draw, and still no dataclasses
    body = cli("sample", "--config", config("fibonacci"), "--letter", "a", "--n", "5")
    assert run_child(body) == (0, {"numpy", "inspect"})


def test_refused_sample_leaves_numpy_unloaded():
    # every realisation of fibonacci theta^12(a) has F(14) = 377 letters, so
    # the image lengths alone refuse it under a guard of 10, before numpy,
    # also in --word mode, where empirical_frequency draws the first one
    argv = ["sample", "--config", config("fibonacci"), "--letter", "a", "--n", "12"]
    for mode in ([], ["--word", "a", "--trials", "5"]):
        body = ("import io\n"
                "from stochsub.cli import run\n"
                "os.environ['STOCHSUB_GUARD_LIMIT'] = '10'\n"
                "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
                f"    code = run({argv + mode!r})\n"
                "assert err.getvalue() == 'error: sampled word exceeds letter budget 10\\n'")
        assert run_child(body) == (2, set()), mode


@pytest.mark.parametrize("name,error", [("fibonacci", "GuardExceeded"),
                                        ("non_expanding", "ValueError")])
def test_refused_direction_estimate_leaves_numpy_unloaded(name, error):
    # the guard refuses fibonacci theta^12(a) by the image lengths, and the
    # non-expanding rule is refused before any draw
    body = ("from stochsub import GuardExceeded, SubstitutionRule, gw_direction_estimate\n"
            f"rule = SubstitutionRule.from_file({config(name)!r})\n"
            "os.environ['STOCHSUB_GUARD_LIMIT'] = '10'\n"
            "try:\n"
            "    gw_direction_estimate(rule, 'a', 12, 5)\n"
            f"except {error}:\n"
            "    code = 2")
    assert run_child(body) == (2, set())


def test_probe_sees_dataclasses():
    # positive control for the other two probed modules
    assert run_child("import dataclasses") == (0, {"dataclasses", "inspect"})


# where each public name is defined; tools that patch the library by module
# (such as the benchmark's tracer) rely on these
PUBLIC_MODULES = {
    "stochsub.entropy": ("MaxEntropyReport", "max_entropy_class_check",
                         "metric_entropy_partial", "topological_entropy_partial"),
    "stochsub.guards": ("GuardExceeded",),
    "stochsub.induced": ("induced_mean_matrix",),
    "stochsub.language": ("LanguageTable", "legal_words"),
    "stochsub.measure": ("ErgodicityProbe", "FrequencyMeasure", "IllegalWordWarning",
                         "unique_ergodicity_probe"),
    "stochsub.sampler": ("DEFAULT_SEED", "DirectionStats", "SampleStats",
                         "empirical_frequency", "gw_direction_estimate",
                         "length_tail", "sample_iterate", "sample_iterate_law"),
    "stochsub.spectral": ("NonConvergence", "PFEigenpair", "pf_eigenpair"),
    "stochsub.substitution": ("IterateDistribution", "RationalMatrix",
                              "RuleValidationError", "SubstitutionRule"),
    "stochsub.words": ("Alphabet", "abelianise", "count_occurrences"),
}
HOME = {name: module for module, names in PUBLIC_MODULES.items() for name in names}


def test_all_is_the_pinned_public_names():
    assert sorted(stochsub.__all__) == sorted(HOME)


@pytest.mark.parametrize("name", sorted(HOME))
def test_public_name_resolves_to_its_module(name):
    value = getattr(stochsub, name)
    module = importlib.import_module(HOME[name])
    assert value is getattr(module, name)
    if hasattr(value, "__module__"):
        assert value.__module__ == HOME[name]


def package_modules(body: str) -> set[str]:
    """The stochsub modules that a fresh child process loads to run body."""
    script = f"import sys\n{body}\nprint(*(m for m in sys.modules if m.startswith('stochsub.')))"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True, env=child_env(PYTHONPATH=SRC))
    return set(done.stdout.split())


def test_package_import_loads_no_module():
    assert package_modules("import stochsub") == set()


def test_parsing_a_rule_loads_its_three_modules():
    # what the benchmark's set-up probe runs
    probe = ("from stochsub.substitution import SubstitutionRule\n"
             f"SubstitutionRule.from_file({config('fibonacci')!r})")
    assert package_modules(probe) == {"stochsub.substitution", "stochsub.words",
                                      "stochsub.guards"}


def test_each_module_resolves_after_the_package_import():
    body = ("import stochsub\n"
            f"for name in {[m.split('.')[1] for m in PUBLIC_MODULES]!r}:\n"
            "    assert getattr(stochsub, name) is sys.modules['stochsub.' + name]")
    assert package_modules(body) == set(PUBLIC_MODULES)


def test_dir_lists_the_public_names():
    assert set(stochsub.__all__) <= set(dir(stochsub))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        stochsub.no_such_name


def call_sites(name: str) -> set[tuple[str, str]]:
    """(module file, innermost enclosing function) of every call of `name`
    in the package's source."""
    sites = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None)):
            sites.add((path.name, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(Path(stochsub.__file__).resolve().parent.rglob("*.py")):
        visit(ast.parse(path.read_text()), "<module>")
    return sites


def test_guards_are_read_and_refused_in_one_module():
    # every refusal goes through a guards.Budget, which reads its own limit;
    # the CLI reads it once more at start, to refuse a malformed value
    assert {module for module, _ in call_sites("GuardExceeded")} == {"guards.py"}
    assert {site for site in call_sites("guard_limit")
            if site[0] != "guards.py"} == {("cli.py", "run")}
