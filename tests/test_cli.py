import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import stochsub
from stochsub import (RationalMatrix, RuleValidationError, SubstitutionRule,
                      induced_mean_matrix)
from stochsub.cli import run

CONFIG_DIR = resources.files("stochsub") / "configs"


def cfg(name):
    return str(CONFIG_DIR / f"{name}.json")


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMatrix:
    def test_fibonacci_mean(self, capsys):
        code, out, _ = invoke(capsys, "matrix", "--config", cfg("fibonacci"),
                              "--ell", "1")
        assert code == 0
        lines = [line.split("\t") for line in out.splitlines()]
        assert lines[0] == ["", "a", "b"]
        assert lines[1] == ["a", "1", "1"]
        assert lines[2] == ["b", "1", "0"]

    def test_induced_json(self, capsys):
        code, out, _ = invoke(capsys, "matrix", "--config",
                              cfg("period_doubling"), "--ell", "2",
                              "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["labels"] == ["aa", "ab", "ba", "bb"]
        assert doc["rows"][3] == ["1/4", "0", "0", "0"]

    def test_cell_guard_exit_two(self, capsys):
        # 28 216 words: the language guard admits them, the n^2 cells not
        code, out, err = invoke(capsys, "matrix", "--config",
                                cfg("period_doubling"), "--ell", "18")
        assert code == 2 and out == ""
        assert "induced matrix of 28216 words exceeds guard" in err

    def test_cell_guard_boundary(self, capsys, monkeypatch):
        # dyck ell 2: 14 words, 196 cells; its language spends 60 states
        monkeypatch.setenv("STOCHSUB_GUARD_LIMIT", "195")
        code, out, err = invoke(capsys, "matrix", "--config", cfg("dyck"),
                                "--ell", "2")
        assert code == 2 and out == ""
        assert "induced matrix of 14 words exceeds guard 195 cells" in err
        monkeypatch.setenv("STOCHSUB_GUARD_LIMIT", "196")
        code, out, _ = invoke(capsys, "matrix", "--config", cfg("dyck"),
                              "--ell", "2")
        assert code == 0 and len(out.splitlines()) == 15


def dense_matrix_output(rule, ell, fmt):
    """Oracle: the `matrix` report formatted cell by cell from the dense
    `rows` of Fractions, zeros included."""
    mat = rule.mean_matrix() if ell == 1 else induced_mean_matrix(rule, ell)
    if ell == 1:
        labels = [rule.alphabet.symbol(c) for c in mat.labels]
    else:
        labels = [rule.alphabet.decode(w) for w in mat.labels]
    str_rows = [[f"{x.numerator}/{x.denominator}" if x.denominator != 1 else
                 str(x.numerator) for x in row] for row in mat.rows]
    if fmt == "json":
        doc = {"ell": ell, "labels": labels, "rows": str_rows}
        return json.dumps(doc, indent=2) + "\n"
    rows = [["", *labels]] + [[lab, *line] for lab, line in zip(labels, str_rows)]
    return "".join("\t".join(row) + "\n" for row in rows)


def matrix_peak_rss_kb(*argv):
    """Exit code and peak RSS (kB) of a child process that runs `matrix` on
    period_doubling with argv, its stdout sent to the null device.

    The peak is the child's VmHWM, not its ru_maxrss: on Linux ru_maxrss
    keeps the spawning process's peak across exec, here that of pytest."""
    script = (
        "import contextlib, os, sys\n"
        "from stochsub.cli import run\n"
        "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
        "    code = run(sys.argv[1:])\n"
        "with open('/proc/self/status') as status:\n"
        "    peak = next(line.split()[1] for line in status\n"
        "                if line.startswith('VmHWM:'))\n"
        "print(code, peak)\n"
    )
    src = str(Path(stochsub.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script, "matrix", "--config",
         cfg("period_doubling"), *argv],
        capture_output=True, text=True, check=True, env={"PYTHONPATH": src})
    code, maxrss_kb = map(int, done.stdout.split())
    return code, maxrss_kb


class TestMatrixFromColumns:
    @pytest.mark.parametrize("name,ell,fmt", [
        ("dyck", 4, "tsv"), ("dyck", 4, "json"), ("period_doubling", 9, "tsv"),
        ("period_doubling", 9, "json"), ("fibonacci", 1, "tsv"),
        ("fibonacci", 1, "json"),
    ])
    def test_matches_dense_oracle_without_rows(self, capsys, monkeypatch,
                                                name, ell, fmt):
        expected = dense_matrix_output(
            SubstitutionRule.from_file(cfg(name)), ell, fmt)

        def refuse(self):
            raise AssertionError("dense rows built by the matrix command")

        monkeypatch.setattr(RationalMatrix, "rows", property(refuse))
        code, out, err = invoke(capsys, "matrix", "--config", cfg(name),
                                "--ell", str(ell), "--format", fmt)
        assert code == 0 and err == ""
        assert out == expected

    @pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is Linux only")
    def test_peak_memory_at_ell_13(self):
        # period_doubling ell 13 has 1 980 words, 3.9 M cells: printed through
        # the dense table of Fractions it peaked at 368 MB (Python 3.11, Linux)
        code, maxrss_kb = matrix_peak_rss_kb("--ell", "13")
        assert code == 0
        assert maxrss_kb < 200 * 1024

    @pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is Linux only")
    def test_json_rows_written_one_at_a_time(self):
        # the same table as JSON peaked at 53 MB while the document held every
        # row; written row by row it stays near the TSV run's 23 MB
        code, maxrss_kb = matrix_peak_rss_kb("--ell", "13", "--format", "json")
        assert code == 0
        assert maxrss_kb < 40 * 1024


class TestFreqs:
    def test_single_word(self, capsys):
        code, out, _ = invoke(capsys, "freqs", "--config",
                              cfg("period_doubling"), "--ell", "2",
                              "--word", "bb")
        assert code == 0
        word, value = out.strip().split("\t")
        assert word == "bb"
        assert abs(float(value) - 1 / 21) <= 1e-10

    @pytest.mark.parametrize("ell", ["1", "5"])
    def test_word_of_another_length_exit_one(self, capsys, ell):
        code, out, err = invoke(capsys, "freqs", "--config",
                                cfg("period_doubling"), "--ell", ell,
                                "--word", "bb")
        assert code == 1 and out == ""
        assert f"--word 'bb' is not of length --ell {ell}" in err

    def test_illegal_word_warns_on_one_line(self, capsys):
        code, out, err = invoke(capsys, "freqs", "--config",
                                cfg("period_doubling"), "--ell", "3",
                                "--word", "bbb")
        assert code == 0 and out == "bbb\t0\n"
        assert err == "warning: word 'bbb' is not legal; measure 0\n"

    @pytest.mark.parametrize("fmt,expected", [
        ("tsv", "aa\t0\n"),
        ("json", '{\n  "word": "aa",\n  "measure": 0.0\n}\n'),
    ])
    def test_non_expanding_longer_word_measures_zero(self, capsys, fmt, expected):
        code, out, err = invoke(capsys, "freqs", "--config", cfg("non_expanding"),
                                "--ell", "2", "--word", "aa", "--format", fmt)
        assert (code, out) == (0, expected)
        assert err == "warning: word 'aa' is not legal; measure 0\n"

    def test_non_expanding_longer_vector_exit_one(self, capsys):
        code, out, err = invoke(capsys, "freqs", "--config", cfg("non_expanding"),
                                "--ell", "2")
        assert (code, out) == (1, "")
        assert err == ("error: frequency vectors with ell > 1 require an "
                       "expanding rule\n")

    def test_word_on_multi_character_alphabet(self, capsys, tmp_path):
        # the period-doubling-like rule of the README on the symbols x1, x2:
        # "x2 x2" is written as `language` and `freqs` print it
        path = tmp_path / "multi.json"
        path.write_text(json.dumps({"alphabet": ["x1", "x2"], "rules": {
            "x1": [{"word": ["x1", "x2"], "prob": "1/2"},
                   {"word": ["x2", "x1"], "prob": "1/2"}],
            "x2": [{"word": ["x1", "x1"], "prob": "1"}],
        }}))
        code, out, err = invoke(capsys, "freqs", "--config", str(path),
                                "--ell", "2", "--word", "x2 x2")
        assert (code, out, err) == (0, "x2 x2\t0.047619047619\n", "")
        code, out, err = invoke(capsys, "sample", "--config", str(path),
                                "--letter", "x1", "--n", "4", "--trials", "5",
                                "--word", "x1 x2", "--format", "json")
        assert code == 0 and err == ""
        assert json.loads(out)["word"] == "x1 x2"

    def test_all_words_sum_to_one(self, capsys):
        code, out, _ = invoke(capsys, "freqs", "--config", cfg("zeta"),
                              "--ell", "3", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert abs(sum(doc["measures"].values()) - 1.0) <= 1e-9


class TestLanguage:
    def test_one_word_per_line(self, capsys):
        code, out, _ = invoke(capsys, "language", "--config",
                              cfg("period_doubling"), "--ell", "2")
        assert code == 0
        assert out.splitlines() == ["aa", "ab", "ba", "bb"]


class TestEntropy:
    def test_rows(self, capsys):
        code, out, _ = invoke(capsys, "entropy", "--config", cfg("zeta"),
                              "--max-n", "4", "--flavor", "both")
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert len(rows) == 4 and all(len(r) == 3 for r in rows)

    def test_json_flavors(self, capsys):
        code, out, _ = invoke(capsys, "entropy", "--config", cfg("zeta"),
                              "--max-n", "2", "--flavor", "metric",
                              "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert all("topological" not in e for e in doc["series"])


    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_non_expanding_topological_exit_one(self, capsys, fmt):
        code, out, err = invoke(capsys, "entropy", "--config", cfg("non_expanding"),
                                "--max-n", "2", "--flavor", "topological",
                                "--format", fmt)
        assert code == 1 and out == ""
        assert err == ("error: topological entropy with n > 1 requires an "
                       "expanding rule\n")

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    @pytest.mark.parametrize("flavor", ["metric", "both"])
    def test_non_expanding_metric_exit_one(self, capsys, flavor, fmt):
        code, out, err = invoke(capsys, "entropy", "--config", cfg("non_expanding"),
                                "--max-n", "2", "--flavor", flavor, "--format", fmt)
        assert code == 1 and out == ""
        assert err == ("error: frequency vectors with ell > 1 require an "
                       "expanding rule\n")


class TestSample:
    def test_byte_identical_reruns(self, capsys):
        argv = ("sample", "--config", cfg("fibonacci"), "--letter", "a",
                "--n", "8", "--seed", "5")
        code1, out1, _ = invoke(capsys, *argv)
        code2, out2, _ = invoke(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_frequency_mode(self, capsys):
        code, out, _ = invoke(capsys, "sample", "--config", cfg("fibonacci"),
                              "--letter", "a", "--n", "10", "--trials", "20",
                              "--word", "a", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["mode"] == "frequency"
        assert abs(doc["estimate"] - 0.618) < 0.05

    def test_tail_mode(self, capsys):
        code, out, _ = invoke(capsys, "sample", "--config", cfg("fibonacci"),
                              "--letter", "a", "--n", "10", "--trials", "10",
                              "--tail-K", "1")
        assert code == 0
        assert out.strip() == "fraction\t0"

    @pytest.mark.parametrize("extra", [
        ("--n", "-1", "--tail-K", "2"),
        ("--n", "-1", "--word", "a"),
        ("--n", "-1"),
        ("--n", "3", "--trials", "0", "--tail-K", "2"),
        ("--n", "3", "--trials", "0", "--word", "a"),
        ("--n", "3", "--trials", "0"),
    ])
    def test_bad_depth_or_trials_exit_one(self, capsys, extra):
        code, out, err = invoke(capsys, "sample", "--config", cfg("fibonacci"),
                                "--letter", "a", *extra)
        assert code == 1 and out == ""
        assert "nonnegative" in err or "trials >= 1" in err

    @pytest.mark.parametrize("k", ["-1", "0", "nan"])
    def test_bad_tail_threshold_exit_one(self, capsys, k):
        code, out, err = invoke(capsys, "sample", "--config", cfg("fibonacci"),
                                "--letter", "a", "--n", "3", "--trials", "5",
                                "--tail-K", k)
        assert code == 1 and out == ""
        assert "finite and > 0" in err

    def test_word_and_tail_together_exit_one(self, capsys):
        code, out, err = invoke(capsys, "sample", "--config", cfg("fibonacci"),
                                "--letter", "a", "--n", "5", "--trials", "3",
                                "--word", "a", "--tail-K", "2")
        assert code == 1 and out == ""
        assert "usage:" in err and "not allowed with argument --word" in err

    def test_unknown_letter_exit_one(self, capsys):
        code, out, err = invoke(capsys, "sample", "--config", cfg("fibonacci"),
                                "--letter", "c", "--n", "3")
        assert code == 1 and out == ""
        assert err == "error: unknown letter 'c'\n"  # no KeyError repr quotes


class TestCheckAndErrors:
    def test_check_passes_on_examples(self, capsys):
        for name in ("fibonacci", "period_doubling", "zeta", "non_expanding"):
            code, out, _ = invoke(capsys, "check", "--config", cfg(name))
            assert code == 0, f"{name}: {out}"
            assert "FAIL" not in out

    @pytest.mark.parametrize("name", ["dyck", "fibonacci"])
    def test_check_json(self, capsys, name):
        code, out, _ = invoke(capsys, "check", "--config", cfg(name),
                              "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["ok"] is True
        assert all(row["ok"] is True for row in doc["checks"])

    @pytest.mark.parametrize("name,solves,builds", [
        ("fibonacci", 2, 1), ("period_doubling", 2, 1), ("dyck", 3, 2),
    ])
    def test_check_builds_and_solves_each_matrix_once(self, capsys, monkeypatch,
                                                      name, solves, builds):
        # the mean matrix and the ell = 2 induced matrix, plus dyck's ell = 3
        # one, which the recursion cannot reach without an inflating power
        import stochsub.cli
        import stochsub.measure

        calls = []
        for module in (stochsub.cli, stochsub.measure):
            for fn in ("pf_eigenpair", "induced_mean_matrix"):
                def counting(*args, _fn=getattr(module, fn), _name=fn):
                    calls.append(_name)
                    return _fn(*args)
                monkeypatch.setattr(module, fn, counting)
        code, out, _ = invoke(capsys, "check", "--config", cfg(name))
        assert code == 0 and "FAIL" not in out
        assert calls.count("pf_eigenpair") == solves
        assert calls.count("induced_mean_matrix") == builds

    def test_check_sums_every_induced_column(self, capsys, monkeypatch):
        # fibonacci's aa column, not the last column of its first letter a,
        # sums 1/(4 * 10^12) too much: only the exact column sums can see it
        import stochsub.cli

        def wrong_aa_column(rule, ell):
            mat = induced_mean_matrix(rule, ell)
            scale = 10**12
            columns = [{i: x * scale for i, x in col.items()} for col in mat.columns]
            aa = mat.labels.index(rule.encode("aa"))
            columns[aa][next(iter(columns[aa]))] += 1
            return RationalMatrix(mat.labels, tuple(columns), mat.denominator * scale)

        monkeypatch.setattr(stochsub.cli, "induced_mean_matrix", wrong_aa_column)
        code, out, _ = invoke(capsys, "check", "--config", cfg("fibonacci"))
        failed = [row.split("\t")[0] for row in out.splitlines() if "\tFAIL\t" in row]
        assert code == 1 and failed == ["induced-column-sums"]

    def test_malformed_probabilities_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "alphabet": ["a"],
            "rules": {"a": [{"word": "aa", "prob": "1/3"}]},
        }))
        code, _, err = invoke(capsys, "matrix", "--config", str(bad))
        assert code == 1
        assert "sum to 1/3" in err

    def test_space_in_a_multichar_symbol_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "alphabet": ["x", "x y", "y"],
            "rules": {s: [{"word": ["x", "y"], "prob": "1"}] for s in ("x", "x y", "y")},
        }))
        code, out, err = invoke(capsys, "language", "--config", str(bad), "--ell", "2")
        assert code == 1 and out == ""
        assert err == ("error: bad alphabet: multi-character symbols must not "
                       "contain a space\n")

    @pytest.mark.parametrize("prob", ["1/0", True])
    def test_unparsable_probability_exit_one(self, capsys, tmp_path, prob):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "alphabet": ["a"],
            "rules": {"a": [{"word": "aa", "prob": prob}]},
        }))
        code, out, err = invoke(capsys, "matrix", "--config", str(bad))
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: image probability of 'a': probability must be a rational"
            f" string or integer, got {prob!r}"]

    @pytest.mark.parametrize("argv", [
        ("matrix", "--ell", "0"),
        ("freqs", "--ell", "0"),
        ("entropy", "--max-n", "0"),
    ])
    def test_nonpositive_size_exit_one(self, capsys, argv):
        command, *rest = argv
        code, out, err = invoke(capsys, command, "--config", cfg("fibonacci"), *rest)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and ">= 1" in err

    @pytest.mark.parametrize("change,problem", [
        (lambda d: [1, 2], "config must be a JSON object, got list"),
        (lambda d: "x", "config must be a JSON object, got str"),
        (lambda d: {**d, "alphabet": 5},
         "bad alphabet: expected a list of symbols, got 5"),
        (lambda d: {**d, "alphabet": [["a"]]},
         "bad alphabet: alphabet symbols must be nonempty strings"),
        # a string alphabet would be read letter by letter, " " among them
        (lambda d: {**d, "alphabet": "a b"},
         "bad alphabet: expected a list of symbols, got 'a b'"),
        (lambda d: {**d, "rules": [1]}, "missing or malformed 'rules' mapping"),
        (lambda d: {**d, "rules": {**d["rules"], "a": "ab"}},
         "images of 'a' must be a list, got str"),
        (lambda d: {**d, "rules": {**d["rules"], "b": 7}},
         "images of 'b' must be a list, got int"),
        (lambda d: {**d, "rules": {**d["rules"], "a": [5]}},
         "image of 'a' must be an object with a string or list 'word', got 5"),
        (lambda d: {**d, "rules": {**d["rules"], "b": [{"word": 5, "prob": "1"}]}},
         "image of 'b' must be an object with a string or list 'word',"
         " got {'word': 5, 'prob': '1'}"),
        (lambda d: {**d, "rules": {**d["rules"], "b": [{"word": "a"}]}},
         "image probability of 'b': probability must be a rational string or"
         " integer, got None"),
    ])
    def test_malformed_config_shape_exit_one(self, capsys, tmp_path, change, problem):
        data = change({"alphabet": ["a", "b"],
                       "rules": {"a": [{"word": "ab", "prob": "1"}],
                                 "b": [{"word": "a", "prob": "1"}]}})
        with pytest.raises(RuleValidationError) as info:
            SubstitutionRule.from_data(data)
        assert info.value.problems == [problem]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out, err = invoke(capsys, "check", "--config", str(bad))
        assert (code, out, err) == (1, "", f"error: {problem}\n")

    @pytest.mark.parametrize("value,code,message", [
        *((value, 1, "STOCHSUB_GUARD_LIMIT must be a non-negative integer,"
                     f" got {value!r}") for value in ("abc", "1e6", "-5", "")),
        ("0", 2, "sampled word exceeds letter budget 0"),
    ])
    def test_guard_variable(self, capsys, monkeypatch, value, code, message):
        monkeypatch.setenv("STOCHSUB_GUARD_LIMIT", value)
        assert invoke(capsys, "sample", "--config", cfg("fibonacci"), "--letter", "a",
                      "--n", "12") == (code, "", f"error: {message}\n")

    def test_missing_config_exit_one(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "language", "--config",
                              str(tmp_path / "nope.json"), "--ell", "1")
        assert code == 1 and "error" in err

    def test_unknown_subcommand_exit_one(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate")
        assert code == 1

    def test_guard_exit_two(self, capsys, monkeypatch):
        monkeypatch.setenv("STOCHSUB_GUARD_LIMIT", "10")
        code, _, err = invoke(capsys, "sample", "--config", cfg("fibonacci"),
                              "--letter", "a", "--n", "12")
        assert code == 2
        assert "budget" in err or "guard" in err

    @pytest.mark.parametrize("name", ["dyck", "period_doubling"])
    def test_language_guard_exit_two(self, capsys, monkeypatch, name):
        # dyck enumerates by closure, period_doubling by recursive inflation
        monkeypatch.setenv("STOCHSUB_GUARD_LIMIT", "50")
        code, out, err = invoke(capsys, "language", "--config", cfg(name),
                                "--ell", "6")
        assert code == 2 and out == ""
        assert "language enumeration exceeds guard 50" in err

    def test_language_guard_exit_two_at_default_limit(self, capsys, monkeypatch):
        # dyck ell 8 spends 2 598 934 kernel states, past the default 10**6
        monkeypatch.delenv("STOCHSUB_GUARD_LIMIT", raising=False)
        code, out, err = invoke(capsys, "language", "--config", cfg("dyck"),
                                "--ell", "8")
        assert code == 2 and out == ""
        assert err == ("error: language enumeration exceeds guard 1000000 "
                       "kernel states\n")

    def test_column_guard_exit_two(self, capsys, monkeypatch):
        # dyck ell 4: the widest of the 160 columns spends 9 kernel states
        monkeypatch.setattr("stochsub.induced.INDUCED_COLUMN_LIMIT", 8)
        code, out, err = invoke(capsys, "matrix", "--config", cfg("dyck"),
                                "--ell", "4")
        assert code == 2 and out == ""
        assert err == "error: induced-matrix column enumeration exceeds guard 8\n"
