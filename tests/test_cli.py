import json
import sys
from importlib import resources

import pytest

from stochsub import (RationalMatrix, RuleValidationError, SubstitutionRule,
                      induced_mean_matrix)
from stochsub.cli import _emit, run

from conftest import peak_rss_kb

CONFIG_DIR = resources.files("stochsub") / "configs"


def cfg(name):
    return str(CONFIG_DIR / f"{name}.json")


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# fibonacci under STOCHSUB_GUARD_LIMIT=2: the command line and its
# (exit code, stdout, stderr)
SHORT_LENGTH_CASES = {
    "language --ell 1": (0, "a\nb\n", ""),
    "language --ell 2":
        (2, "", "error: language enumeration exceeds guard 2 kernel states\n"),
    "freqs --ell 1":
        (2, "", "error: induced matrix of 2 words exceeds guard 2 cells\n"),
    "freqs --ell 2 --word ab":
        (2, "", "error: language enumeration exceeds guard 2 kernel states\n"),
    "sample --letter a --n 1 --word a --trials 2":
        (0, "estimate\t0.5\nstderr\t0\ntrials\t2\nn\t1\nseed\t1729\n", ""),
}


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
        assert err == "error: induced matrix of 14 words exceeds guard 195 cells\n"
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
        code, maxrss_kb = peak_rss_kb("matrix", "--config", cfg("period_doubling"),
                                      "--ell", "13")
        assert code == 0
        assert maxrss_kb < 200 * 1024

    @pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is Linux only")
    def test_json_rows_written_one_at_a_time(self):
        # the same table as JSON peaked at 53 MB while the document held every
        # row; written row by row it stays near the TSV run's 23 MB
        code, maxrss_kb = peak_rss_kb("matrix", "--config", cfg("period_doubling"),
                                      "--ell", "13", "--format", "json")
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

    @pytest.mark.parametrize("name, ell", [("period_doubling", 4), ("dyck", 3)])
    def test_json_matches_tsv(self, capsys, name, ell):
        argv = ("language", "--config", cfg(name), "--ell", str(ell))
        code, tsv, _ = invoke(capsys, *argv)
        json_code, out, err = invoke(capsys, *argv, "--format", "json")
        assert code == json_code == 0 and err == ""
        words = tsv.splitlines()
        assert list(json.loads(out).items()) == [
            ("ell", ell), ("count", len(words)), ("words", words)]


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

    @pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is Linux only")
    def test_refused_round_builds_no_arrays(self):
        # every period_doubling image has two letters, so every realisation of
        # theta^23(a) has 2**23 letters and is refused before any round draws;
        # refused after the round, it peaked at 125 MB, above the admitted
        # 2**22-letter run's 93 MB (Python 3.11, Linux)
        def peak(n):
            return peak_rss_kb("sample", "--config", cfg("period_doubling"),
                               "--letter", "a", "--n", str(n),
                               env={"STOCHSUB_GUARD_LIMIT": str(2**22)})

        (refused, refused_kb), (admitted, admitted_kb) = peak(23), peak(22)
        assert (refused, admitted) == (2, 0)
        assert refused_kb < admitted_kb

    @pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is Linux only")
    def test_refused_depth_draws_no_round(self):
        # the 2**27 letters of every period_doubling theta^27(a) are over the
        # default guard, so it is refused before numpy loads or a round draws;
        # it peaked at 675 MB when only each round's own checks refused it
        # (Python 3.11, Linux)
        code, maxrss_kb = peak_rss_kb("sample", "--config", cfg("period_doubling"),
                                      "--letter", "a", "--n", "27")
        assert code == 2 and maxrss_kb < 60_000

    @pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is Linux only")
    def test_admitted_depth_holds_its_wide_arrays_in_chunks(self):
        # theta^22(a) has 2**22 letters; with every round's uniforms and
        # index casts held for 2**16 letters at a time, and the word printed
        # from its bytes, it peaks near 48 MB, where whole-round float64 and
        # intp arrays and the word's tuple took it to 93 MB (Python 3.11, Linux)
        code, maxrss_kb = peak_rss_kb("sample", "--config", cfg("period_doubling"),
                                      "--letter", "a", "--n", "22")
        assert code == 0 and maxrss_kb < 75_000

    def test_depth_zero_passes_a_zero_limit(self, capsys, monkeypatch):
        # theta^0(a) is the letter itself, drawn in no round, so no guard reads it
        monkeypatch.setenv("STOCHSUB_GUARD_LIMIT", "0")
        assert invoke(capsys, "sample", "--config", cfg("fibonacci"), "--letter", "a",
                      "--n", "0") == (0, "a\nlength\t1\n", "")


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

    def test_check_reads_the_vectors_freqs_serves(self, capsys, monkeypatch):
        # frequency vectors at twice the PF solve fail the rows that read
        # them; check's own solves keep its eigenvalue rows passing
        import stochsub.measure

        def doubled(mat, _solve=stochsub.measure.pf_eigenpair):
            pair = _solve(mat)
            return pair._replace(right=tuple(2 * x for x in pair.right))

        monkeypatch.setattr(stochsub.measure, "pf_eigenpair", doubled)
        code, out, _ = invoke(capsys, "check", "--config", cfg("fibonacci"))
        failed = [row.split("\t")[0] for row in out.splitlines() if "\tFAIL\t" in row]
        assert code == 1
        assert failed == ["normalization-ell-1", "normalization-ell-2",
                          "consistency-1-3"]

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

    @pytest.mark.parametrize("rules,key", [
        # plain json.load would keep the last: a -> b, and exit 0
        ('"a": [{"word": "ab", "prob": "1"}], "a": [{"word": "b", "prob": "1"}],'
         ' "b": [{"word": "a", "prob": "1"}]', "a"),
        ('"a": [{"word": "ab", "prob": "1", "prob": "1/2"}],'
         ' "b": [{"word": "a", "prob": "1"}]', "prob"),
    ], ids=["letter", "prob"])
    def test_repeated_config_key_exit_one(self, capsys, tmp_path, rules, key):
        bad = tmp_path / "bad.json"
        bad.write_text('{"alphabet": ["a", "b"], "rules": {%s}}' % rules)
        code, out, err = invoke(capsys, "matrix", "--config", str(bad))
        assert (code, out, err) == (1, "", f"error: config repeats key {key!r}\n")

    @pytest.mark.parametrize("argv", [
        ("matrix", "--config", cfg("fibonacci")),
        ("matrix", "--config", cfg("fibonacci"), "--format", "json"),
        ("language", "--config", cfg("fibonacci"), "--ell", "3"),
        ("freqs", "--config", cfg("fibonacci"), "--ell", "1"),
        ("entropy", "--config", cfg("fibonacci"), "--max-n", "1"),
        ("check", "--config", cfg("non_expanding")),
        ("check", "--config", cfg("fibonacci")),
    ])
    def test_malformed_guard_variable_exits_one_before_any_work(self, capsys,
                                                               monkeypatch, argv):
        # checked once at start, also where no guard is consulted
        monkeypatch.setenv("STOCHSUB_GUARD_LIMIT", "abc")
        assert invoke(capsys, *argv) == (
            1, "", "error: STOCHSUB_GUARD_LIMIT must be a non-negative integer,"
                   " got 'abc'\n")

    @pytest.mark.parametrize("value,code,message", [
        *((value, 1, "STOCHSUB_GUARD_LIMIT must be a non-negative integer,"
                     f" got {value!r}") for value in ("abc", "1e6", "-5", "")),
        ("0", 2, "sampled word exceeds letter budget 0"),
    ])
    def test_guard_variable(self, capsys, monkeypatch, value, code, message):
        monkeypatch.setenv("STOCHSUB_GUARD_LIMIT", value)
        assert invoke(capsys, "sample", "--config", cfg("fibonacci"), "--letter", "a",
                      "--n", "12") == (code, "", f"error: {message}\n")

    @pytest.mark.parametrize("line,expected", list(SHORT_LENGTH_CASES.items()),
                             ids=list(SHORT_LENGTH_CASES))
    def test_short_lengths_build_no_inflating_power(self, capsys, monkeypatch,
                                                     line, expected):
        # fibonacci's inflating power theta^2 has 3-letter images, past a
        # guard of 2: each call is refused only by the guard of its own work
        monkeypatch.setenv("STOCHSUB_GUARD_LIMIT", "2")
        command, *rest = line.split()
        assert invoke(capsys, command, "--config", cfg("fibonacci"), *rest) == expected

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


def test_tsv_rows_are_strings_made_by_their_subcommand(capsys):
    # `_emit` only joins: a cell its handler left unformatted is a TypeError
    _emit(None, iter([["ab", "0.5"], ["n", "3"]]), "tsv")
    assert capsys.readouterr().out == "ab\t0.5\nn\t3\n"
    for cell in (0.5, 3):
        with pytest.raises(TypeError):
            _emit(None, [["ab", cell]], "tsv")
