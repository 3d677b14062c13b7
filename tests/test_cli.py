import json
from importlib import resources

import pytest

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


class TestFreqs:
    def test_single_word(self, capsys):
        code, out, _ = invoke(capsys, "freqs", "--config",
                              cfg("period_doubling"), "--ell", "2",
                              "--word", "bb")
        assert code == 0
        word, value = out.strip().split("\t")
        assert word == "bb"
        assert abs(float(value) - 1 / 21) <= 1e-10

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
    ])
    def test_bad_depth_or_trials_exit_one(self, capsys, extra):
        code, out, err = invoke(capsys, "sample", "--config", cfg("fibonacci"),
                                "--letter", "a", *extra)
        assert code == 1 and out == ""
        assert "nonnegative" in err or "trials >= 1" in err

    def test_unknown_letter_exit_one(self, capsys):
        code, out, err = invoke(capsys, "sample", "--config", cfg("fibonacci"),
                                "--letter", "c", "--n", "3")
        assert code == 1 and out == ""
        assert "unknown letter" in err


class TestCheckAndErrors:
    def test_check_passes_on_examples(self, capsys):
        for name in ("fibonacci", "period_doubling", "zeta", "non_expanding"):
            code, out, _ = invoke(capsys, "check", "--config", cfg(name))
            assert code == 0, f"{name}: {out}"
            assert "FAIL" not in out

    def test_malformed_probabilities_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "alphabet": ["a"],
            "rules": {"a": [{"word": "aa", "prob": "1/3"}]},
        }))
        code, _, err = invoke(capsys, "matrix", "--config", str(bad))
        assert code == 1
        assert "sum to 1/3" in err

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
