"""The result records: six NamedTuples with pinned fields, and the read-only
RationalMatrix.  Each is built the way the library builds it, so the checks
cover what callers receive."""

import math
from fractions import Fraction

import pytest

from stochsub import (
    DirectionStats,
    ErgodicityProbe,
    IterateDistribution,
    MaxEntropyReport,
    PFEigenpair,
    RationalMatrix,
    SampleStats,
    empirical_frequency,
    gw_direction_estimate,
    max_entropy_class_check,
    pf_eigenpair,
    unique_ergodicity_probe,
)

from conftest import make_fibonacci, make_period_doubling, make_zeta

F = Fraction

# record -> (field names in order, defaults)
FIELDS = {
    IterateDistribution: (("source", "n", "entries"), {}),
    PFEigenpair: (("value", "right", "left", "residual", "iterations"), {}),
    ErgodicityProbe: (("sensitive", "max_difference", "ell"), {}),
    SampleStats: (("estimate", "stderr", "trials", "depth", "seed"), {}),
    DirectionStats: (("max_direction_distance", "mean_growth_factor",
                      "growth_factors", "trials", "depth", "seed"), {}),
    MaxEntropyReport: (
        ("qualifies", "reason", "image_length", "image_count", "uniform",
         "predicted_entropy", "checked_n", "metric_partial", "topological_partial"),
        dict.fromkeys(("image_length", "image_count", "uniform", "predicted_entropy",
                       "checked_n", "metric_partial", "topological_partial"))),
}


def built_records():
    """One record of each type, from the entry point that returns it."""
    fib = make_fibonacci()
    return {
        IterateDistribution: fib.iterate_distribution("a", 3),
        PFEigenpair: pf_eigenpair(fib.mean_matrix()),
        ErgodicityProbe: unique_ergodicity_probe(make_fibonacci(F(1, 3)), 2, [fib]),
        SampleStats: empirical_frequency(fib, "a", "ab", 6, 20, seed=1729),
        DirectionStats: gw_direction_estimate(fib, "a", 6, 5, seed=1729),
        MaxEntropyReport: max_entropy_class_check(make_zeta(), max_n=4),
    }


RECORDS = built_records()


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
class TestNamedTupleRecords:
    def test_fields_and_defaults(self, cls):
        names, defaults = FIELDS[cls]
        assert cls._fields == names
        assert cls._field_defaults == defaults

    def test_returned_record_unpacks_like_a_tuple(self, cls):
        record = RECORDS[cls]
        assert type(record) is cls and isinstance(record, tuple)
        assert tuple(record) == tuple(getattr(record, n) for n in cls._fields)
        assert list(record._asdict()) == list(cls._fields)

    def test_fields_are_read_only(self, cls):
        record = RECORDS[cls]
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = 1  # no instance dict either


def test_probe_keeps_its_verdict():
    assert ErgodicityProbe(True, 0.5, 3).verdict == "sensitive"
    assert ErgodicityProbe(False, 0.0, 3).verdict == "insensitive-up-to-ell"
    assert RECORDS[ErgodicityProbe].verdict == "sensitive"


class TestMaxEntropyReport:
    def test_refusal_takes_the_defaults(self):
        report = max_entropy_class_check(make_period_doubling())
        assert report == MaxEntropyReport(False, "image word sets differ between letters")
        assert report[2:] == (None,) * 7

    def test_replace_fills_the_partial_sums(self):
        report = RECORDS[MaxEntropyReport]
        assert report.qualifies and report.uniform
        assert report.image_length == 2 and report.image_count == 2
        assert report.checked_n == 4
        assert report.predicted_entropy == math.log(2) / 2
        bare = report._replace(predicted_entropy=None, checked_n=None,
                               metric_partial=None, topological_partial=None)
        assert bare == MaxEntropyReport(True, report.reason, 2, 2, True)
        assert report == bare._replace(**{k: getattr(report, k) for k in (
            "predicted_entropy", "checked_n", "metric_partial", "topological_partial")})


class TestRationalMatrix:
    def make(self):
        return RationalMatrix(labels=("x", "y"), columns=({1: 1}, {0: 3}),
                              denominator=2)

    def test_positional_constructor_and_default(self):
        mat = RationalMatrix(("x",), ({0: 1},))
        assert (mat.labels, mat.columns, mat.denominator) == (("x",), ({0: 1},), 1)

    @pytest.mark.parametrize("name", ["labels", "columns", "denominator", "rows", "extra"])
    def test_fields_are_read_only(self, name):
        mat = self.make()
        with pytest.raises(AttributeError, match=f"field '{name}' is read-only"):
            setattr(mat, name, None)
        with pytest.raises(AttributeError, match=f"field '{name}' is read-only"):
            delattr(mat, name)
        assert mat.denominator == 2

    def test_rows_are_cached(self):
        mat = self.make()
        assert mat.rows == ((0, F(3, 2)), (F(1, 2), 0))
        assert mat.rows is mat.rows

    def test_equality_follows_the_fields(self):
        mat = self.make()
        assert mat == self.make()
        assert mat != RationalMatrix(("x", "y"), ({1: 1}, {0: 3}))
        assert mat != (mat.labels, mat.columns, mat.denominator)
        with pytest.raises(TypeError):
            hash(mat)
