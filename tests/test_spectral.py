import hashlib
import math
from array import array
from fractions import Fraction

import numpy as np
import pytest

from stochsub import (
    Alphabet,
    NonConvergence,
    SubstitutionRule,
    induced_mean_matrix,
    pf_eigenpair,
)

from conftest import (
    CONFIG_DIR,
    dense_to_float,
    make_fibonacci,
    make_non_expanding,
    make_period_doubling,
    rational_matrix,
)

PHI = (1 + math.sqrt(5)) / 2


class TestEigenpair:
    def test_fibonacci(self):
        pair = pf_eigenpair(make_fibonacci().mean_matrix())
        assert abs(pair.value - PHI) <= 1e-9
        assert abs(pair.right[0] - 1 / PHI) <= 1e-9
        assert abs(sum(pair.right) - 1.0) <= 1e-12
        assert abs(sum(a * b for a, b in zip(pair.left, pair.right)) - 1.0) <= 1e-12

    def test_period_doubling(self):
        pair = pf_eigenpair(make_period_doubling().mean_matrix())
        assert abs(pair.value - 2.0) <= 1e-12
        assert np.allclose(pair.right, [2 / 3, 1 / 3], atol=1e-10)

    def test_non_expanding_lambda_one(self):
        pair = pf_eigenpair(make_non_expanding(Fraction(2, 7)).mean_matrix())
        assert abs(pair.value - 1.0) <= 1e-12

    def test_residual_below_tolerance(self):
        pair = pf_eigenpair(make_fibonacci().mean_matrix())
        assert pair.residual <= 1e-12

    def test_trivial_one_by_one(self):
        pair = pf_eigenpair(rational_matrix([[3]]))
        assert pair.value == 3.0 and pair.right[0] == 1.0
        # power iteration, no special case: each side converges in one step
        assert pair.left == (1.0,) and pair.residual == 0.0
        assert pair.iterations == 2

    def test_zero_one_by_one_collapses(self):
        with pytest.raises(NonConvergence, match="collapsed to zero"):
            pf_eigenpair(rational_matrix([[0]]))

    def test_left_eigen_identity(self):
        matrix = make_period_doubling().mean_matrix()
        pair = pf_eigenpair(matrix)
        mat, left = dense_to_float(matrix), np.array(pair.left)
        assert np.abs(left @ mat - pair.value * left).max() <= 1e-9

    def test_rejects_negative_entries(self):
        # the constructor checks no numerator's sign, so the solve does
        with pytest.raises(ValueError, match="finite nonnegative entries$"):
            pf_eigenpair(rational_matrix([[1, -1], [1, 1]]))

    def test_defective_matrix_detected(self):
        # Jordan block: power iteration converges only polynomially
        with pytest.raises((NonConvergence, ValueError)):
            pf_eigenpair(rational_matrix([[1, 1], [0, 1]]))

    def test_periodic_matrix_stalls(self):
        # imprimitive: the iterates alternate and the residual stays at 0.5
        with pytest.raises(NonConvergence, match="stalled") as exc:
            pf_eigenpair(rational_matrix([[0, 2], [1, 0]]))
        assert exc.value.residual == 0.5

    def test_reducible_matrix_non_positive_component(self):
        # converges at once, to an eigenvector with a zero component
        with pytest.raises(ValueError, match="non-positive component"):
            pf_eigenpair(rational_matrix([[1, 0], [0, 0]]))

    # the constructor checks the shape only, so these entries reach the solve
    @pytest.mark.parametrize("rows", [
        [], [[math.inf]], [[math.nan]], [[1, math.nan], [1, 1]],
    ], ids=["empty", "inf", "nan", "nan-entry"])
    def test_rejects_empty_and_non_finite(self, rows):
        with pytest.raises(ValueError,
                           match="^matrix must be nonempty with finite "
                                 "nonnegative entries$"):
            pf_eigenpair(rational_matrix(rows))

    @pytest.mark.parametrize("matrix", [[[1.0, 1.0], [1.0, 0.0]], np.ones((2, 2))],
                             ids=["list", "ndarray"])
    def test_rejects_anything_but_a_rational_matrix(self, matrix):
        with pytest.raises(TypeError, match="^pf_eigenpair takes a RationalMatrix, "
                                            f"got {type(matrix).__name__}$"):
            pf_eigenpair(matrix)

    def test_results_are_python_floats(self):
        # integer numerators over any denominator give tuples of floats
        for matrix in (make_fibonacci().mean_matrix(), rational_matrix([[1, 1], [1, 0]]),
                       rational_matrix([[3, 1], [2, 5]], 7)):
            pair = pf_eigenpair(matrix)
            assert type(pair.value) is float
            for vec in (pair.right, pair.left):
                assert type(vec) is tuple and {type(x) for x in vec} == {float}

    def test_slow_spectral_gap_converges(self):
        # a -> bbb, b -> a | aa | ba: |lambda_2 / lambda| is about 0.85, so
        # each side needs well over 100 iterations without stalling
        ab = Alphabet(["a", "b"])
        third = Fraction(1, 3)
        rule = SubstitutionRule(ab, [
            [(ab.encode("bbb"), Fraction(1))],
            [(ab.encode(w), third) for w in ("a", "aa", "ba")],
        ])
        pair = pf_eigenpair(rule.mean_matrix())
        assert abs(pair.value - (1 + math.sqrt(145)) / 6) <= 1e-12

    def test_known_matrix_against_numpy(self):
        rng = np.random.default_rng(7)
        numerators = rng.integers(1, 1000, (5, 5)).tolist()  # Python ints
        pair = pf_eigenpair(rational_matrix(numerators, 1000))
        lam = max(np.linalg.eigvals(np.array(numerators) / 1000).real)
        assert abs(pair.value - lam) <= 1e-9


# sha256 of the doubles of right + left and the summed iteration count,
# recorded when the power iteration moved to sparse Python float columns (the
# iteration counts are those of the dense numpy iteration before it)
@pytest.mark.parametrize("name,ell,digest,iterations", [
    ("period_doubling", 9,
     "484b77068eac270716f9c2a481f8ed50d896e7d81c308e48da214f0638e20edc", 43),
    ("dyck", 5,
     "60155d67189f40e51e32ae6464ccc08591a587de9d27ea4c7568169094737227", 34),
], ids=["period_doubling", "dyck"])  # a re-pinned digest keeps the test's name
def test_induced_eigenpair_pinned(name, ell, digest, iterations):
    rule = SubstitutionRule.from_file(CONFIG_DIR / f"{name}.json")
    pair = pf_eigenpair(induced_mean_matrix(rule, ell))
    doubles = array("d", pair.right + pair.left).tobytes()
    assert hashlib.sha256(doubles).hexdigest() == digest
    assert pair.iterations == iterations
