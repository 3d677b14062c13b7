import math
from fractions import Fraction

import numpy as np
import pytest

from stochsub import Alphabet, NonConvergence, SubstitutionRule, pf_eigenpair

from conftest import make_fibonacci, make_non_expanding, make_period_doubling

PHI = (1 + math.sqrt(5)) / 2


class TestEigenpair:
    def test_fibonacci(self):
        pair = pf_eigenpair(make_fibonacci().mean_matrix())
        assert abs(pair.value - PHI) <= 1e-9
        assert abs(pair.right[0] - 1 / PHI) <= 1e-9
        assert abs(pair.right.sum() - 1.0) <= 1e-12
        assert abs(float(pair.left @ pair.right) - 1.0) <= 1e-12

    def test_period_doubling(self):
        pair = pf_eigenpair(make_period_doubling().mean_matrix())
        assert abs(pair.value - 2.0) <= 1e-12
        assert np.allclose(pair.right, [2 / 3, 1 / 3], atol=1e-10)

    def test_non_expanding_lambda_one(self):
        pair = pf_eigenpair(make_non_expanding(Fraction(2, 7)).mean_matrix())
        assert abs(pair.value - 1.0) <= 1e-12

    def test_residual_below_tolerance(self):
        pair = pf_eigenpair(make_fibonacci().mean_matrix(), tol=1e-12)
        assert pair.residual <= 1e-12

    def test_trivial_one_by_one(self):
        pair = pf_eigenpair(np.array([[3.0]]))
        assert pair.value == 3.0 and pair.right[0] == 1.0

    def test_left_eigen_identity(self):
        mat = make_period_doubling().mean_matrix().to_float()
        pair = pf_eigenpair(mat)
        assert np.abs(pair.left @ mat - pair.value * pair.left).max() <= 1e-9

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            pf_eigenpair(np.array([[1.0, -1.0], [1.0, 1.0]]))

    def test_defective_matrix_detected(self):
        # Jordan block: power iteration converges only polynomially
        with pytest.raises((NonConvergence, ValueError)):
            pf_eigenpair(np.array([[1.0, 1.0], [0.0, 1.0]]))

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
        mat = rng.random((5, 5)) + 0.1
        pair = pf_eigenpair(mat)
        lam = max(np.linalg.eigvals(mat).real)
        assert abs(pair.value - lam) <= 1e-9
