import hashlib
import math
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
    make_fibonacci,
    make_non_expanding,
    make_period_doubling,
)

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
        pair = pf_eigenpair(make_fibonacci().mean_matrix())
        assert pair.residual <= 1e-12

    def test_trivial_one_by_one(self):
        pair = pf_eigenpair(np.array([[3.0]]))
        assert pair.value == 3.0 and pair.right[0] == 1.0
        # power iteration, no special case: each side converges in one step
        assert pair.left.tolist() == [1.0] and pair.residual == 0.0
        assert pair.iterations == 2

    def test_zero_one_by_one_collapses(self):
        with pytest.raises(NonConvergence, match="collapsed to zero"):
            pf_eigenpair(np.array([[0.0]]))

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

    def test_periodic_matrix_stalls(self):
        # imprimitive: the iterates alternate and the residual stays at 0.5
        with pytest.raises(NonConvergence, match="stalled") as exc:
            pf_eigenpair(np.array([[0.0, 2.0], [1.0, 0.0]]))
        assert exc.value.residual == 0.5

    def test_reducible_matrix_non_positive_component(self):
        # converges at once, to an eigenvector with a zero component
        with pytest.raises(ValueError, match="non-positive component"):
            pf_eigenpair(np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("matrix", [
        np.zeros((0, 0)), [[np.inf]], [[np.nan]], [[1.0, np.nan], [1.0, 1.0]],
    ], ids=["empty", "inf", "nan", "nan-entry"])
    def test_rejects_empty_and_non_finite(self, matrix):
        with pytest.raises(ValueError,
                           match="^matrix must be nonempty with finite "
                                 "nonnegative entries$"):
            pf_eigenpair(matrix)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            pf_eigenpair(np.ones((1, 3)))

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


# sha256 of right.tobytes() + left.tobytes() and the summed iteration count,
# recorded when the power iteration still computed the residual's product
# separately from the next iterate's; reusing it must change no bit
@pytest.mark.parametrize("name,ell,digest,iterations", [
    ("period_doubling", 9,
     "39bd4d80807699669609ac68c65fa608d91666df488c652b0bdd9c31485b69cf", 43),
    ("dyck", 5,
     "45ecbd70f0963a28e6e3a7c15362b687730612109fa9fa5b7d8dea9b5a403eaf", 34),
])
def test_induced_eigenpair_pinned(name, ell, digest, iterations):
    rule = SubstitutionRule.from_file(CONFIG_DIR / f"{name}.json")
    pair = pf_eigenpair(induced_mean_matrix(rule, ell))
    assert hashlib.sha256(pair.right.tobytes() + pair.left.tobytes()).hexdigest() \
        == digest
    assert pair.iterations == iterations
