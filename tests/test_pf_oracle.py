"""The PF solver against the dense numpy power iteration it replaced.

`dense_pf_eigenpair` is the solver as it ran on the dense float64 array of
the matrix (`conftest.dense_to_float`, once `RationalMatrix.to_float`),
iterated with `mat @ x` on the right and `mat.T @ x` on the left.  The
library iterates in plain Python floats on the sparse columns; its sums run
in another order, so its vectors may differ in the last bits.  On every bundled config (ell 1-4, dyck to 5), value, right and
left must agree within 1e-12 and the iteration counts must be equal.

On random small rules the same holds for almost every matrix, but not for
all: where a residual lands next to DEFAULT_TOL, the rounding decides
whether it stops there or one step later.  In 17 938 solves of the
strategy below, 6 stopped one iteration apart, and their vectors differed
by up to 7.4e-13, one step's move at the tolerance; equal counts differed
by at most 2.2e-15.  So there a count may be one off per side, with
vectors within 2 * DEFAULT_TOL.  The sparse float columns the solve
reads, `RationalMatrix.to_float`, must hold exactly the doubles of the
dense conversion.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings

from stochsub import SubstitutionRule, induced_mean_matrix, pf_eigenpair
from stochsub.spectral import (
    DEFAULT_TOL,
    MAX_ITERATIONS,
    STALL_IMPROVEMENT,
    STALL_WINDOW,
    NonConvergence,
    _columns,
)

from conftest import CONFIG_DIR, dense_to_float, scatter, small_rules

CONFIG_CASES = [(name, ell) for name in ("deterministic_fibonacci", "fibonacci",
                                         "period_doubling", "zeta")
                for ell in range(1, 5)]
CONFIG_CASES += [("dyck", ell) for ell in range(1, 6)] + [("non_expanding", 1)]


def dense_power_iterate(mat):
    """Oracle: the power iteration on a dense array, as the library ran it."""
    d = mat.shape[0]
    x = np.full(d, 1.0 / d)
    best = np.inf
    since_best = 0
    lam = 0.0
    residual = np.inf
    y = mat @ x
    for it in range(1, MAX_ITERATIONS + 1):
        norm = y.sum()
        if norm <= 0:
            raise NonConvergence("iterate collapsed to zero", np.inf)
        lam = norm
        x = y / norm
        y = mat @ x
        residual = float(np.abs(y - lam * x).sum())
        if residual <= DEFAULT_TOL:
            return lam, x, residual, it
        if best == np.inf or residual < best - STALL_IMPROVEMENT * max(best, 1.0):
            best = residual
            since_best = 0
        else:
            since_best += 1
            if since_best >= STALL_WINDOW:
                raise NonConvergence(
                    "power iteration stalled; matrix may not be primitive", residual
                )
    raise NonConvergence("power iteration did not converge", residual)


def dense_pf_eigenpair(matrix):
    """Oracle: (value, right, left, iterations) from the dense iteration."""
    mat = dense_to_float(matrix)
    lam, right, _, it_r = dense_power_iterate(mat)
    _, left_raw, _, it_l = dense_power_iterate(mat.T)
    assert right.min() > 0 and left_raw.min() > 0
    return float(lam), right, left_raw / float(left_raw @ right), it_r + it_l


def assert_matches_oracle(matrix, steps_apart=0):
    """Equal within 1e-12 and in iteration count, or within 2 * DEFAULT_TOL
    where the summed count (right and left) is up to `steps_apart` off."""
    pair = pf_eigenpair(matrix)
    value, right, left, iterations = dense_pf_eigenpair(matrix)
    off = abs(pair.iterations - iterations)
    assert off <= steps_apart
    bound = 1e-12 if off == 0 else 2 * DEFAULT_TOL
    assert abs(pair.value - value) <= bound
    assert np.abs(np.array(pair.right) - right).max() <= bound
    assert np.abs(np.array(pair.left) - left).max() <= bound


def matrix_of(name, ell):
    rule = SubstitutionRule.from_file(CONFIG_DIR / f"{name}.json")
    return rule.mean_matrix() if ell == 1 else induced_mean_matrix(rule, ell)


@pytest.mark.parametrize("name,ell", CONFIG_CASES)
def test_bundled_configs_match_dense_iteration(name, ell):
    assert_matches_oracle(matrix_of(name, ell))


@settings(max_examples=60, deadline=None)
@given(small_rules())
def test_small_rules_match_dense_iteration(rule):
    assume(rule.is_primitive()[0])
    assert_matches_oracle(rule.mean_matrix(), steps_apart=2)
    if rule.is_expanding():
        for ell in (2, 3):
            assert_matches_oracle(induced_mean_matrix(rule, ell), steps_apart=2)


@pytest.mark.parametrize("name,ell", CONFIG_CASES)
def test_float_columns_are_to_float(name, ell):
    matrix = matrix_of(name, ell)
    dense = scatter(_columns(matrix), matrix.size)
    assert dense.tobytes() == dense_to_float(matrix).tobytes()
