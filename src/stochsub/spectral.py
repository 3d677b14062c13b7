"""Perron-Frobenius eigenpairs of nonnegative primitive matrices.

Power iteration is all that is needed here: every matrix we solve is
primitive and nonnegative, hence has a simple dominant eigenvalue with a
spectral gap.  The normalisation follows the convention used throughout:
the right eigenvector has L1 norm 1 and the left eigenvector is scaled so
that left . right = 1.

The input is a `RationalMatrix`, whose constructor is the one shape check.
The iteration runs in plain Python floats on its sparse float columns,
`RationalMatrix.to_float` (each nonzero x as x / denominator), so no dense
n x n array is built and numpy is never imported.  The right step A.x
scatters each column; the left step w^T A takes one dot product per column.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Callable, NamedTuple

from .substitution import RationalMatrix

DEFAULT_TOL = 1e-12
MAX_ITERATIONS = 100_000
STALL_WINDOW = 100
STALL_IMPROVEMENT = 1e-16


class NonConvergence(RuntimeError):
    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class PFEigenpair(NamedTuple):
    """Dominant eigenvalue with L1-normalised right and dual left vector,
    each a tuple of floats."""

    value: float
    right: tuple[float, ...]
    left: tuple[float, ...]
    residual: float
    iterations: int


def _columns(matrix: RationalMatrix) -> list[tuple[list[int], list[float]]]:
    """The matrix's sparse float columns (`RationalMatrix.to_float`);
    ValueError unless nonempty with finite nonnegative entries."""
    if not isinstance(matrix, RationalMatrix):
        raise TypeError(f"pf_eigenpair takes a RationalMatrix, got {type(matrix).__name__}")
    columns = matrix.to_float()
    if not columns or not all(0 <= x < math.inf for _, values in columns for x in values):
        raise ValueError("matrix must be nonempty with finite nonnegative entries")
    return columns


def _power_iterate(step: Callable[[list[float]], list[float]],
                   d: int) -> tuple[float, list[float], float, int]:
    x = [1.0 / d] * d
    best = math.inf
    since_best = 0
    lam = 0.0
    residual = math.inf
    y = step(x)
    for it in range(1, MAX_ITERATIONS + 1):
        norm = sum(y)  # L1 norm: the iterates stay nonnegative
        if norm <= 0:
            raise NonConvergence("iterate collapsed to zero", math.inf)
        lam = norm
        x = [v / norm for v in y]
        y = step(x)  # the residual's product is the next iterate
        residual = sum(abs(a - lam * b) for a, b in zip(y, x))
        if residual <= DEFAULT_TOL:
            return lam, x, residual, it
        # the first residual always counts as progress: inf - inf is nan
        if best == math.inf or residual < best - STALL_IMPROVEMENT * max(best, 1.0):
            best = residual
            since_best = 0
        else:
            since_best += 1
            if since_best >= STALL_WINDOW:
                raise NonConvergence(
                    "power iteration stalled; matrix may not be primitive", residual
                )
    raise NonConvergence("power iteration did not converge", residual)


def pf_eigenpair(matrix: RationalMatrix) -> PFEigenpair:
    """PF eigenvalue and eigenvectors of a primitive `RationalMatrix`.

    Raises TypeError for any other argument, ValueError for an empty matrix,
    a non-finite or negative entry, or a non-positive eigenvector component
    (a primitivity violation in the input), and NonConvergence if the
    residual target DEFAULT_TOL cannot be met or an iterate collapses to
    zero (as for [[0]]).
    """
    columns = _columns(matrix)
    d = len(columns)

    def times_right(x: list[float]) -> list[float]:  # A x, column by column
        y = [0.0] * d
        for (rows, values), xj in zip(columns, x):
            for i, v in zip(rows, values):
                y[i] += v * xj
        return y

    def times_left(w: list[float]) -> list[float]:  # w^T A, one dot per column
        get = w.__getitem__
        return [sum(map(mul, values, map(get, rows))) for rows, values in columns]

    lam, right, res_r, it_r = _power_iterate(times_right, d)
    _, left_raw, res_l, it_l = _power_iterate(times_left, d)
    if min(right) <= 0 or min(left_raw) <= 0:
        raise ValueError(
            "PF eigenvector has a non-positive component; matrix is not primitive"
        )
    scale = sum(map(mul, left_raw, right))
    return PFEigenpair(
        value=lam,
        right=tuple(right),
        left=tuple(v / scale for v in left_raw),
        residual=max(res_r, res_l),
        iterations=it_r + it_l,
    )
