"""Perron-Frobenius eigenpairs of nonnegative primitive matrices.

Power iteration is all that is needed here: every matrix we solve is
primitive and nonnegative, hence has a simple dominant eigenvalue with a
spectral gap.  The normalisation follows the convention used throughout:
the right eigenvector has L1 norm 1 and the left eigenvector is scaled so
that left . right = 1.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .substitution import RationalMatrix

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOL = 1e-12
MAX_ITERATIONS = 100_000
STALL_WINDOW = 100
STALL_IMPROVEMENT = 1e-16


class NonConvergence(RuntimeError):
    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class PFEigenpair(NamedTuple):
    """Dominant eigenvalue with L1-normalised right and dual left vector."""

    value: float
    right: np.ndarray
    left: np.ndarray
    residual: float
    iterations: int


def _as_array(matrix) -> np.ndarray:
    import numpy as np

    if isinstance(matrix, RationalMatrix):
        arr = matrix.to_float()
    else:
        arr = np.asarray(matrix, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("matrix must be square")
    if arr.size == 0 or not (np.isfinite(arr).all() and (arr >= 0).all()):
        raise ValueError("matrix must be nonempty with finite nonnegative entries")
    return arr


def _power_iterate(mat: np.ndarray) -> tuple[float, np.ndarray, float, int]:
    import numpy as np

    d = mat.shape[0]
    x = np.full(d, 1.0 / d)
    best = np.inf
    since_best = 0
    lam = 0.0
    residual = np.inf
    y = mat @ x
    for it in range(1, MAX_ITERATIONS + 1):
        norm = y.sum()  # L1 norm: the iterates stay nonnegative
        if norm <= 0:
            raise NonConvergence("iterate collapsed to zero", np.inf)
        lam = norm
        x = y / norm
        y = mat @ x  # the residual's product is the next iterate
        residual = float(np.abs(y - lam * x).sum())
        if residual <= DEFAULT_TOL:
            return lam, x, residual, it
        # the first residual always counts as progress: inf - inf is nan
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


def pf_eigenpair(matrix) -> PFEigenpair:
    """PF eigenvalue and eigenvectors of a primitive nonnegative matrix.

    Raises ValueError for an empty matrix, a non-finite or negative entry, or
    a non-positive eigenvector component (a primitivity violation in the
    input), and NonConvergence if the residual target DEFAULT_TOL cannot be
    met or an iterate collapses to zero (as for [[0]]).
    """
    mat = _as_array(matrix)
    lam, right, res_r, it_r = _power_iterate(mat)
    _, left_raw, res_l, it_l = _power_iterate(mat.T)
    if right.min() <= 0 or left_raw.min() <= 0:
        raise ValueError(
            "PF eigenvector has a non-positive component; matrix is not primitive"
        )
    left = left_raw / float(left_raw @ right)
    return PFEigenpair(
        value=float(lam),
        right=right,
        left=left,
        residual=max(res_r, res_l),
        iterations=it_r + it_l,
    )
