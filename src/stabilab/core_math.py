"""Small dense linear algebra used throughout the package.

Matrices and vectors are plain float64 numpy arrays.  Everything here is a
pure function, and nothing here checks its matrices: ``solve_stack`` is the
LAPACK solve that every ridge kernel runs, and the only code in the package
that calls numpy's solve gufunc directly; ``solve_regularized`` shifts a
symmetric PSD matrix by lam*I and solves with it.  The learners build
their inputs from samples that were drawn or checked at the API boundary.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg


def solve_stack(a: np.ndarray, *bs: np.ndarray) -> tuple[np.ndarray, ...]:
    """What ``numpy.linalg.solve(a, b)`` returns for each float64 right-hand
    side b of shape (..., d, k), bit for bit, without its per-call Python
    wrapper.

    ``a`` is a float64 (..., d, d) stack; nothing about it is checked.  The
    gufunc is the one ``numpy.linalg.solve`` dispatches to for such b, so the
    LAPACK ``gesv`` call and its rounding are the same.  An exactly
    singular system raises ``FloatingPointError`` (an ``ArithmeticError``)
    instead of ``LinAlgError``.
    """
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        return tuple([_umath_linalg.solve(a, b, signature="dd->d") for b in bs])


def solve_regularized(s: np.ndarray, lam: float, b: np.ndarray) -> np.ndarray:
    """Solve (s + lam*I) v = b for a float64 symmetric PSD matrix s (d, d)
    and b (d,), or a stack s (k, d, d) and b (k, d); each solve rounds
    exactly as it does alone.

    Only lam is checked: it must be a positive real, so that the shifted
    system is positive definite.  s and b are trusted as they are.
    """
    if not np.isfinite(lam) or lam <= 0.0:
        raise ValueError("lam must be a positive real")
    return solve_stack(s + lam * np.eye(s.shape[-1]), b[..., None])[0][..., 0]
