"""Small dense linear algebra used throughout the package.

Matrices and vectors are plain float64 numpy arrays.  Everything here is a
pure function.  ``require_symmetric``, ``require_psd`` and
``solve_regularized`` check symmetry and positive-semidefiniteness with
relative tolerances (1e-12), because inputs arrive from floating-point
accumulation, never exactly.  ``solve_stack`` checks nothing but
singularity: it is the LAPACK solve that every ridge kernel runs, and the
only code in the package that calls numpy's solve gufunc directly.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

SYMMETRY_RTOL = 1e-12
PSD_RTOL = 1e-12
SOLVE_RESIDUAL_RTOL = 1e-10


def require_symmetric(m) -> np.ndarray:
    """Return m as float64, a square matrix (dim >= 1, finite) or a
    (k, d, d) stack of them; raise unless |m_ij - m_ji| <= SYMMETRY_RTOL *
    max(1, |m_ij|) for all entries."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    gap = np.abs(m - m.swapaxes(-1, -2))
    scale = np.maximum(1.0, np.abs(m))
    if (gap > SYMMETRY_RTOL * scale).any():
        raise ValueError("matrix is not symmetric within tolerance")
    return m


def require_psd(m) -> np.ndarray:
    """Raise unless the symmetric matrix m (each of a stack) is PSD up to
    the relative tolerance PSD_RTOL."""
    m = require_symmetric(m)
    eigs = np.linalg.eigvalsh(0.5 * (m + m.swapaxes(-1, -2)))
    scale = np.maximum(1.0, np.abs(eigs).max(axis=-1))
    if (eigs.min(axis=-1) < -PSD_RTOL * scale).any():
        raise ValueError("matrix is not positive semidefinite within tolerance")
    return m


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


def solve_regularized(s, lam: float, b) -> np.ndarray:
    """Solve (s + lam*I) v = b for a symmetric PSD matrix s and lam > 0.

    The shifted system is positive definite, so the solve is always
    well posed.  The result is verified to satisfy
    ||(s + lam*I) v - b|| <= 1e-10 * max(1, ||b||).  ``s`` may be a stack
    (k, d, d) with ``b`` of shape (k, d): every system is checked, and each
    solve rounds exactly as it does alone.
    """
    s = require_psd(s)
    b = np.asarray(b, dtype=np.float64)
    if b.shape != s.shape[:-1]:
        raise ValueError(f"dimension mismatch: matrix {s.shape}, vector {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError("vector contains non-finite entries")
    if not np.isfinite(lam) or lam <= 0.0:
        raise ValueError("lam must be a positive real")

    a = s + lam * np.eye(s.shape[-1])
    (v,) = solve_stack(a, b[..., None])
    r = (a @ v)[..., 0] - b
    # Squared norms: no square roots unless the check fails.
    r2, b2 = (r * r).sum(axis=-1), (b * b).sum(axis=-1)
    if (r2 > SOLVE_RESIDUAL_RTOL**2 * np.maximum(1.0, b2)).any():
        raise ArithmeticError(
            f"regularised solve residual {np.sqrt(r2.max()):.3e} exceeds tolerance"
        )
    return v[..., 0]
