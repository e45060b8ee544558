"""Small dense linear algebra used throughout the package.

Matrices and vectors are plain float64 numpy arrays.  Everything here is a
pure function; symmetry and positive-semidefiniteness are checked with
relative tolerances (1e-12) because inputs arrive from floating-point
accumulation, never exactly.

Also provides executable forms of two matrix identities (an inverse-
difference factorisation and the operator-norm bound for regularised
PSD inverses) that the test suite exercises as properties.
"""

from __future__ import annotations

import numpy as np

SYMMETRY_RTOL = 1e-12
PSD_RTOL = 1e-12
SOLVE_RESIDUAL_RTOL = 1e-10

# Inverses are treated as numerically singular past this condition estimate.
MAX_CONDITION = 1e14


def as_square_matrix(m, stack: bool = False) -> np.ndarray:
    """Validate and return a square 2-d float64 matrix (dim >= 1, finite),
    or with ``stack`` a 3-d stack (k, d, d) of them."""
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2 + stack or arr.shape[-1] != arr.shape[-2] or arr.shape[-1] < 1:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix contains non-finite entries")
    return arr


def require_symmetric(m: np.ndarray, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Raise unless |m_ij - m_ji| <= rtol * max(1, |m_ij|) for all entries
    of m, a square matrix or a (k, d, d) stack of them."""
    m = as_square_matrix(m, stack=np.ndim(m) == 3)
    gap = np.abs(m - m.swapaxes(-1, -2))
    scale = np.maximum(1.0, np.abs(m))
    if (gap > rtol * scale).any():
        raise ValueError("matrix is not symmetric within tolerance")
    return m


def require_psd(m: np.ndarray, rtol: float = PSD_RTOL) -> np.ndarray:
    """Raise unless the symmetric matrix m (each of a stack) is PSD up to a
    relative tolerance."""
    m = require_symmetric(m)
    eigs = np.linalg.eigvalsh(0.5 * (m + m.swapaxes(-1, -2)))
    scale = np.maximum(1.0, np.abs(eigs).max(axis=-1))
    if (eigs.min(axis=-1) < -rtol * scale).any():
        raise ValueError("matrix is not positive semidefinite within tolerance")
    return m


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
    v = np.linalg.solve(a, b[..., None])
    r = (a @ v)[..., 0] - b
    # Squared norms: no square roots unless the check fails.
    r2, b2 = (r * r).sum(axis=-1), (b * b).sum(axis=-1)
    if (r2 > SOLVE_RESIDUAL_RTOL**2 * np.maximum(1.0, b2)).any():
        raise ArithmeticError(
            f"regularised solve residual {np.sqrt(r2.max()):.3e} exceeds tolerance"
        )
    return v[..., 0]


def operator_norm(m, rtol: float = 1e-8, max_iters: int = 500) -> float:
    """Largest singular value of m via power iteration on m.T @ m.

    Uses a fixed all-ones start vector (normalised) so repeated calls are
    bit-reproducible.  Iterates until successive estimates agree below
    1e-12 relative or max_iters is hit; if the iterate collapses into the
    null space, restarts deterministically from basis vectors.
    """
    m = as_square_matrix(m)
    d = m.shape[0]
    gram = m.T @ m

    def iterate(v0: np.ndarray) -> float | None:
        v = v0 / np.linalg.norm(v0)
        est = 0.0
        for _ in range(max_iters):
            w = gram @ v
            norm_w = float(np.linalg.norm(w))
            if norm_w == 0.0:
                return None  # v is in the null space of gram
            new_est = float(v @ w)
            v = w / norm_w
            if abs(new_est - est) <= 1e-12 * max(1.0, abs(new_est)):
                est = new_est
                break
            est = new_est
        return float(np.sqrt(max(est, 0.0)))

    result = iterate(np.ones(d))
    if result is None:
        # All-ones start happened to lie in the null space; try basis vectors.
        best = 0.0
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1.0
            r = iterate(e)
            if r is not None:
                best = max(best, r)
        return best
    return result


def _require_invertible(m: np.ndarray, name: str) -> np.ndarray:
    cond = float(np.linalg.cond(m))
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise ValueError(f"{name} is singular within tolerance (cond ~ {cond:.3e})")
    return np.linalg.inv(m)


def harville_residual(a, b) -> float:
    """Operator-norm residual of the inverse-difference factorisation.

    For invertible a and a + b (with I + b a^-1 invertible too), the
    identity  a^-1 - (a+b)^-1 = a^-1 b a^-1 (I + b a^-1)^-1  holds
    exactly; this returns ||LHS - RHS||_op, which should be ~0 (<= 1e-8
    for well-conditioned inputs).
    """
    a = as_square_matrix(a)
    b = as_square_matrix(b)
    if a.shape != b.shape:
        raise ValueError("a and b must share dimensions")
    d = a.shape[0]

    a_inv = _require_invertible(a, "a")
    apb_inv = _require_invertible(a + b, "a + b")
    middle = np.eye(d) + b @ a_inv
    middle_inv = _require_invertible(middle, "I + b a^-1")

    lhs = a_inv - apb_inv
    rhs = a_inv @ b @ a_inv @ middle_inv
    return operator_norm(lhs - rhs)
