"""The two learning algorithms under study plus their risk estimators.

Ridge regression is fit in closed form from the objective

    (1/n) sum_i (y_i - <x_i, beta>)^2 + lam * ||beta||^2,

whose minimiser solves (X'X + n*lam*I) beta = X'y.  Because of the 1/n
factor, refitting on a leave-one-out sample of size n-1 uses the
regulariser (n-1)*lam; both the naive and the accelerated leave-one-out
paths honour this normalisation.

The kNN classifier votes over the k nearest training points in Euclidean
distance, with distance ties broken by lowest index, and classifies the
boundary case (label sum exactly k/2) as 1.

Every ridge leave-one-out shortcut runs one rank-one downdate
(``_loo_downdate_stacked``): with A = X'X + (n-1)*lam*I, g = A^-1 X'y and
s_j = x_j' A^-1 x_j, the held-out residual is (y_j - x_j'g) / (1 - s_j).
Its two solves, like ``ridge_fit_stacked``'s, run through
``core_math.solve_stack``, the LAPACK solve of ``numpy.linalg.solve``
without that function's per-call Python wrapper, which cost more than the
solve itself on the small systems of a swap.
``_ridge_loo_sq_residuals_stacked`` turns it into the squared held-out
residuals of a stack, whose row sums are the leave-one-out risks, and
``ridge_loo_fast`` runs it on a stack of one;
``ridge_loo_betas_stacked`` turns it into the leave-one-out coefficients
of a stack, and ``_ridge_loo_betas`` runs it on a stack of one.  Where
some s_j >= L / (L + 1), with L = ``DOWNDATE_CONDITION_LIMIT``, or is NaN,
the downdate is numerically singular and it raises ``ArithmeticError``:
by Sherman-Morrison 1 - s_j >= (n-1)*lam / ((n-1)*lam + ||x_j||^2), which
exceeds 1/2 on the paper's domain.

The ``*_stacked`` kernels take a stack of equally sized samples, xs of
shape (m, n, d), and round every sample as its per-dataset twin does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_math import solve_regularized, solve_stack
from .datagen import (
    DataSpec,
    Dataset,
    SeedSpec,
    _as_float,
    _as_integer,
    leave_one_out,
    sample_dataset,
)

# 1/(1-s_j) beyond this means the downdated system is numerically singular.
DOWNDATE_CONDITION_LIMIT = 1e12
# For s_j >= 0, 1 - s_j <= s_j / L is s_j >= L / (L + 1); for s_j < 0 neither fires.
_SINGULAR_S = DOWNDATE_CONDITION_LIMIT / (DOWNDATE_CONDITION_LIMIT + 1.0)


@dataclass(frozen=True)
class RidgeAlgorithm:
    """Algorithm selector: ridge regression at a fixed lam."""

    lam: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", _as_float(self.lam, "lam"))
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError("lam must be a positive real")


@dataclass(frozen=True)
class KnnAlgorithm:
    """Algorithm selector: kNN classification at a fixed k."""

    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _as_integer(self.k, "k"))
        if self.k < 1:
            raise ValueError("k must be >= 1")


def ridge_fit_stacked(xs: np.ndarray, ys: np.ndarray, lam: float) -> np.ndarray:
    """Ridge coefficients (m, d) of each sample of a stack xs (m, n, d),
    ys (m, n); every row rounds as the fit of its sample alone."""
    xt = xs.swapaxes(1, 2)
    n = xs.shape[1]
    return solve_regularized(xt @ xs / n, lam, (xt @ ys[..., None])[..., 0] / n)


def ridge_fit(data: Dataset, lam: float) -> np.ndarray:
    """Closed-form ridge coefficients, shape (d,); symmetric in the
    training points."""
    return ridge_fit_stacked(data.xs[None], data.ys[None], lam)[0]


def predict(beta: np.ndarray, x) -> float:
    """Inner product of the fitted coefficients with x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != beta.shape:
        raise ValueError(f"dimension mismatch: beta {beta.shape}, x {x.shape}")
    return float(beta @ x)


def neighbor_order(data: Dataset, x) -> np.ndarray:
    """Training indices sorted by distance to x, ties broken by lowest index."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (data.d,):
        raise ValueError(f"query point must have shape ({data.d},)")
    dists = np.linalg.norm(data.xs - x[None, :], axis=1)
    return np.argsort(dists, kind="stable")


def knn_loo_flips_stacked(xs: np.ndarray, ys: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """1.0 where removing training point j flips the kNN vote at the query
    x[r], else 0.0, for each sample of a stack xs (m, n, d), ys (m, n)
    with labels in {0, 1} and n >= k + 2; shape (m, n).

    Only the k nearest points can flip the vote: each is replaced by the
    (k+1)-th nearest.  Votes are small integers, so every sum is exact.
    """
    dists = np.linalg.norm(xs - x[:, None, :], axis=2)
    order = np.argsort(dists, axis=1, kind="stable")
    nearest = order[:, :k]
    labels = np.take_along_axis(ys, nearest, axis=1)
    vote = labels.sum(axis=1, keepdims=True)
    next_label = np.take_along_axis(ys, order[:, k:k + 1], axis=1)
    flipped = (vote >= k / 2.0) != (vote - labels + next_label >= k / 2.0)
    flips = np.zeros(ys.shape)
    np.put_along_axis(flips, nearest, flipped, axis=1)
    return flips


def knn_classify(data: Dataset, algorithm: KnnAlgorithm, x) -> float:
    """Majority vote of the k nearest labels; boundary (sum == k/2) goes to 1."""
    k = algorithm.k
    if not 1 <= k <= data.n - 1:
        raise ValueError(f"k={k} out of range 1..{data.n - 1}")
    if not np.all((data.ys == 0.0) | (data.ys == 1.0)):
        raise ValueError("kNN requires labels in {0, 1}")
    order = neighbor_order(data, x)
    vote = float(np.sum(data.ys[order[:k]]))
    return 1.0 if vote >= k / 2.0 else 0.0


def _loo_downdate_stacked(xs: np.ndarray, ys: np.ndarray, lam: float):
    """The rank-one leave-one-out downdate of each sample of a stack
    xs (m, n, d), ys (m, n).

    With A = X'X + (n-1)*lam*I per sample returns g = A^-1 X'y (m, d, 1),
    w (m, d, n) with columns A^-1 x_j, s_j = x_j' A^-1 x_j and 1 - s_j.
    Raises ``ArithmeticError`` where some s_j is NaN or so close to 1 that
    the downdate cannot be trusted.
    """
    n, d = xs.shape[1:]
    if n < 2:
        raise ValueError("leave-one-out needs n >= 2")
    xt = xs.swapaxes(1, 2)
    a = xt @ xs
    # The diagonal through a strided view of the fresh (C-contiguous)
    # product: cheaper per call than a fancy-indexed add.
    a.reshape(-1, d * d)[:, :: d + 1] += (n - 1) * lam
    # Two solves, X'y first, on purpose: g = w @ ys, or one solve with the
    # stacked right-hand side [X'y | X'], rounds g differently, and the
    # constant ridge statistic of a d = 1, y = x sample shows those last
    # bits in its Efron-Stein lhs, which is checked at 1e-12 relative.
    g, w = solve_stack(a, xt @ ys[..., None], xt)
    s = np.einsum("rij,rji->ri", xs, w)
    # One reduction over the stack; a NaN s_j fails the comparison and raises
    # too, and the initial 0 lets an empty stack through.
    if not s.max(initial=0.0) < _SINGULAR_S:
        raise ArithmeticError(f"leave-one-out downdate is numerically singular at lam = {lam}:"
                              " (n-1)*lam is negligible against some ||x_j||^2")
    return g, w, s, 1.0 - s


def ridge_loo_betas_stacked(xs: np.ndarray, ys: np.ndarray, lam: float) -> np.ndarray:
    """Rank-one-downdate leave-one-out coefficients of a stack of samples:
    for xs (m, n, d), ys (m, n), betas (m, n, d) with betas[r, j] the refit
    of sample r without point j."""
    g, w, s, one_minus_s = _loo_downdate_stacked(xs, ys, lam)
    scale = ((xs @ g)[..., 0] - ys * s) / one_minus_s
    wt = w.swapaxes(1, 2)
    return g.swapaxes(1, 2) - ys[..., None] * wt + scale[..., None] * wt


def _ridge_loo_betas(data: Dataset, lam: float) -> np.ndarray:
    """All n leave-one-out coefficient vectors, betas[j] = refit without point j.

    C-ordered, so a row's dot product rounds as that of the coefficients
    ridge_fit returns.
    """
    return np.ascontiguousarray(ridge_loo_betas_stacked(data.xs[None], data.ys[None], lam)[0])


def loo_estimate(algorithm, data: Dataset) -> float:
    """Leave-one-out risk: average cost at each point of the model refit
    on the sample without it, squared error for ridge and 0-1 loss for
    kNN.  Naive implementation (n full refits)."""
    n = data.n
    if isinstance(algorithm, RidgeAlgorithm):
        if n < 2:
            raise ValueError("ridge leave-one-out needs n >= 2")
        total = 0.0
        for j in range(1, n + 1):
            beta = ridge_fit(leave_one_out(data, j), algorithm.lam)
            y_hat = predict(beta, data.xs[j - 1])
            y = float(data.ys[j - 1])
            total += float((y_hat - y) ** 2)
        return total / n
    if isinstance(algorithm, KnnAlgorithm):
        if n < algorithm.k + 2:
            raise ValueError("kNN leave-one-out needs n >= k + 2")
        total = 0.0
        for j in range(1, n + 1):
            y_hat = knn_classify(leave_one_out(data, j), algorithm, data.xs[j - 1])
            y = float(data.ys[j - 1])
            total += float(y_hat != y)
        return total / n
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _ridge_loo_sq_residuals_stacked(xs: np.ndarray, ys: np.ndarray, lam: float) -> np.ndarray:
    """Squared shortcut residuals ((y_j - x_j'g) / (1 - s_j))^2, shape (m, n),
    of each sample of a stack xs (m, n, d), ys (m, n); a row's sum over n
    is the sample's leave-one-out risk."""
    g, _, _, one_minus_s = _loo_downdate_stacked(xs, ys, lam)
    r = ys - (xs @ g)[..., 0]
    r /= one_minus_s
    r *= r
    return r


def ridge_loo_fast(data: Dataset, lam: float) -> float:
    """Rank-one-downdate leave-one-out risk for ridge with squared cost.

    Equals loo_estimate(RidgeAlgorithm(lam), data), from the shortcut
    residuals (y_j - x_j'g)/(1 - s_j).
    """
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError("lam must be a positive real")
    sq = _ridge_loo_sq_residuals_stacked(data.xs[None], data.ys[None], lam)[0]
    return float(sq.sum() / data.n)


def prediction_error_mc(
    beta: np.ndarray, spec: DataSpec, m: int, seed: SeedSpec
) -> tuple[float, float]:
    """``(estimate, std_error)``: the Monte Carlo squared prediction error
    of the ridge coefficients beta on m fresh draws from spec, with its
    standard error; deterministic given the seed."""
    if m < 2:
        raise ValueError("m must be >= 2")
    test = sample_dataset(spec, m, seed)
    costs = test.xs @ beta
    costs -= test.ys
    costs *= costs
    # np.mean and np.std(ddof=1) run these reductions, in this order.
    est = costs.sum() / m
    costs -= est
    costs *= costs
    se = math.sqrt(costs.sum() / (m - 1)) / math.sqrt(m)
    return float(est), se
