"""Reference implementations that the tests check the library against.

None of these runs in an experiment.  The moment-to-tail device is the
generic form of the two closed-form PAC bounds of ``stabilab.bounds``:
if E|X|^q <= c (sum_i lam_i q^{alpha_i})^q for all q >= q0, then for
every x > 0

    P[ |X| > sum_i lam_i (e*x/min_j alpha_j)^{alpha_i} ]
        <= c * exp(q0 * min_j alpha_j) * exp(-x).

``bounded_tail_spec`` and ``subgaussian_tail_spec`` build the one- and
two-term specs whose thresholds ``pac_bound_bounded`` and
``pac_bound_subgaussian`` must reproduce.  ``ridge_objective`` is the
objective whose minimiser ``ridge_fit`` must return.

``naive_ridge_loo`` and ``naive_knn_loo`` are the leave-one-out risks by
n full refits, squared cost for ridge and 0-1 cost for kNN, that the
rank-one downdate and the stacked kNN flips must reproduce;
``predict`` and ``knn_classify`` are the ridge and kNN predictions they
refit.  Each refuses an input outside its definition (n < 2 for ridge,
k outside 1..n-1 or labels outside {0, 1} for kNN) rather than return a
number that checks nothing.

``finite_support`` and ``multiset_samples`` make an expectation over
n-point samples of a finite law, such as ``FINITE_LAW``, an exact weighted
sum: a statistic that depends on a sample only through its multiset (a
ridge fit, its leave-one-out risk) takes one value per multiset, weighted
by its multinomial probability.  ``exact_ridge_stability`` is such a sum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from stabilab.bounds import GammaSet
from stabilab.datagen import DataSpec, Dataset, leave_one_out
from stabilab.learners import (
    neighbor_order,
    ridge_fit,
    ridge_fit_stacked,
    ridge_loo_betas_stacked,
)

# Sign-pattern features and 0/1 labels at d = 2: a law with 8 support points.
FINITE_LAW = DataSpec(d=2, x_family="rademacher_coords", b_x=1.0, y_model="bernoulli_label",
                      beta_star=(0.2, 0.1), noise_scale=0.5, b_y=1.0)


@dataclass(frozen=True)
class TailSpec:
    """Parameters of a polynomial-in-q moment envelope: prefactor c, starting
    order q0, and terms (lam_i, alpha_i)."""

    c: float
    q0: float
    terms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "terms", tuple((float(a), float(b)) for a, b in self.terms)
        )
        if not self.terms:
            raise ValueError("terms must be nonempty")
        if not (self.c > 0 and math.isfinite(self.c)):
            raise ValueError("c must be a positive real")
        if self.q0 < 1.0:
            raise ValueError("q0 must be >= 1")
        for lam_i, alpha_i in self.terms:
            if not (lam_i > 0 and math.isfinite(lam_i)):
                raise ValueError("every lam_i must be a positive real")
            if not (alpha_i > 0 and math.isfinite(alpha_i)):
                raise ValueError("every alpha_i must be a positive real")

    @property
    def min_alpha(self) -> float:
        return min(alpha for _, alpha in self.terms)


def tail_threshold(spec: TailSpec, x: float) -> float:
    """Deviation level sum_i lam_i (e*x/min_alpha)^{alpha_i} at tail level x."""
    if x <= 0:
        raise ValueError("x must be positive")
    base = math.e * x / spec.min_alpha
    return sum(lam_i * base**alpha_i for lam_i, alpha_i in spec.terms)


def tail_prob_bound(spec: TailSpec, x: float) -> float:
    """Failure probability c * exp(q0 * min_alpha) * exp(-x)."""
    if x <= 0:
        raise ValueError("x must be positive")
    return spec.c * math.exp(spec.q0 * spec.min_alpha) * math.exp(-x)


def bounded_tail_spec(gammas: GammaSet, b_y: float, n: int) -> TailSpec:
    """One-term spec whose threshold reproduces the bounded-label PAC bound."""
    return TailSpec(
        c=1.0, q0=2.0, terms=((b_y**2 * gammas.total / math.sqrt(n), 0.5),)
    )


def subgaussian_tail_spec(
    gammas: GammaSet, mean_y: float, v: float, n: int
) -> TailSpec:
    """Two-term spec whose threshold reproduces the sub-Gaussian PAC bound.

    The term coefficients are the polynomial-in-q moment coefficients
    2*G*(EY)^2/sqrt(n) and 16*e^2*G*v/sqrt(n); the (2e)^alpha factors of
    the final M1/M2 constants appear when the threshold is evaluated.
    """
    lam1 = 2.0 * gammas.total * mean_y**2 / math.sqrt(n)
    lam2 = 16.0 * math.e**2 * gammas.total * v / math.sqrt(n)
    return TailSpec(c=1.0, q0=2.0, terms=((lam1, 0.5), (lam2, 1.5)))


def ridge_objective(data: Dataset, lam: float, beta) -> float:
    """The (1/n)-normalised ridge objective at an arbitrary coefficient vector."""
    beta = np.asarray(beta, dtype=np.float64)
    residuals = data.ys - data.xs @ beta
    return float(np.mean(residuals**2) + lam * float(beta @ beta))


def predict(beta: np.ndarray, x) -> float:
    """Inner product of the fitted coefficients with x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != beta.shape:
        raise ValueError(f"dimension mismatch: beta {beta.shape}, x {x.shape}")
    return float(beta @ x)


def knn_classify(data: Dataset, k: int, x) -> float:
    """Majority vote of the k nearest labels; boundary (sum == k/2) goes to 1."""
    if not 1 <= k <= data.n - 1:
        raise ValueError(f"k={k} out of range 1..{data.n - 1}")
    if not np.all((data.ys == 0.0) | (data.ys == 1.0)):
        raise ValueError("kNN requires labels in {0, 1}")
    vote = float(np.sum(data.ys[neighbor_order(data, x)[:k]]))
    return 1.0 if vote >= k / 2.0 else 0.0


def naive_ridge_loo(data: Dataset, lam: float) -> float:
    """Mean squared error at each point of the ridge refit without it."""
    if data.n < 2:
        raise ValueError("ridge leave-one-out needs n >= 2")
    total = 0.0
    for j in range(1, data.n + 1):
        beta = ridge_fit(leave_one_out(data, j), lam)
        total += (predict(beta, data.xs[j - 1]) - float(data.ys[j - 1])) ** 2
    return total / data.n


def naive_knn_loo(data: Dataset, k: int) -> float:
    """Fraction of points that the kNN vote without them misclassifies."""
    wrong = sum(
        knn_classify(leave_one_out(data, j), k, data.xs[j - 1]) != data.ys[j - 1]
        for j in range(1, data.n + 1)
    )
    return wrong / data.n


def finite_support(spec: DataSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2^d * 2 points of a rademacher_coords / bernoulli_label law as
    xs (k, d), ys (k,) and their probabilities (k,), which sum to 1."""
    if spec.x_family != "rademacher_coords" or spec.y_model != "bernoulli_label":
        raise ValueError("finite_support needs rademacher_coords features and bernoulli_label")
    d = spec.d
    bits = (np.arange(2**d)[:, None] >> np.arange(d)[None, :]) & 1
    signs = (2.0 * bits - 1.0) * (spec.b_x / math.sqrt(d))
    p_one = np.clip(signs @ np.asarray(spec.beta_star) + spec.noise_scale, 0.0, 1.0)
    xs = np.concatenate([signs, signs])
    ys = np.concatenate([np.zeros(2**d), np.ones(2**d)])
    probs = np.concatenate([1.0 - p_one, p_one]) / 2**d
    return xs, ys, probs


def multiset_samples(
    xs: np.ndarray, ys: np.ndarray, probs: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every n-point multiset of the k support points, stacked as
    xs (m, n, d) and ys (m, n) with m = C(n + k - 1, n), and the probability
    (m,) that an i.i.d. n-point sample has that multiset: the multinomial
    coefficient n! / prod c_i! times prod probs_i^c_i."""
    k = len(probs)
    idx = np.array(list(itertools.combinations_with_replacement(range(k), n)))
    counts = (idx[..., None] == np.arange(k)).sum(axis=1)
    factorial = np.array([math.factorial(c) for c in range(n + 1)], dtype=np.float64)
    weights = factorial[n] / np.prod(factorial[counts], axis=1) * np.prod(probs**counts, axis=1)
    return xs[idx], ys[idx], weights


def exact_ridge_stability(spec: DataSpec, lam: float, n: int, qs) -> dict[float, float]:
    """{q: s_q} of ridge with squared cost on a finite law, exactly: the q-th
    root of E[mean_j |c(beta, Z) - c(beta^(-j), Z)|^q] over every n-point
    multiset and every support point Z, the quantity that
    ``stability_profile`` estimates."""
    support_xs, support_ys, probs = finite_support(spec)
    xs, ys, weights = multiset_samples(support_xs, support_ys, probs, n)

    def costs(betas):
        return (betas @ support_xs.T - support_ys) ** 2

    full = costs(ridge_fit_stacked(xs, ys, lam))
    diffs = np.abs(full[:, None, :] - costs(ridge_loo_betas_stacked(xs, ys, lam)))
    return {q: float(weights @ (diffs**q).mean(axis=1) @ probs) ** (1.0 / q) for q in qs}
