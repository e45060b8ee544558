"""Empirical L^q stability estimation and closed-form stability coefficients.

The empirical estimator draws, per replication, a training sample D of
size n and an independent test point (X, Y), fits the algorithm on D and
on the sample with point j removed, and averages the q-th power of the
absolute cost difference, averaged over every j; the q-th root of the
grand mean is the estimate.  Averaging over j is valid because the
population quantity does not depend on j for symmetric algorithms, and
it cuts variance.  The cost is the squared error for ridge and the 0-1
disagreement for kNN.

Closed forms:

* ridge, squared cost, bounded features (q >= 1):
    gamma_q = 2 ||Y||_{2q}^2 (b_x^2/(n lam))
              (1 + (b_x^2+lam)/(lam(1-eta))) (1 + b_x^2/lam)
  valid on the domain  n*eta > 1,  lam > b_x^2/(n*eta - 1)  and
  lam > 1/(eta*(n-1)); the conjunction of both conditions is enforced,
  which is the stricter and therefore safe reading.

* kNN, 0-1 cost (q = 1):  gamma_1 = (4/sqrt(2*pi)) * sqrt(k)/n.  A 0-1
  cost difference is 0 or 1, so |diff|^q = |diff| and S_q = S_1^(1/q):
  gamma_1^(1/q) bounds S_q for every q >= 1.

``ridge_param_diff_check`` evaluates both sides of the deterministic
coefficient-difference inequality that drives the ridge result, so the
bound can be checked on concrete samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datagen import (
    DataSpec,
    Dataset,
    SeedSpec,
    _chunk_reps,
    sample_stack,
)
from .learners import (
    _ridge_loo_betas,
    knn_loo_flips_stacked,
    ridge_fit,
    ridge_fit_stacked,
    ridge_loo_betas_stacked,
)

# ---------------------------------------------------------------------------
# Validity domain of the ridge stability results
# ---------------------------------------------------------------------------

def ridge_stability_violations(b_x: float, lam: float, eta: float, n: int) -> list[str]:
    """Violated inequalities (empty list means the domain is valid)."""
    out: list[str] = []
    if not (0.0 < eta < 1.0):
        out.append(f"eta in (0, 1) required, got eta = {eta}")
        return out
    if n < 2:
        out.append(f"n >= 2 required, got n = {n}")
        return out
    if n * eta <= 1.0:
        out.append(f"n * eta > 1 required, got n * eta = {n * eta}")
    else:
        floor = b_x**2 / (n * eta - 1.0)
        if lam <= floor:
            out.append(
                f"lam > b_x^2 / (n*eta - 1) required, got lam = {lam} <= {floor}"
            )
    floor2 = 1.0 / (eta * (n - 1))
    if lam <= floor2:
        out.append(f"lam > 1 / (eta*(n-1)) required, got lam = {lam} <= {floor2}")
    return out


def ridge_corollary_violations(b_x: float, lam: float, eta: float, n: int) -> list[str]:
    """Domain for the moment/PAC results: stability at both n and n-1."""
    if n < 3:
        return [f"n >= 3 required, got n = {n}"]
    return [
        f"at sample size {m}: {v}"
        for m in (n, n - 1)
        for v in ridge_stability_violations(b_x, lam, eta, m)
    ]


# ---------------------------------------------------------------------------
# Empirical estimator
# ---------------------------------------------------------------------------

def _ridge_cost_diffs_stacked(
    xs: np.ndarray, ys: np.ndarray, x: np.ndarray, y: np.ndarray, lam: float
) -> np.ndarray:
    """|squared cost of the full fit - that of each LoO refit| at the test
    point of every sample of a stack, shape (m, n)."""
    # The stacked matmul rounds as one sample's beta @ x (einsum does not),
    # and squaring that as a Python float calls libm's pow, which
    # np.float_power calls too; x * x differs on ~0.1% of values.
    full = ridge_fit_stacked(xs, ys, lam)
    c_full = np.float_power((full[:, None, :] @ x[..., None])[:, 0, 0] - y, 2.0)
    betas = ridge_loo_betas_stacked(xs, ys, lam)
    costs = ((betas @ x[..., None])[..., 0] - y[:, None]) ** 2
    return np.abs(c_full[:, None] - costs)


def power_mean_root(
    powered: np.ndarray, q: float, scale: float = 1.0
) -> tuple[float, float]:
    """``scale * mean(powered)^(1/q)`` with its delta-method standard error.

    ``powered`` holds i.i.d. q-th powers.  The standard error is
    ``scale * se(mean) * root / (q * mean)``, 0 when the mean is 0; it is
    evaluated left to right because emitted outputs are byte-stable, and
    scaling afterwards changes their last bit.
    """
    mean = float(np.mean(powered))
    se_mean = float(np.std(powered, ddof=1) / math.sqrt(len(powered)))
    root = mean ** (1.0 / q)
    se = scale * se_mean * root / (q * mean) if mean > 0.0 else 0.0
    return scale * root, se


def stability_profile(
    algo: str,
    param: float,
    spec: DataSpec,
    n: int,
    reps: int,
    seed: SeedSpec,
    qs: tuple[float, ...],
) -> dict[float, tuple[float, float]]:
    """Empirical stability ``{q: (s_q_hat, std_error)}`` at several q values
    sharing the same ``reps`` draws of n training points.

    ``algo`` is ``"ridge"``, with ``param`` its lambda, or ``"knn"``, with
    ``param`` its k, as in ``harness.AlgorithmConfig``.  The config has
    checked every input: n >= 2, reps >= 2, q >= 1, and for kNN 0/1 labels
    and n >= k + 2.  Sharing draws makes the power-mean monotonicity in q
    hold exactly on the empirical measure.
    """
    # Every replication is drawn from its own seed streams, exactly as it
    # would be alone: the training sample from seed.child(r).child(0) and
    # the test point from seed.child(r).child(1).  A chunk of draws is
    # stacked and the kernels run once per chunk.
    chunk = _chunk_reps(n, spec.d)
    per_rep = {q: np.empty(reps) for q in qs}
    for start in range(0, reps, chunk):
        m = min(chunk, reps - start)
        xs, ys = sample_stack(spec, n, seed.grandchild_seeds(start, start + m, 0))
        x, y = sample_stack(spec, 1, seed.grandchild_seeds(start, start + m, 1))
        x, y = x[:, 0], y[:, 0]
        if algo == "ridge":
            diffs = _ridge_cost_diffs_stacked(xs, ys, x, y, param)
        else:
            diffs = knn_loo_flips_stacked(xs, ys, x, param)
        for q in qs:
            per_rep[q][start:start + m] = np.mean(diffs**q, axis=1)

    return {q: power_mean_root(per_rep[q], q) for q in qs}


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def ridge_gamma_q(b_x: float, lam: float, eta: float, n: int, y_norm_2q: float) -> float:
    """Closed-form L^q stability coefficient for ridge with squared cost;
    ``y_norm_2q`` is ||Y||_{2q}.  Raises ``ValueError`` off the domain."""
    if not (b_x > 0 and math.isfinite(b_x)):
        raise ValueError("b_x must be a positive real")
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError("lam must be a positive real")
    if math.isnan(y_norm_2q) or y_norm_2q < 0:
        raise ValueError("y_norm_2q must be nonnegative (may be +inf)")
    violations = ridge_stability_violations(b_x, lam, eta, n)
    if violations:
        raise ValueError("; ".join(violations))
    if math.isinf(y_norm_2q):
        return math.inf
    b2 = b_x**2
    return (
        2.0
        * y_norm_2q**2
        * (b2 / (n * lam))
        * (1.0 + (b2 + lam) / (lam * (1.0 - eta)))
        * (1.0 + b2 / lam)
    )


def knn_gamma_1(k: int, n: int) -> float:
    """Closed-form L^1 (hypothesis) stability coefficient for kNN, 0-1 cost."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} out of range 1..{n - 1}")
    return 4.0 / math.sqrt(2.0 * math.pi) * math.sqrt(k) / n


def ridge_param_diff_check(
    data: Dataset, j: int, lam: float, eta: float, b_x: float
) -> tuple[float, float]:
    """``(lhs, rhs)``: both sides of the coefficient-difference inequality on a concrete sample.

    lhs is the Euclidean distance between the full fit and the fit with
    point j removed; rhs is the closed-form bound evaluated on the data.
    On the valid domain lhs <= rhs deterministically.  That domain,
    (n-1)*lam > b_x^2 >= ||x_j||^2, also keeps the leave-one-out downdate
    well conditioned.
    """
    n = data.n
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta in (0, 1) required, got eta = {eta}")
    if n * eta <= 1.0:
        raise ValueError(f"n * eta > 1 required, got n * eta = {n * eta}")
    floor = b_x**2 / (n * eta - 1.0)
    if lam <= floor:
        raise ValueError(f"lam > b_x^2 / (n*eta - 1) required, got lam = {lam} <= {floor}")
    max_norm = float(np.max(np.linalg.norm(data.xs, axis=1)))
    if max_norm > b_x * (1.0 + 1e-12):
        raise ValueError(f"data violates the feature bound: max ||x|| = {max_norm} > {b_x}")
    if not 1 <= j <= n:
        raise ValueError(f"index j={j} out of range 1..{n}")

    beta_full = ridge_fit(data, lam)
    beta_loo = _ridge_loo_betas(data, lam)[j - 1]
    lhs = float(np.linalg.norm(beta_full - beta_loo))

    abs_y = np.abs(data.ys)
    y_j = float(abs_y[j - 1])
    rest_mean = float((np.sum(abs_y) - y_j) / (n - 1))
    rhs = (b_x / (n * lam)) * (
        y_j + (b_x**2 + lam) / (lam * (1.0 - eta)) * rest_mean
    )
    return lhs, rhs


# ---------------------------------------------------------------------------
# Population L^q norms of |Y|
# ---------------------------------------------------------------------------

_ENUM_MAX_D = 20


def _enumerate_clipped_labels(spec: DataSpec) -> np.ndarray:
    """All equally likely |Y| values for a noise-free clipped-linear label
    over sign-pattern features."""
    d = spec.d
    if d > _ENUM_MAX_D:
        raise ValueError(f"analytic enumeration supports d <= {_ENUM_MAX_D}")
    beta = np.asarray(spec.beta_star)
    scale = spec.b_x / math.sqrt(d)
    bits = (np.arange(2**d)[:, None] >> np.arange(d)[None, :]) & 1
    signs = 2.0 * bits - 1.0
    ys = np.clip((signs * scale) @ beta, -spec.b_y, spec.b_y)
    return np.abs(ys)


def y_norm(spec: DataSpec, q: float) -> float:
    """Population L^q norm of |Y| under the given label distribution, in
    closed form.

    Available for the Bernoulli label model (with its closed-form marginal)
    and for noise-free clipped-linear labels over sign-pattern features,
    where the finitely many outcomes are enumerated.  Whether a closed form
    exists depends on the spec alone, never on q: any other spec raises
    ``ValueError`` at every q, as does q < 1.
    """
    if q < 1.0:
        raise ValueError("q must be >= 1")
    if spec.y_model == "bernoulli_label":
        return spec.bernoulli_p() ** (1.0 / q)
    if spec.y_model == "linear_clipped" and spec.noise_scale == 0.0 and (
        spec.x_family == "rademacher_coords"
    ):
        abs_y = _enumerate_clipped_labels(spec)
        return float(np.mean(abs_y**q) ** (1.0 / q))
    raise ValueError("no closed-form |Y| moments for this spec")


# ---------------------------------------------------------------------------
# Stability sweep rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    algo: str
    q: float
    n: int
    lambda_or_k: float
    s_q_hat: float
    std_error: float
    gamma_theory: float
    dominated: str  # "true" | "false" | "skipped"

