"""Closed-form generalisation bounds and the Monte Carlo Efron-Stein check.

The bound evaluators are pure formulas; no clamping is applied even when a
bound exceeds the trivial cost range (vacuousness is reported by the
harness, not hidden here).  ``efron_stein_moment_check`` is the one Monte
Carlo routine: it estimates both sides of the inequality below.

The single numerical constant KAPPA = 1.271 is the ceiling of the
universal constant in the generalised Efron-Stein moment inequality

    ||Z - EZ||_q <= sqrt(2*KAPPA*q) * sqrt(|| sum_j (Z - Z'_j)^2 ||_{q/2}),

and is shared by every evaluator in this module.  Using the ceiling is
conservative and keeps all inequalities valid.

The two PAC bounds follow from the ridge moment bound.  With G the
``GammaSet.total``, ||Y||_q <= ||Y||_{2q} and G3/n <= G3 sqrt(q/n), it
gives for q >= 2

    E|LoO - R|^q <= (sum_i lam_i q^{alpha_i})^q,

one term (b_y^2 G / sqrt(n), 1/2) for labels bounded by b_y, and two,
(2 G (EY)^2 / sqrt(n), 1/2) and (16 e^2 G v / sqrt(n), 3/2), for
sub-Gaussian labels, from ||Y||_{2q}^2 <= 2 (EY)^2 + 16 e^2 v q.  Markov's
inequality at q = 2x, threshold sum_i lam_i (2 e x)^{alpha_i}, then fails
with probability at most e^{-x} for x >= 1, and e e^{-x} >= 1 below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .datagen import (
    DataSpec,
    Dataset,
    SeedSpec,
    _chunk_reps,
    _unchecked_dataset,
    replace_point,
    sample_stack,
)
from .learners import ridge_loo_fast
from .stability import power_mean_root

KAPPA = 1.271


# ---------------------------------------------------------------------------
# Gamma constants, moment bounds and PAC bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaSet:
    """The three constants aggregating b_x, lam, eta and KAPPA that appear
    in the ridge moment and PAC bounds."""

    gamma1: float
    gamma2: float
    gamma3: float

    @property
    def total(self) -> float:
        return self.gamma1 + self.gamma2 + self.gamma3


def gamma_set(b_x: float, lam: float, eta: float) -> GammaSet:
    """Evaluate the three closed-form constants at kappa = 1.271."""
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta in (0, 1) required, got eta = {eta}")
    if not (b_x > 0 and math.isfinite(b_x)):
        raise ValueError("b_x must be a positive real")
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError("lam must be a positive real")
    b2 = b_x**2
    sk = math.sqrt(KAPPA)
    contraction = (1.0 + (b2 + lam) / (lam * (1.0 - eta))) * (1.0 + b2 / lam)
    gamma1 = 8.0 * sk * b2 / lam
    gamma2 = 2.0 * sk * b2 / lam * ((8.0 + math.sqrt(2.0)) * contraction + 4.0 * b2 / lam)
    gamma3 = 2.0 * b2 / lam * contraction
    return GammaSet(gamma1, gamma2, gamma3)


def moment_bound_generic(
    s_q_n: float, s_q_n1: float, var_term_norm: float, q: float, n: int
) -> float:
    """Moment bound on the centered LoO-minus-prediction-error deviation
    from stability at sizes n and n-1 plus the variance-term norm."""
    if q < 2.0:
        raise ValueError("q must be >= 2")
    if min(s_q_n, s_q_n1, var_term_norm) < 0.0:
        raise ValueError("stability and variance inputs must be nonnegative")
    return math.sqrt(KAPPA * q * n) * (
        math.sqrt(2.0) * s_q_n + 4.0 * s_q_n1
    ) + 2.0 * math.sqrt(KAPPA * q) / math.sqrt(n) * var_term_norm


def ridge_variance_term_bound(
    b_x: float, lam: float, y_norm_q: float, y_norm_2q: float
) -> float:
    """Closed-form bound on the variance-term norm for ridge."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if min(b_x, y_norm_q, y_norm_2q) < 0:
        raise ValueError("inputs must be nonnegative")
    return 4.0 * b_x**2 / lam * y_norm_q**2 + 4.0 * b_x**4 / lam**2 * y_norm_2q**2


def ridge_moment_bound(
    gammas: GammaSet,
    q: float,
    n: int,
    y_norm_q: float,
    y_norm_2q: float,
    centered: bool,
) -> float:
    """Ridge moment bound: (sqrt(q/n)) (G1 ||Y||_q^2 + G2 ||Y||_{2q}^2),
    plus (G3/n) ||Y||_{2q}^2 when not centered."""
    if q < 2.0:
        raise ValueError("q must be >= 2")
    if n < 3:
        raise ValueError("n must be >= 3")
    main = (
        math.sqrt(q)
        / math.sqrt(n)
        * (gammas.gamma1 * y_norm_q**2 + gammas.gamma2 * y_norm_2q**2)
    )
    if centered:
        return main
    return main + gammas.gamma3 / n * y_norm_2q**2


def pac_bound_bounded(gammas: GammaSet, b_y: float, n: int, x: float) -> float:
    """High-probability deviation bound for bounded labels:
    sqrt(2*e*x/n) * b_y^2 * (G1 + G2 + G3), failing with probability
    at most e * exp(-x)."""
    if x <= 0:
        raise ValueError("x must be positive")
    if n < 3:
        raise ValueError("n must be >= 3")
    if b_y < 0:
        raise ValueError("b_y must be nonnegative")
    return math.sqrt(2.0 * math.e * x / n) * b_y**2 * gammas.total


def pac_bound_subgaussian(
    gammas: GammaSet, mean_y: float, v: float, n: int, x: float
) -> float:
    """High-probability deviation bound for sub-Gaussian labels:
    (M1 (EY)^2 sqrt(x) + M2 v x^{3/2}) / sqrt(n) with
    M1 = 2 sqrt(2e) G and M2 = 16 e^2 (2e)^{3/2} G, failing with
    probability at most e * exp(-x).

    v is the variance proxy of Y: E exp(t(Y - EY)) <= exp(v t^2 / 2) for
    every real t, which gives ||Y - EY||_p <= 2e sqrt(v p) for p >= 1."""
    if x <= 0:
        raise ValueError("x must be positive")
    if n < 3:
        raise ValueError("n must be >= 3")
    if v <= 0:
        raise ValueError("v must be positive")
    g = gammas.total
    m1 = 2.0 * math.sqrt(2.0 * math.e) * g
    m2 = 16.0 * math.e**2 * (2.0 * math.e) ** 1.5 * g
    return (m1 * mean_y**2 * math.sqrt(x) + m2 * v * x**1.5) / math.sqrt(n)


# ---------------------------------------------------------------------------
# Generalised Efron-Stein empirical check
# ---------------------------------------------------------------------------

# Statistics f(dataset, ridge_lam).  ridge_loo_fast is looked up at call
# time, so a wrapper rebound under this module's name sees every call.
STAT_REGISTRY: dict[str, Callable[[Dataset, float], float]] = {
    "constant": lambda data, lam: 0.0,
    "mean": lambda data, lam: float(data.ys.sum() / data.n),
    "ridge_loo": lambda data, lam: ridge_loo_fast(data, lam),
}


# Degenerate (constant) statistics measure both sides at machine noise;
# differences below this absolute floor count as equality.
_FP_NOISE_FLOOR = 1e-12


def efron_stein_moment_check(
    f: str,
    spec: DataSpec,
    n: int,
    q: float,
    reps: int,
    seed: SeedSpec,
    ridge_lam: float = 1.0,
) -> EfronSteinRow:
    """Monte Carlo check of the generalised Efron-Stein moment inequality.

    For the statistic Z = f(Z_1, ..., Z_n) of the dataset, estimates
    lhs = ||Z - EZ||_q and rhs = sqrt(2*KAPPA*q) * sqrt(||sum_j (Z-Z'_j)^2
    ||_{q/2}), where Z'_j replaces point j with an independent copy.  The
    same draws feed the lhs and the inner norm to cut comparison noise;
    EZ is estimated on an independent stream of doubled size.  The row
    passes when lhs is at most rhs plus three standard errors of each side
    (and the noise floor).  The config has checked every input: f names a
    ``STAT_REGISTRY`` entry, 2 <= q <= 8 and reps >= 2.
    """
    stat = STAT_REGISTRY[f]

    # Every dataset is drawn from its own seed stream, exactly as it would
    # be alone: the EZ samples from seed.child(0).child(r), and the data
    # and fresh points from seed.child(1).child(r).child(0) and .child(1).
    # A chunk is drawn with sample_stack, which checks the whole stack for
    # finite values, so its rows are wrapped without a second check.  The
    # swaps still run one replace_point and one statistic call each.
    chunk = _chunk_reps(n, spec.d)
    mean_seed = seed.child(0)
    ez_vals = np.empty(2 * reps)
    for start in range(0, 2 * reps, chunk):
        stop = min(start + chunk, 2 * reps)
        # No name holds the stack, so it is freed before the next is drawn.
        ez_vals[start:stop] = [
            stat(_unchecked_dataset(x, y), ridge_lam)
            for x, y in zip(*sample_stack(spec, n, mean_seed.child_seeds(start, stop)))
        ]
    ez = float(np.mean(ez_vals))

    main_seed = seed.child(1)
    centered_pow = np.empty(reps)
    sumsq_pow = np.empty(reps)
    for start in range(0, reps, chunk):
        stop = min(start + chunk, reps)
        xs, ys = sample_stack(spec, n, main_seed.grandchild_seeds(start, stop, 0))
        fresh_xs, fresh_ys = sample_stack(spec, n, main_seed.grandchild_seeds(start, stop, 1))
        for i in range(stop - start):
            data = _unchecked_dataset(xs[i], ys[i])
            z = stat(data, ridge_lam)
            sumsq = 0.0
            for j, z_new in enumerate(zip(fresh_xs[i], fresh_ys[i].tolist()), start=1):
                sumsq += (z - stat(replace_point(data, j, z_new), ridge_lam)) ** 2
            centered_pow[start + i] = abs(z - ez) ** q
            sumsq_pow[start + i] = sumsq ** (q / 2.0)

    lhs, lhs_se = power_mean_root(centered_pow, q)
    rhs, rhs_se = power_mean_root(sumsq_pow, q, scale=math.sqrt(2.0 * KAPPA * q))
    passed = lhs <= rhs + 3.0 * (lhs_se + rhs_se) + _FP_NOISE_FLOOR
    return EfronSteinRow(f, n, q, lhs, rhs, lhs_se, rhs_se, passed)


# ---------------------------------------------------------------------------
# Report rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EfronSteinRow:
    f: str
    n: int
    q: float
    lhs: float
    rhs: float
    lhs_std_error: float
    rhs_std_error: float
    passed: bool


@dataclass(frozen=True)
class BoundsRow:
    bound_name: str
    b_x: float
    lam: float
    eta: float
    n: int
    q_or_x: float
    value: float
    vacuous: bool

