import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabilab import datagen, harness, stability
from stabilab.datagen import DataSpec, Dataset, SeedSpec, leave_one_out, sample_dataset
from stabilab.learners import (
    KnnAlgorithm,
    RidgeAlgorithm,
    knn_classify,
    knn_loo_flips_stacked,
    neighbor_order,
    ridge_fit,
    ridge_fit_stacked,
    ridge_loo_betas_stacked,
    ridge_loo_fast,
)
from stabilab.stability import (
    knn_gamma_1,
    power_mean_root,
    ridge_corollary_violations,
    ridge_gamma_q,
    ridge_param_diff_check,
    ridge_stability_violations,
    stability_profile,
    y_norm,
)

from oracles import FINITE_LAW, exact_ridge_stability
from test_acceptance import ANALYTIC_SPEC, BERNOULLI_SPEC, NOISY_SPEC

# Three features: the stacks hold fewer replications per chunk than at d = 2.
NOISY_SPEC_D3 = dataclasses.replace(NOISY_SPEC, d=3, beta_star=(0.4, 0.2, -0.3))


class TestValidityDomain:
    def test_valid_configuration_passes(self):
        assert ridge_stability_violations(1.0, 1.0, 0.5, 100) == []
        assert ridge_gamma_q(1.0, 1.0, 0.5, 100, 1.0) > 0.0
        assert ridge_corollary_violations(1.0, 1.0, 0.5, 100) == []

    def test_violations_are_named(self):
        with pytest.raises(ValueError, match=r"n \* eta > 1"):
            ridge_gamma_q(1.0, 1.0, 0.01, 50, 1.0)
        with pytest.raises(ValueError, match=r"b_x\^2 / \(n\*eta - 1\)"):
            ridge_gamma_q(2.0, 0.05, 0.5, 50, 1.0)
        with pytest.raises(ValueError, match="eta in"):
            ridge_gamma_q(1.0, 1.0, 1.5, 50, 1.0)

    def test_reciprocal_condition_is_also_enforced(self):
        # n*eta - 1 is large here, but 1/(eta*(n-1)) still exceeds lam.
        violations = ridge_stability_violations(0.01, 0.005, 0.9, 120)
        assert any("1 / (eta*(n-1))" in v for v in violations)

    def test_corollary_needs_three_points(self):
        assert ridge_corollary_violations(1.0, 1.0, 0.5, 2) == ["n >= 3 required, got n = 2"]

    def test_corollary_tags_each_sample_size_in_order(self):
        # n * eta - 1 = 1.5 and 1.0: both floors of lam fail at n and n - 1.
        assert ridge_corollary_violations(1.0, 0.3, 0.5, 5) == [
            "at sample size 5: lam > b_x^2 / (n*eta - 1) required, got lam = 0.3 <= 0.6666666666666666",
            "at sample size 5: lam > 1 / (eta*(n-1)) required, got lam = 0.3 <= 0.5",
            "at sample size 4: lam > b_x^2 / (n*eta - 1) required, got lam = 0.3 <= 1.0",
            "at sample size 4: lam > 1 / (eta*(n-1)) required, got lam = 0.3 <= 0.6666666666666666",
        ]


class TestEmpiricalStability:
    def test_degenerate_spec_gives_zero(self):
        spec = DataSpec(
            d=2,
            x_family="uniform_ball",
            b_x=1.0,
            y_model="linear_clipped",
            beta_star=(0.0, 0.0),
            noise_scale=0.0,
            b_y=1.0,
        )
        est = stability_profile(RidgeAlgorithm(1.0), spec, 10, 20, SeedSpec(1), (2.0,))[2.0]
        assert est == (0.0, 0.0)

    def test_knn_q1_equals_disagreement_frequency(self):
        # The L^1 statistic for the 0-1 cost is exactly the probability that
        # the full-sample and leave-one-out predictions differ; recount it
        # by refitting on explicit reduced datasets over the same draws.
        k, n, reps = 3, 20, 150
        algorithm = KnnAlgorithm(k)
        seed = SeedSpec(21)
        s_1_hat, _ = stability_profile(algorithm, BERNOULLI_SPEC, n, reps, seed, (1.0,))[1.0]
        total = 0.0
        for r in range(reps):
            seed_r = seed.child(r)
            data = sample_dataset(BERNOULLI_SPEC, n, seed_r.child(0))
            test = sample_dataset(BERNOULLI_SPEC, 1, seed_r.child(1))
            x = test.xs[0]
            full = knn_classify(data, algorithm, x)
            disagreements = 0
            for j in range(1, n + 1):
                if knn_classify(leave_one_out(data, j), algorithm, x) != full:
                    disagreements += 1
            total += disagreements / n
        assert s_1_hat == pytest.approx(total / reps, abs=1e-12)

    def test_two_point_discrete_instance_matches_enumeration(self):
        # d=1 sign feature with Bernoulli labels: (X, Y) takes 4 values with
        # known probabilities, so the population stability at n=2 is an
        # exact finite sum over (Z1, Z2, test) outcomes.
        spec = DataSpec(
            d=1,
            x_family="rademacher_coords",
            b_x=1.0,
            y_model="bernoulli_label",
            beta_star=(0.25,),
            noise_scale=0.5,
            b_y=1.0,
        )
        lam, q = 1.0, 2.0

        outcomes = []
        for x in (-1.0, 1.0):
            p1 = 0.5 + 0.25 * x
            outcomes.append(((x, 1.0), 0.5 * p1))
            outcomes.append(((x, 0.0), 0.5 * (1.0 - p1)))

        def beta_two(z1, z2):
            return (z1[0] * z1[1] + z2[0] * z2[1]) / (2.0 + 2.0 * lam)

        def beta_one(z):
            return z[0] * z[1] / (1.0 + lam)

        exact_pow = 0.0
        for (z1, p1), (z2, p2), (zt, pt) in itertools.product(outcomes, repeat=3):
            x, y = zt
            c_full = (beta_two(z1, z2) * x - y) ** 2
            inner = 0.0
            for kept in (z2, z1):  # remove point 1, then point 2
                inner += abs(c_full - (beta_one(kept) * x - y) ** 2) ** q
            exact_pow += p1 * p2 * pt * inner / 2.0
        exact = exact_pow ** (1.0 / q)

        s_q_hat, std_error = stability_profile(
            RidgeAlgorithm(lam), spec, 2, 4000, SeedSpec(22), (q,))[q]
        assert s_q_hat == pytest.approx(exact, abs=4 * std_error + 1e-12)

    def test_monotone_in_q_on_shared_draws(self):
        profile = stability_profile(
            RidgeAlgorithm(0.5), NOISY_SPEC, 20, 100, SeedSpec(23), (1.0, 2.0, 4.0, 8.0)
        )
        values = [profile[q][0] for q in (1.0, 2.0, 4.0, 8.0)]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi * (1 + 1e-12)

    @pytest.mark.parametrize("k, n", [(3, 30), (1, 50), (5, 200)])
    def test_knn_lq_is_the_qth_root_of_l1(self, k, n):
        # A 0-1 cost difference is 0 or 1, so |diff|^q = |diff| and
        # S_q = S_1^(1/q) exactly; the sweep checks q > 1 against that.
        profile = stability_profile(
            KnnAlgorithm(k), BERNOULLI_SPEC, n, 40, SeedSpec(26), (1.0, 2.0, 4.0))
        assert profile[1.0][0] > 0.0
        for q in (2.0, 4.0):
            assert profile[q][0] == profile[1.0][0] ** (1.0 / q)

    def test_algorithm_preconditions(self):
        # The algorithm alone fixes the cost, so only its own preconditions
        # are checked: a known algorithm, and 0/1 labels and n >= k + 2 for kNN.
        draws = (10, 10, SeedSpec(25))
        with pytest.raises(ValueError, match="unknown algorithm"):
            stability_profile(object(), NOISY_SPEC, *draws, (1.0,))
        with pytest.raises(ValueError, match="labels in"):
            stability_profile(KnnAlgorithm(3), NOISY_SPEC, *draws, (1.0,))
        with pytest.raises(ValueError, match="n >= k"):
            stability_profile(KnnAlgorithm(9), BERNOULLI_SPEC, *draws, (1.0,))
        with pytest.raises(ValueError, match="q must be"):
            stability_profile(RidgeAlgorithm(1.0), NOISY_SPEC, *draws, (2.0, 0.5))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            stability_profile(RidgeAlgorithm(1.0), NOISY_SPEC, 1, 10, SeedSpec(0), (1.0,))
        with pytest.raises(ValueError, match="reps must be"):
            stability_profile(RidgeAlgorithm(1.0), NOISY_SPEC, 10, 1, SeedSpec(0), (1.0,))


# The estimator one replication at a time, with the per-dataset expressions:
# the reference that stability_profile's stacked chunks match bit for bit.

def _reference_beta(xs, ys, lam):
    """ridge_fit's expressions on one sample, before stacking."""
    n, d = xs.shape
    return np.linalg.solve(xs.T @ xs / n + lam * np.eye(d), xs.T @ ys / n)


def _reference_downdate(data, lam):
    """The rank-one downdate of one sample, with the per-dataset expressions:
    g = A^-1 X'y, w (columns A^-1 x_j), s_j = x_j' A^-1 x_j, 1 - s_j and
    h = X g, for A = X'X + (n-1)*lam*I."""
    xs, ys = data.xs, data.ys
    a = xs.T @ xs
    a.flat[:: data.d + 1] += (data.n - 1) * lam
    g = np.linalg.solve(a, xs.T @ ys)
    w = np.linalg.solve(a, xs.T)
    s = np.einsum("ij,ji->i", xs, w)
    h = xs @ g
    return g, w, s, 1.0 - s, h


def _reference_loo_fast(data, lam):
    """ridge_loo_fast on _reference_downdate: the mean squared shortcut residual."""
    _, _, _, one_minus_s, h = _reference_downdate(data, lam)
    return float((((data.ys - h) / one_minus_s) ** 2).sum() / data.n)


def _reference_loo_betas(data, lam):
    """_ridge_loo_betas on _reference_downdate."""
    g, w, s, one_minus_s, h = _reference_downdate(data, lam)
    ys = data.ys
    scale = (h - ys * s) / one_minus_s
    return g[None, :] - ys[:, None] * w.T + scale[:, None] * w.T


def _reference_ridge_diffs(data, lam, x, y):
    c_full = float((float(_reference_beta(data.xs, data.ys, lam) @ x) - y) ** 2)
    return np.abs(c_full - (_reference_loo_betas(data, lam) @ x - y) ** 2)


def _reference_knn_diffs(data, k, x):
    order = neighbor_order(data, x)
    ys = data.ys
    vote = float(np.sum(ys[order[:k]]))
    pred = 1.0 if vote >= k / 2.0 else 0.0
    next_label = float(ys[order[k]])
    diffs = np.zeros(data.n)
    for j0 in order[:k]:
        vote_new = vote - float(ys[j0]) + next_label
        pred_new = 1.0 if vote_new >= k / 2.0 else 0.0
        diffs[j0] = float(pred != pred_new)
    return diffs


def _reference_profile(algorithm, spec, n, reps, seed, qs):
    """{q: (s_q_hat, std_error)}, one replication at a time."""
    per_rep = {q: np.empty(reps) for q in qs}
    for r in range(reps):
        seed_r = seed.child(r)
        data = sample_dataset(spec, n, seed_r.child(0))
        test = sample_dataset(spec, 1, seed_r.child(1))
        x, y = test.xs[0], float(test.ys[0])
        if isinstance(algorithm, RidgeAlgorithm):
            diffs = _reference_ridge_diffs(data, algorithm.lam, x, y)
        else:
            diffs = _reference_knn_diffs(data, algorithm.k, x)
        for q in qs:
            per_rep[q][r] = float(np.mean(diffs**q))
    return {q: power_mean_root(per_rep[q], q) for q in qs}


def _rademacher(rng, shape):
    d = shape[-1]
    return (rng.integers(0, 2, size=shape) * 2 - 1) / math.sqrt(d)


class TestStabilityOnAFiniteLaw:
    """stability_profile against the value it estimates: on the 8-point law
    of ``oracles.FINITE_LAW`` the ridge s_q is an exact sum over multisets.
    At 4,000 replications, seeds 0-99 put all six rows within 3 SE (z from
    -2.85 to +2.84)."""

    EXACT = {
        6: {1.0: 0.042468770720938, 2.0: 0.082294610862553, 4.0: 0.142272425278826},
        7: {1.0: 0.035643399303269, 2.0: 0.069820682733036, 4.0: 0.120661816352544},
    }

    @pytest.mark.parametrize("n", [6, 7])
    def test_ridge_profile_is_within_three_standard_errors_of_exact(self, n):
        exact = exact_ridge_stability(FINITE_LAW, 1.0, n, (1.0, 2.0, 4.0))
        assert exact == pytest.approx(self.EXACT[n], rel=1e-9)
        profile = stability_profile(RidgeAlgorithm(1.0), FINITE_LAW, n, 4000, SeedSpec(0), exact)
        for q, (value, std_error) in profile.items():
            assert abs(value - exact[q]) <= 3.0 * std_error, (q, value, exact[q], std_error)

    @pytest.mark.parametrize("lam, n", [(0.5, 8), (1.0, 8), (2.0, 12), (10.0, 8)])
    def test_exact_hierarchy_is_monotone_and_under_gamma_q(self, lam, n):
        # s_q is a power mean of the same cost differences, so it cannot
        # fall as q grows: s_1 is hypothesis stability, and s_q climbs
        # towards the uniform end.  The closed form gamma_q bounds every
        # order, and its slack narrows as q grows: over these four cases
        # s_1 / gamma_1 reads 0.009 to 0.097, and s_64 / gamma_64 0.049 to
        # 0.435.
        qs = (1.0, 2.0, 4.0, 8.0, 16.0, 64.0)
        exact = exact_ridge_stability(FINITE_LAW, lam, n, qs)
        values = [exact[q] for q in qs]
        assert values == sorted(values), values
        for q in qs:
            gamma = ridge_gamma_q(FINITE_LAW.b_x, lam, 0.5, n, y_norm(FINITE_LAW, 2.0 * q))
            assert exact[q] <= gamma, (q, exact[q], gamma)


class TestStackedKernels:
    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 2, 3, 8]),
        n=st.sampled_from([2, 3, 20, 50]),
        m=st.integers(1, 64),
        lam=st.floats(0.01, 10.0),
    )
    def test_ridge_matches_per_sample_reference_bitwise(self, seed, d, n, m, lam):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-1.0, 1.0, size=(m, n, d)) / math.sqrt(d)
        ys = rng.standard_normal((m, n))
        x, y = rng.uniform(-1.0, 1.0, size=(m, d)) / math.sqrt(d), rng.standard_normal(m)
        full = ridge_fit_stacked(xs, ys, lam)
        betas = ridge_loo_betas_stacked(xs, ys, lam)
        diffs = stability._ridge_cost_diffs_stacked(xs, ys, x, y, lam)
        for r in range(m):
            data = Dataset(xs[r], ys[r])
            assert np.array_equal(full[r], _reference_beta(xs[r], ys[r], lam))
            assert np.array_equal(ridge_fit(data, lam), full[r])
            assert np.array_equal(betas[r], _reference_loo_betas(data, lam))
            assert ridge_loo_fast(data, lam) == _reference_loo_fast(data, lam)
            ref = _reference_ridge_diffs(data, lam, x[r], float(y[r]))
            assert np.array_equal(diffs[r], ref)

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([2, 3, 20, 50]),
        lam=st.floats(0.01, 10.0),
    )
    def test_ridge_loo_fast_matches_reference_on_sign_labels_equal_to_features(
        self, seed, n, lam
    ):
        # Criterion 6's constant statistic: d = 1 Rademacher x and y = x, so
        # X'X = X'y = n and only the last bits of the downdate move.
        xs = _rademacher(np.random.default_rng(seed), (n, 1))
        data = Dataset(xs, xs[:, 0].copy())
        assert ridge_loo_fast(data, lam) == _reference_loo_fast(data, lam)

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 2, 3]),
        n=st.integers(3, 40),
        m=st.integers(1, 4),
        data=st.data(),
    )
    def test_knn_matches_per_sample_reference_bitwise(self, seed, d, n, m, data):
        # Sign features put many training points at the same distance from
        # the query, so the vote depends on the stable lowest-index order.
        k = data.draw(st.integers(1, n - 2), label="k")
        rng = np.random.default_rng(seed)
        xs, x = _rademacher(rng, (m, n, d)), _rademacher(rng, (m, d))
        ys = rng.integers(0, 2, size=(m, n)).astype(np.float64)
        flips = knn_loo_flips_stacked(xs, ys, x, k)
        for r in range(m):
            ref = _reference_knn_diffs(Dataset(xs[r], ys[r]), k, x[r])
            assert np.array_equal(flips[r], ref)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize(
        "algorithm, spec",
        [
            (RidgeAlgorithm(0.5), NOISY_SPEC),
            (RidgeAlgorithm(0.5), NOISY_SPEC_D3),
            (KnnAlgorithm(3), BERNOULLI_SPEC),
        ],
        ids=["ridge", "ridge_d3", "knn"],
    )
    def test_profile_matches_per_replication_reference_around_chunk_size(
        self, algorithm, spec, offset
    ):
        n, qs = 50, (1.0, 1.5, 2.0, 4.0)
        chunk = datagen._CHUNK_BYTES // (8 * n * spec.d)
        assert chunk >= 2
        draws = (n, chunk + offset, SeedSpec(26))
        profile = stability_profile(algorithm, spec, *draws, qs)
        reference = _reference_profile(algorithm, spec, *draws, qs)
        for q in qs:
            assert profile[q] == reference[q], q


class TestRidgeGamma:
    def test_reference_value(self):
        # 2 * 1 * (1/100) * (1 + 2/0.5) * (1 + 1) = 0.2
        gamma = ridge_gamma_q(b_x=1.0, lam=1.0, eta=0.5, n=100, y_norm_2q=1.0)
        assert gamma == pytest.approx(0.2, rel=1e-12)

    def test_zero_norm_gives_zero(self):
        assert ridge_gamma_q(b_x=1.0, lam=1.0, eta=0.5, n=100, y_norm_2q=0.0) == 0.0

    def test_doubling_n_halves(self):
        a = ridge_gamma_q(1.0, 1.0, 0.5, 100, 1.0)
        b = ridge_gamma_q(1.0, 1.0, 0.5, 200, 1.0)
        assert b == pytest.approx(a / 2.0, rel=1e-12)
        assert b == pytest.approx(0.1, rel=1e-12)

    def test_infinite_norm_gives_infinity(self):
        assert ridge_gamma_q(1.0, 1.0, 0.5, 100, math.inf) == math.inf

    def test_invalid_domain_raises(self):
        with pytest.raises(ValueError, match=r"n \* eta"):
            ridge_gamma_q(b_x=1.0, lam=1.0, eta=0.005, n=100, y_norm_2q=1.0)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0.0, 1.0, 0.5, 100, 1.0), "b_x must be"),
            ((math.inf, 1.0, 0.5, 100, 1.0), "b_x must be"),
            ((1.0, -1.0, 0.5, 100, 1.0), "lam must be"),
            ((1.0, math.nan, 0.5, 100, 1.0), "lam must be"),
            ((1.0, 1.0, 0.5, 100, -0.1), "y_norm_2q must be"),
            ((1.0, 1.0, 0.5, 100, math.nan), "y_norm_2q must be"),
        ],
    )
    def test_bad_inputs_raise(self, args, message):
        with pytest.raises(ValueError, match=message):
            ridge_gamma_q(*args)

    def test_strictly_decreasing_in_lambda(self):
        values = [
            ridge_gamma_q(1.0, lam, 0.5, 100, 1.0)
            for lam in (0.2, 0.5, 1.0, 2.0, 5.0)
        ]
        for hi, lo in zip(values, values[1:]):
            assert lo < hi


class TestKnnGamma:
    def test_reference_values(self):
        assert knn_gamma_1(4, 100) == pytest.approx(0.031915382432114614, rel=1e-12)
        assert knn_gamma_1(1, 2) == pytest.approx(0.7978845608028654, rel=1e-12)

    def test_scaling_in_n(self):
        assert knn_gamma_1(1, 200) == pytest.approx(knn_gamma_1(1, 100) / 2.0, rel=1e-12)

    def test_k_range(self):
        with pytest.raises(ValueError):
            knn_gamma_1(0, 10)
        with pytest.raises(ValueError):
            knn_gamma_1(10, 10)


class TestCoefficientDifferenceBound:
    def test_zero_labels(self):
        data = Dataset(np.random.default_rng(0).uniform(-0.5, 0.5, (10, 2)), np.zeros(10))
        lhs, rhs = ridge_param_diff_check(data, 3, lam=1.0, eta=0.5, b_x=1.0)
        assert lhs == 0.0 and rhs == 0.0

    def test_two_point_hand_arithmetic(self):
        # X=(1,1), Y=(0,2), lam=6, eta=0.6 (valid: 2*0.6>1, 6 > 1/0.2).
        # Full fit: beta = 2/14 = 1/7; without point 1: beta = 2/7.
        # lhs = 1/7.  rhs = (1/12)(0 + (7/2.4)*2) = 35/72.
        data = Dataset(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]))
        lhs, rhs = ridge_param_diff_check(data, 1, lam=6.0, eta=0.6, b_x=1.0)
        assert lhs == pytest.approx(1.0 / 7.0, rel=1e-12)
        assert rhs == pytest.approx(35.0 / 72.0, rel=1e-12)
        assert lhs <= rhs

    def test_seeded_instances_never_violate(self):
        spec = NOISY_SPEC
        rng = np.random.default_rng(42)
        for seed in range(100):
            n = int(rng.integers(5, 40))
            data = sample_dataset(spec, n, SeedSpec(seed))
            eta = 0.5
            lam = float(rng.uniform(spec.b_x**2 / (n * eta - 1.0) + 0.05, 3.0))
            j = int(rng.integers(1, n + 1))
            lhs, rhs = ridge_param_diff_check(data, j, lam=lam, eta=eta, b_x=spec.b_x)
            assert lhs <= rhs * (1 + 1e-12)

    def test_domain_violation_raises(self):
        data = Dataset(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]))
        with pytest.raises(ValueError, match=r"n \* eta"):
            ridge_param_diff_check(data, 1, lam=6.0, eta=0.4, b_x=1.0)

    def test_feature_bound_checked(self):
        data = Dataset(np.array([[3.0], [1.0], [1.0]]), np.zeros(3))
        with pytest.raises(ValueError, match="feature bound"):
            ridge_param_diff_check(data, 1, lam=6.0, eta=0.8, b_x=1.0)


class TestYNorm:
    CONSTANT_SPEC = DataSpec(
        d=1,
        x_family="rademacher_coords",
        b_x=1.0,
        y_model="linear_clipped",
        beta_star=(2.0,),
        noise_scale=0.0,
        b_y=2.0,
    )

    def test_constant_magnitude_all_q(self):
        for q in (1.0, 2.0, 3.5, 8.0):
            assert y_norm(self.CONSTANT_SPEC, q) == pytest.approx(2.0, rel=1e-12)

    def test_constant_magnitude_mc_exact_at_q2(self):
        # Noise far beyond the clip makes |Y| = 2 on every draw, and the
        # spec has no closed form, so the harness takes the Monte Carlo path.
        spec = dataclasses.replace(self.CONSTANT_SPEC, beta_star=(0.0,), noise_scale=1e12)
        with pytest.raises(ValueError, match="closed-form"):
            y_norm(spec, 2.0)
        norms = harness._y_norms(spec, (2.0, 4.0), SeedSpec(31))
        assert norms == {2.0: (2.0, 0.0), 4.0: (2.0, 0.0)}

    def test_bernoulli_moments(self):
        spec = DataSpec(
            d=1,
            x_family="uniform_ball",
            b_x=1.0,
            y_model="bernoulli_label",
            beta_star=(0.0,),
            noise_scale=0.25,
            b_y=1.0,
        )
        assert y_norm(spec, 2.0) == pytest.approx(0.5, rel=1e-12)
        assert y_norm(spec, 1.0) == pytest.approx(0.25, rel=1e-12)

    def test_enumerated_two_level_labels(self):
        # |Y| is (|0.6 s1 + 0.3 s2|)/sqrt(2) over signs: {0.9, 0.3}/sqrt(2)
        # each with probability 1/2.
        spec = ANALYTIC_SPEC
        q = 2.0
        expected = ((0.9**2 + 0.3**2) / 2.0 / 2.0) ** 0.5
        assert y_norm(spec, q) == pytest.approx(expected, rel=1e-12)

    def test_no_closed_form_raises(self):
        with pytest.raises(ValueError, match="closed-form"):
            y_norm(NOISY_SPEC, 2.0)


class TestDominanceSmoke:
    def test_ridge_dominated_at_one_configuration(self):
        spec = ANALYTIC_SPEC
        n, lam, eta, q = 50, 1.0, 0.5, 2.0
        s_q_hat, std_error = stability_profile(
            RidgeAlgorithm(lam), spec, n, 300, SeedSpec(33), (q,))[q]
        gamma = ridge_gamma_q(1.0, lam, eta, n, y_norm(spec, 2 * q))
        assert s_q_hat <= gamma + 3.0 * std_error

    def test_knn_dominated_at_one_configuration(self):
        k, n = 3, 50
        s_1_hat, std_error = stability_profile(
            KnnAlgorithm(k), BERNOULLI_SPEC, n, 400, SeedSpec(34), (1.0,))[1.0]
        assert s_1_hat <= knn_gamma_1(k, n) + 3.0 * std_error
