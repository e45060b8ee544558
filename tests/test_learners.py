import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabilab import learners
from stabilab.datagen import (
    DataSpec,
    Dataset,
    SeedSpec,
    leave_one_out,
    sample_dataset,
    sample_stack,
)
from stabilab.learners import (
    KnnAlgorithm,
    RidgeAlgorithm,
    _ridge_loo_betas,
    _ridge_loo_sq_residuals_stacked,
    knn_classify,
    loo_estimate,
    predict,
    prediction_error_mc,
    ridge_fit,
    ridge_fit_stacked,
    ridge_loo_betas_stacked,
    ridge_loo_fast,
)

from oracles import FINITE_LAW, finite_support, multiset_samples


def random_instance(seed, max_d=8, max_n=64, y_scale=1.0):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, max_d + 1))
    n = int(rng.integers(max(2, d), max_n + 1))
    xs = rng.uniform(-1.0, 1.0, size=(n, d))
    ys = y_scale * rng.standard_normal(n)
    return Dataset(xs, ys)


class TestRidgeFit:
    def test_constant_design_forced_coefficient(self):
        # d=1, all x=1, all y=2, lam=1: (1 + 1) beta = 2 so beta = 1.
        data = Dataset(np.ones((5, 1)), np.full(5, 2.0))
        beta = ridge_fit(data, 1.0)
        assert beta.shape == (1,) and beta.dtype == np.float64
        assert beta[0] == pytest.approx(1.0, rel=1e-12)

    def test_heavy_shrinkage_limit(self):
        data = random_instance(0)
        beta = ridge_fit(data, 1e9)
        scale = float(np.max(np.abs(data.ys)))
        assert np.linalg.norm(beta) <= 1e-6 * scale

    def test_hand_solved_two_dim_instance(self):
        # X = ((1,0),(0,1),(1,1)), Y = (1,2,3), lam = 0.5.
        # Normal equations (X'X + n*lam*I) beta = X'Y with X'X = [[2,1],[1,2]],
        # X'Y = (4,5), n*lam = 1.5; Cramer on [[3.5,1],[1,3.5]] gives
        # beta = ((3.5*4 - 5)/11.25, (3.5*5 - 4)/11.25) = (0.8, 1.2).
        data = Dataset(
            np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0, 3.0])
        )
        np.testing.assert_allclose(ridge_fit(data, 0.5), [0.8, 1.2], rtol=1e-10)

    def test_permutation_invariance(self):
        data = random_instance(1)
        rng = np.random.default_rng(99)
        perm = rng.permutation(data.n)
        shuffled = Dataset(data.xs[perm], data.ys[perm])
        b1 = ridge_fit(data, 0.3)
        b2 = ridge_fit(shuffled, 0.3)
        np.testing.assert_allclose(b1, b2, rtol=1e-12, atol=1e-12)

    def test_rejects_bad_lambda(self):
        data = random_instance(2)
        for lam in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="lam must be a positive real"):
                ridge_fit(data, lam)

    def test_coefficient_norm_bound_under_feature_bound(self):
        # ||beta|| <= (b_x/(n*lam)) * sum |y_i| whenever ||x_i|| <= b_x.
        spec = DataSpec(
            d=3,
            x_family="uniform_ball",
            b_x=1.5,
            y_model="linear_clipped",
            beta_star=(0.4, 0.1, -0.2),
            noise_scale=0.3,
            b_y=1.0,
        )
        for seed in range(30):
            data = sample_dataset(spec, 40, SeedSpec(seed))
            lam = 0.25
            beta = ridge_fit(data, lam)
            bound = spec.b_x / (data.n * lam) * float(np.sum(np.abs(data.ys)))
            assert np.linalg.norm(beta) <= bound * (1 + 1e-10)

    @settings(deadline=None, max_examples=80)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 2, 3, 8]),
        n=st.sampled_from([2, 3, 20, 50]),
        m=st.integers(1, 16),
        lam=st.floats(1e-3, 10.0),
        collinear=st.booleans(),
    )
    def test_stacked_fit_solves_the_normal_equations(self, seed, d, n, m, lam, collinear):
        # The solve checks nothing about X'X/n: it is symmetric PSD because
        # the fit builds it so, and this pins what that buys on random
        # stacks, rank-deficient ones included (each sample's rows on one
        # line through the origin, so X'X has rank 1).
        rng = np.random.default_rng(seed)
        if collinear:
            direction = rng.standard_normal((m, 1, d))
            direction /= np.linalg.norm(direction, axis=2, keepdims=True)
            xs = rng.uniform(-1.0, 1.0, size=(m, n, 1)) * direction
        else:
            xs = rng.uniform(-1.0, 1.0, size=(m, n, d)) / math.sqrt(d)
        ys = rng.standard_normal((m, n))
        betas = ridge_fit_stacked(xs, ys, lam)
        gram = xs.swapaxes(1, 2) @ xs / n
        rhs = np.einsum("mnd,mn->md", xs, ys) / n
        residual = np.einsum("mde,me->md", gram, betas) + lam * betas - rhs
        scale = np.maximum(1.0, np.linalg.norm(rhs, axis=1))
        assert (np.linalg.norm(residual, axis=1) <= 1e-10 * scale).all()
        for r in range(m):
            assert np.array_equal(betas[r], ridge_fit(Dataset(xs[r], ys[r]), lam))


class TestRidgeFitBoundary:
    """``ridge_fit(data, lam)`` is the one way outside input reaches the
    unchecked ridge solve, so ``Dataset`` must refuse what the solve's own
    shape and finiteness checks used to: the fit never sees it."""

    def test_inputs_come_back_as_float64_with_the_same_values(self):
        data = Dataset([[1, 0], [0, 2], [3, 1]], [1, -2, 4])
        assert data.xs.dtype == np.float64 and data.ys.dtype == np.float64
        assert data.xs.tolist() == [[1.0, 0.0], [0.0, 2.0], [3.0, 1.0]]
        assert data.ys.tolist() == [1.0, -2.0, 4.0]
        floats = Dataset(np.array(data.xs.tolist()), np.array(data.ys.tolist()))
        assert np.array_equal(ridge_fit(data, 0.5), ridge_fit(floats, 0.5))

    @pytest.mark.parametrize(
        "field, value",
        [("xs", math.nan), ("xs", math.inf), ("ys", math.nan), ("ys", -math.inf)],
    )
    def test_non_finite_entries_are_rejected(self, field, value):
        arrays = {"xs": np.ones((3, 2)), "ys": np.ones(3)}
        arrays[field].flat[-1] = value
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(**arrays)

    @pytest.mark.parametrize(
        "xs_shape, ys_shape, message",
        [
            ((3,), (3,), "must be"),
            ((1, 3, 2), (3,), "must be"),
            ((3, 2), (3, 1), "must be"),
            ((3, 2), (4,), "disagree on n"),
            ((0, 2), (0,), "n >= 1"),
            ((3, 0), (3,), "d >= 1"),
        ],
        ids=["xs_1d", "xs_3d", "ys_2d", "n_mismatch", "no_rows", "no_columns"],
    )
    def test_bad_shapes_are_rejected(self, xs_shape, ys_shape, message):
        with pytest.raises(ValueError, match=message):
            Dataset(np.ones(xs_shape), np.ones(ys_shape))


class TestPredict:
    def test_zero_coefficients(self):
        assert predict(np.zeros(2), np.array([5.0, -2.0])) == 0.0

    def test_simple_inner_product(self):
        assert predict(np.array([1.0, 1.0]), np.array([2.0, 3.0])) == 5.0

    def test_matches_manual_dot(self):
        rng = np.random.default_rng(3)
        beta = rng.standard_normal(4)
        x = rng.standard_normal(4)
        manual = sum(b * xi for b, xi in zip(beta, x))
        assert predict(beta, x) == pytest.approx(manual, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict(np.array([1.0]), np.array([1.0, 2.0]))


class TestKnnClassify:
    def test_exact_match_single_neighbor(self):
        data = Dataset(np.array([[0.0], [5.0], [9.0]]), np.array([1.0, 0.0, 0.0]))
        assert knn_classify(data, KnnAlgorithm(1), np.array([0.0])) == 1.0

    def test_boundary_vote_goes_positive(self):
        # k=2 with neighbor labels {1, 0}: sum 1 >= k/2 classifies as 1.
        data = Dataset(np.array([[0.0], [1.0], [50.0]]), np.array([1.0, 0.0, 0.0]))
        assert knn_classify(data, KnnAlgorithm(2), np.array([0.5])) == 1.0

    def test_five_point_line_against_brute_force(self):
        xs = np.array([[0.0], [1.0], [2.5], [4.0], [6.0]])
        ys = np.array([1.0, 1.0, 0.0, 0.0, 1.0])
        data = Dataset(xs, ys)
        for x0 in (0.4, 2.0, 3.4, 5.0):
            x = np.array([x0])
            dists = [(abs(xs[i, 0] - x0), i) for i in range(5)]
            dists.sort()
            vote = sum(ys[i] for _, i in dists[:3])
            expected = 1.0 if vote >= 1.5 else 0.0
            assert knn_classify(data, KnnAlgorithm(3), x) == expected

    def test_distance_ties_break_to_lowest_index(self):
        data = Dataset(np.array([[1.0], [1.0], [2.0]]), np.array([0.0, 1.0, 0.0]))
        # Both of the first two points are at distance zero; index 0 wins.
        assert knn_classify(data, KnnAlgorithm(1), np.array([1.0])) == 0.0

    def test_prediction_invariant_under_permutation(self):
        rng = np.random.default_rng(11)
        data = Dataset(rng.uniform(-1, 1, (20, 2)), (rng.random(20) < 0.5) * 1.0)
        x = rng.uniform(-1, 1, 2)
        base = knn_classify(data, KnnAlgorithm(5), x)
        for seed in range(10):
            perm = np.random.default_rng(seed).permutation(20)
            shuffled = Dataset(data.xs[perm], data.ys[perm])
            assert knn_classify(shuffled, KnnAlgorithm(5), x) == base

    def test_errors(self):
        data = Dataset(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            knn_classify(data, KnnAlgorithm(2), np.array([0.0]))  # k > n-1
        bad = Dataset(np.array([[0.0], [1.0], [2.0]]), np.array([0.0, 2.0, 1.0]))
        with pytest.raises(ValueError):
            knn_classify(bad, KnnAlgorithm(1), np.array([0.0]))


class TestLooEstimate:
    def test_ridge_zero_labels(self):
        data = Dataset(np.random.default_rng(4).uniform(-1, 1, (6, 2)), np.zeros(6))
        assert loo_estimate(RidgeAlgorithm(1.0), data) == 0.0

    def test_two_point_hand_case(self):
        # d=1, X=(1,1), Y=(0,2), lam=1.  A one-point fit solves
        # (x^2 + lam) b = x y, so each refit gives b = y_other / 2 and the
        # held-out costs are (0 - 1)^2 and (2 - 0)^2, averaging to 2.5.
        data = Dataset(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]))
        b_without_1 = 2.0 / 2.0
        b_without_2 = 0.0 / 2.0
        expected = ((0.0 - b_without_1 * 1.0) ** 2 + (2.0 - b_without_2 * 1.0) ** 2) / 2
        assert expected == 2.5
        assert loo_estimate(RidgeAlgorithm(1.0), data) == pytest.approx(
            expected, rel=1e-12
        )

    def test_knn_clustered_labels(self):
        xs = np.array([[0.0], [0.1], [10.0], [10.1]])
        ys = np.array([0.0, 0.0, 1.0, 1.0])
        data = Dataset(xs, ys)
        assert loo_estimate(KnnAlgorithm(1), data) == 0.0

    def test_invariant_under_permutation(self):
        rng = np.random.default_rng(17)
        data = Dataset(rng.uniform(-1, 1, (12, 2)), rng.standard_normal(12))
        base = loo_estimate(RidgeAlgorithm(0.4), data)
        labels = (rng.random(12) < 0.5) * 1.0
        knn_data = Dataset(data.xs, labels)
        knn_base = loo_estimate(KnnAlgorithm(3), knn_data)
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(12)
            shuffled = Dataset(data.xs[perm], data.ys[perm])
            assert loo_estimate(RidgeAlgorithm(0.4), shuffled) == pytest.approx(base, rel=1e-12)
            knn_shuffled = Dataset(knn_data.xs[perm], knn_data.ys[perm])
            assert loo_estimate(KnnAlgorithm(3), knn_shuffled) == knn_base

    def test_preconditions(self):
        single = Dataset(np.array([[1.0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            loo_estimate(RidgeAlgorithm(1.0), single)
        small = Dataset(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            loo_estimate(KnnAlgorithm(1), small)

    def test_cost_is_squared_for_ridge_and_zero_one_for_knn(self):
        # d=1, X=(1,1,1), Y=(0,0,3), lam=1: a two-point fit solves
        # (2 + 2) b = sum y, so the held-out predictions are 3/4, 3/4 and
        # 0, and the squared errors (3/4)^2, (3/4)^2 and 3^2 average to 27/8.
        ones = np.ones((3, 1))
        ridge_data = Dataset(ones, np.array([0.0, 0.0, 3.0]))
        assert loo_estimate(RidgeAlgorithm(1.0), ridge_data) == pytest.approx(27 / 8, rel=1e-12)
        # 1-NN over 0, 1, 3, 10 with labels 0, 1, 1, 1: the held-out points
        # take the labels of 1, 0, 1 and 3, so points 0 and 1 are wrong.
        knn_data = Dataset(np.array([[0.0], [1.0], [3.0], [10.0]]), np.array([0.0, 1.0, 1.0, 1.0]))
        assert loo_estimate(KnnAlgorithm(1), knn_data) == 0.5

    def test_knn_requires_binary_labels(self):
        # A label outside {0, 1} is rejected wherever it sits, the held-out
        # point included: it is a training label of every other refit.
        xs = np.array([[0.0], [1.0], [2.0], [3.0]])
        for bad in (0.5, 2.0):
            for j in range(4):
                ys = np.array([0.0, 1.0, 0.0, 1.0])
                ys[j] = bad
                with pytest.raises(ValueError, match="labels in"):
                    loo_estimate(KnnAlgorithm(1), Dataset(xs, ys))


class TestRidgeLooFast:
    def test_zero_labels(self):
        data = Dataset(np.random.default_rng(5).uniform(-1, 1, (8, 3)), np.zeros(8))
        assert ridge_loo_fast(data, 0.7) == 0.0

    def test_preconditions(self):
        data = random_instance(3)
        for lam in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="lam"):
                ridge_loo_fast(data, lam)
        with pytest.raises(ValueError, match="n >= 2"):
            ridge_loo_fast(Dataset(np.array([[1.0]]), np.array([1.0])), 1.0)

    def test_near_singular_downdate_raises(self):
        # Without the point at 1, the point at 1e-9 hardly constrains the fit,
        # so at lam = 1e-14 that point's 1 - s_j is ~1e-14, below the
        # condition guard: every LoO kernel refuses the instance rather than
        # return an inexact value.
        data = Dataset(np.array([[1.0], [1e-9]]), np.array([0.5, 2.0]))
        lam = 1e-14
        # A stack where only one of several samples is that instance: the
        # guard reduces over the whole stack, so every stacked kernel refuses it.
        xs = np.stack([np.array([[0.5], [-0.3]]), data.xs, np.array([[0.2], [0.9]])])
        ys = np.stack([np.array([1.0, -1.0]), data.ys, np.array([0.3, 0.1])])
        _ridge_loo_sq_residuals_stacked(xs[[0, 2]], ys[[0, 2]], lam)  # the others pass alone
        for kernel in (
            lambda: ridge_loo_fast(data, lam),
            lambda: ridge_loo_betas_stacked(data.xs[None], data.ys[None], lam),
            lambda: _ridge_loo_betas(data, lam),
            lambda: ridge_loo_betas_stacked(xs, ys, lam),
            lambda: _ridge_loo_sq_residuals_stacked(xs, ys, lam),
        ):
            with pytest.raises(ArithmeticError, match="numerically singular"):
                kernel()

    def test_empty_stack_passes_the_guard(self):
        xs, ys = np.zeros((0, 5, 2)), np.zeros((0, 5))
        assert ridge_loo_betas_stacked(xs, ys, 1.0).shape == (0, 5, 2)
        assert _ridge_loo_sq_residuals_stacked(xs, ys, 1.0).shape == (0, 5)

    def test_loo_betas_match_naive_refits_in_domain(self):
        # On the paper's domain, lam > b_x^2 / (n*eta - 1), each row of the
        # downdated coefficients is the refit without that point, which
        # ridge_param_diff_check's lhs rests on.
        worst = 0.0
        for seed in range(100):
            data = random_instance(seed)
            n = data.n
            if n < 3:
                continue
            b2 = float(np.max(np.sum(data.xs**2, axis=1)))
            eta = 0.5
            u = float(np.random.default_rng(seed + 700).uniform(1.01, 10.0))
            lam = u * max(b2 / (n * eta - 1.0), 1.0 / (eta * (n - 1)))
            betas = _ridge_loo_betas(data, lam)
            assert betas.shape == (n, data.d) and betas.flags.c_contiguous
            for j in range(n):
                refit = ridge_fit(leave_one_out(data, j + 1), lam)
                worst = max(worst, np.linalg.norm(betas[j] - refit) / np.linalg.norm(refit))
        assert worst <= 1e-9

    @settings(deadline=None, max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 2, 3, 8]),
        n=st.sampled_from([2, 3, 20, 50]),
        m=st.integers(1, 8),
        scale=st.floats(1e-3, 1e3),
        ratio=st.floats(1e-2, 1e2),
    )
    def test_downdate_denominator_lower_bound(self, seed, d, n, m, scale, ratio):
        # Sherman-Morrison: 1 - s_j = 1 / (1 + x_j' B_j^-1 x_j) with
        # B_j >= (n-1)*lam*I, so 1 - s_j >= (n-1)*lam / ((n-1)*lam + ||x_j||^2),
        # and 1 - s_j > 1/2 once (n-1)*lam exceeds every ||x_j||^2.
        rng = np.random.default_rng(seed)
        xs = scale * rng.uniform(-1.0, 1.0, size=(m, n, d))
        ys = rng.standard_normal((m, n))
        norms2 = np.sum(xs**2, axis=2)
        lam = ratio * float(norms2.max()) / (n - 1)
        one_minus_s = learners._loo_downdate_stacked(xs, ys, lam)[3]
        reg = (n - 1) * lam
        assert np.all(one_minus_s >= reg / (reg + norms2) * (1.0 - 1e-9))
        if reg > norms2.max():
            assert np.all(one_minus_s > 0.5)


class TestPredictionErrorMc:
    def test_true_model_no_noise(self):
        spec = DataSpec(
            d=2,
            x_family="uniform_ball",
            b_x=1.0,
            y_model="linear_gaussian",
            beta_star=(0.5, -0.25),
            noise_scale=0.0,
        )
        est, se = prediction_error_mc(np.array([0.5, -0.25]), spec, 100, SeedSpec(6))
        assert est == pytest.approx(0.0, abs=1e-25)

    def test_constant_labels_constant_cost(self):
        # |Y| identically 2 via a sign feature with coefficient 2; the zero
        # model then incurs squared cost exactly 4 on every draw.
        spec = DataSpec(
            d=1,
            x_family="rademacher_coords",
            b_x=1.0,
            y_model="linear_clipped",
            beta_star=(2.0,),
            noise_scale=0.0,
            b_y=2.0,
        )
        est, se = prediction_error_mc(np.zeros(1), spec, 64, SeedSpec(7))
        assert est == 4.0
        assert se == 0.0

    def test_rerun_is_bit_identical(self):
        spec = DataSpec(
            d=2,
            x_family="uniform_cube",
            b_x=1.0,
            y_model="linear_clipped",
            beta_star=(0.3, 0.3),
            noise_scale=0.2,
            b_y=1.0,
        )
        beta = np.array([0.1, 0.2])
        first = prediction_error_mc(beta, spec, 500, SeedSpec(8))
        second = prediction_error_mc(beta, spec, 500, SeedSpec(8))
        assert first == second
        # Bit for bit the np.mean / np.std(ddof=1) of the squared residuals.
        for x_family in ("uniform_cube", "uniform_ball"):
            spec_x = dataclasses.replace(spec, x_family=x_family)
            for m in (2, 3, 500, 20000):
                got = prediction_error_mc(beta, spec_x, m, SeedSpec(m))
                test = sample_dataset(spec_x, m, SeedSpec(m))
                costs = (test.xs @ beta - test.ys) ** 2
                assert got == (float(np.mean(costs)),
                               float(np.std(costs, ddof=1) / math.sqrt(m)))

    def test_rejects_tiny_m(self):
        spec = DataSpec(
            d=1,
            x_family="uniform_ball",
            b_x=1.0,
            y_model="linear_gaussian",
            beta_star=(0.0,),
            noise_scale=1.0,
        )
        with pytest.raises(ValueError):
            prediction_error_mc(np.zeros(1), spec, 1, SeedSpec(10))


class TestLooIdentityOnAFiniteLaw:
    """E[LoO_n] = E[R(beta^(-j))] exactly (Luntz and Brailovsky): the held-out
    point is a fresh draw for the fit without it.  On a law with 8 support
    points both sides are exact sums over the C(n + 7, 7) multisets of a
    sample, so LoO meets the identity to rounding, and the training error,
    which reuses its points, misses it."""

    SPEC = FINITE_LAW
    LAM = 1.0

    def test_multiset_sum_equals_the_sum_over_ordered_samples(self):
        support_xs, support_ys, probs = finite_support(self.SPEC)
        n = 3
        idx = np.array(list(itertools.product(range(8), repeat=n)))
        ordered = _ridge_loo_sq_residuals_stacked(support_xs[idx], support_ys[idx], self.LAM)
        xs, ys, weights = multiset_samples(support_xs, support_ys, probs, n)
        multiset = _ridge_loo_sq_residuals_stacked(xs, ys, self.LAM)
        assert weights @ multiset.mean(axis=1) == pytest.approx(
            np.prod(probs[idx], axis=1) @ ordered.mean(axis=1), rel=1e-13)

    @pytest.mark.parametrize("n", [8, 12])
    def test_loo_meets_the_identity_and_training_error_misses_it(self, n):
        support_xs, support_ys, probs = finite_support(self.SPEC)
        assert len(probs) == 8 and math.fsum(probs) == pytest.approx(1.0, abs=1e-15)
        xs, ys, weights = multiset_samples(support_xs, support_ys, probs, n)
        assert len(weights) == math.comb(n + 7, 7)
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)

        def risk(betas):
            # Population risk of each coefficient vector: a sum over the support.
            return ((support_ys - betas @ support_xs.T) ** 2) @ probs

        mean_loo_risk = risk(ridge_loo_betas_stacked(xs, ys, self.LAM)).mean(axis=1)
        loo = _ridge_loo_sq_residuals_stacked(xs, ys, self.LAM).mean(axis=1)
        full = ridge_fit_stacked(xs, ys, self.LAM)
        training = ((ys - (xs @ full[..., None])[..., 0]) ** 2).mean(axis=1)

        assert abs(weights @ (loo - mean_loo_risk)) <= 1e-12
        assert abs(weights @ (training - mean_loo_risk)) > 0.01


class TestMonteCarloOnAFiniteLaw:
    """The Monte Carlo estimators against the exact values they estimate on
    the 8-point law of ``oracles.FINITE_LAW``, at lambda 1.  Over seeds 0-99,
    neither row left 3 SE: the risk z ran from -2.40 to +2.23 and the LoO z
    from -2.62 to +1.93."""

    SPEC = FINITE_LAW
    LAM = 1.0
    SEED = SeedSpec(0)

    def test_prediction_error_mc_is_within_three_standard_errors_of_exact(self):
        support_xs, support_ys, probs = finite_support(self.SPEC)
        beta = np.array([0.3, -0.1])
        exact = float(((support_ys - support_xs @ beta) ** 2) @ probs)
        # E[y] = 1/2, E[xx'] = I/2 and E[yx] = beta*/2 give the closed form
        # 1/2 - <beta, beta*> + ||beta||^2 / 2.
        beta_star = np.asarray(self.SPEC.beta_star)
        assert exact == pytest.approx(0.5 - beta @ beta_star + beta @ beta / 2.0, rel=1e-12)
        estimate, std_error = prediction_error_mc(beta, self.SPEC, 2000, self.SEED)
        assert abs(estimate - exact) <= 3.0 * std_error, (estimate, exact, std_error)

    def test_mean_ridge_loo_fast_is_within_three_standard_errors_of_exact(self):
        n, m = 8, 2000
        support_xs, support_ys, probs = finite_support(self.SPEC)
        xs, ys, weights = multiset_samples(support_xs, support_ys, probs, n)
        exact = float(weights @ _ridge_loo_sq_residuals_stacked(xs, ys, self.LAM).mean(axis=1))
        sample_xs, sample_ys = sample_stack(self.SPEC, n, self.SEED.child_seeds(0, m))
        values = np.array([ridge_loo_fast(Dataset(x, y), self.LAM)
                           for x, y in zip(sample_xs, sample_ys)])
        std_error = values.std(ddof=1) / math.sqrt(m)
        assert abs(values.mean() - exact) <= 3.0 * std_error, (values.mean(), exact, std_error)
