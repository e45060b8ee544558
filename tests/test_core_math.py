import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabilab.core_math import harville_residual, operator_norm, solve_regularized


class TestSolveRegularized:
    def test_zero_matrix_is_identity_solve(self):
        v = solve_regularized(np.zeros((2, 2)), 1.0, np.array([3.0, 4.0]))
        np.testing.assert_allclose(v, [3.0, 4.0], rtol=1e-12)

    def test_identity_with_unit_shift(self):
        v = solve_regularized(np.eye(2), 1.0, np.array([2.0, 2.0]))
        np.testing.assert_allclose(v, [1.0, 1.0], rtol=1e-12)

    def test_two_by_two_against_hand_solution(self):
        # [[2.5, 1], [1, 2.5]] v = (1, 0) has det 21/4, so v = (10/21, -4/21).
        s = np.array([[2.0, 1.0], [1.0, 2.0]])
        v = solve_regularized(s, 0.5, np.array([1.0, 0.0]))
        np.testing.assert_allclose(v, [10.0 / 21.0, -4.0 / 21.0], rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            solve_regularized(np.eye(2), 1.0, np.ones(3))

    def test_nonfinite_entries(self):
        bad = np.array([[1.0, 0.0], [0.0, np.nan]])
        with pytest.raises(ValueError, match="non-finite"):
            solve_regularized(bad, 1.0, np.ones(2))
        with pytest.raises(ValueError, match="non-finite"):
            solve_regularized(np.eye(2), 1.0, np.array([1.0, np.inf]))

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError, match="positive"):
            solve_regularized(np.eye(2), 0.0, np.ones(2))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            solve_regularized(np.array([[1.0, 0.5], [0.0, 1.0]]), 1.0, np.ones(2))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="semidefinite"):
            solve_regularized(-np.eye(2), 0.1, np.ones(2))

    def test_stack_solves_as_alone_and_checks_every_matrix(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 3, 3))
        s = a @ a.swapaxes(1, 2)
        b = rng.standard_normal((5, 3))
        v = solve_regularized(s, 0.5, b)
        for i in range(5):
            assert np.array_equal(v[i], solve_regularized(s[i], 0.5, b[i]))
        with pytest.raises(ValueError, match="dimension mismatch"):
            solve_regularized(s, 0.5, b[:4])
        asymmetric = s.copy()
        asymmetric[2, 0, 1] += 1.0
        with pytest.raises(ValueError, match="symmetric"):
            solve_regularized(asymmetric, 0.5, b)
        s[4] = -np.eye(3)
        with pytest.raises(ValueError, match="semidefinite"):
            solve_regularized(s, 0.5, b)

    @settings(deadline=None, max_examples=50)
    @given(
        seed=st.integers(0, 10_000),
        d=st.integers(1, 6),
        lam=st.floats(0.1, 10.0),
    )
    def test_inverse_map_norm_bound(self, seed, d, lam):
        # ||(M + lam I)^-1 b|| <= ||b|| / lam for any PSD M.
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((d, d))
        m = a @ a.T
        b = rng.standard_normal(d)
        v = solve_regularized(m, lam, b)
        assert np.linalg.norm(v) <= np.linalg.norm(b) / lam * (1 + 1e-10)

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 10_000), d=st.integers(1, 6))
    def test_linearity_in_rhs(self, seed, d):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((d, d))
        m = a @ a.T
        b1, b2 = rng.standard_normal(d), rng.standard_normal(d)
        lam = 0.7
        v_sum = solve_regularized(m, lam, b1 + b2)
        v1 = solve_regularized(m, lam, b1)
        v2 = solve_regularized(m, lam, b2)
        np.testing.assert_allclose(v_sum, v1 + v2, atol=1e-10, rtol=1e-10)


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1.0, rel=1e-8)

    def test_symmetric_diagonal(self):
        assert operator_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, rel=1e-8)

    def test_nilpotent(self):
        # singular values of [[0,2],[0,0]] are {2, 0}
        assert operator_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(
            2.0, rel=1e-8
        )

    def test_zero_matrix(self):
        assert operator_norm(np.zeros((3, 3))) == 0.0

    def test_start_vector_in_null_space(self):
        # M (1,1) = 0, so the all-ones start collapses; the deterministic
        # restart must still find sigma_max = 2.
        m = np.array([[1.0, -1.0], [1.0, -1.0]])
        assert operator_norm(m) == pytest.approx(2.0, rel=1e-8)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            operator_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10_000), d=st.integers(1, 6))
    def test_matches_svd(self, seed, d):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((d, d))
        expected = float(np.linalg.svd(m, compute_uv=False)[0])
        assert operator_norm(m) == pytest.approx(expected, rel=1e-7, abs=1e-12)


class TestHarvilleResidual:
    def test_identity_zero_perturbation(self):
        assert harville_residual(np.eye(2), np.zeros((2, 2))) == 0.0

    def test_scaled_identities(self):
        assert harville_residual(2.0 * np.eye(2), np.eye(2)) <= 1e-10

    def test_covariance_style_instance(self):
        rng = np.random.default_rng(7)
        xs = rng.standard_normal((20, 3))
        lam = 0.5
        a = xs.T @ xs / 20 + lam * np.eye(3)
        x_j = xs[3]
        b = -(np.outer(x_j, x_j) + lam * np.eye(3)) / 20
        assert harville_residual(a, b) <= 1e-8

    def test_singular_inputs_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            harville_residual(np.zeros((2, 2)), np.eye(2))
        with pytest.raises(ValueError, match="singular"):
            harville_residual(np.eye(2), -np.eye(2))

    def test_hundred_seeded_instances(self):
        # Well-conditioned random pairs across d = 1..8.
        count = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            d = 1 + seed % 8
            base = rng.standard_normal((2 * d, d))
            a = base.T @ base / (2 * d) + 0.5 * np.eye(d)
            x = rng.standard_normal(d)
            b = -(np.outer(x, x) + 0.5 * np.eye(d)) / (2 * d)
            assert harville_residual(a, b) <= 1e-8
            count += 1
        assert count == 100
