import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabilab.core_math import solve_regularized, solve_stack


class TestSolveStack:
    """solve_stack calls numpy's private solve gufunc; these pin it to the
    public np.linalg.solve, bit for bit, so a numpy upgrade that changes
    the gufunc fails here rather than in the emitted bytes."""

    @pytest.mark.parametrize("m", [1, 16])
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_matches_np_linalg_solve_bitwise(self, d, m):
        rng = np.random.default_rng(100 * d + m)
        n = 20
        for _ in range(10):
            xs = rng.uniform(-1.0, 1.0, (m, n, d))
            a = xs.swapaxes(1, 2) @ xs + rng.uniform(0.01, 10.0) * np.eye(d)
            one = rng.standard_normal((m, d, 1))
            many = xs.swapaxes(1, 2)
            got_one, got_many = solve_stack(a, one, many)
            assert np.array_equal(got_one, np.linalg.solve(a, one))
            assert np.array_equal(got_many, np.linalg.solve(a, many))

    def test_exactly_singular_system_raises(self):
        with pytest.raises(ArithmeticError):
            solve_stack(np.zeros((1, 2, 2)), np.ones((1, 2, 1)))
        stack = np.stack([np.eye(3), np.zeros((3, 3))])
        with pytest.raises(ArithmeticError):
            solve_stack(stack, np.ones((2, 3, 1)), np.ones((2, 3, 4)))


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

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError, match="positive"):
            solve_regularized(np.eye(2), 0.0, np.ones(2))

    def test_stack_solves_as_alone(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 3, 3))
        s = a @ a.swapaxes(1, 2)
        b = rng.standard_normal((5, 3))
        v = solve_regularized(s, 0.5, b)
        for i in range(5):
            assert np.array_equal(v[i], solve_regularized(s[i], 0.5, b[i]))

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
