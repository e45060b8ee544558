import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabilab.datagen import (
    X_FAMILIES,
    Y_MODELS,
    DataSpec,
    Dataset,
    SeedSpec,
    leave_one_out,
    replace_point,
    sample_dataset,
    sample_stack,
)
from stabilab.datagen import _as_integer, _pcg64_states

from test_acceptance import GAUSSIAN_SPEC


def ball_spec(**kwargs):
    defaults = dict(
        d=3,
        x_family="uniform_ball",
        b_x=1.0,
        y_model="linear_clipped",
        beta_star=(0.3, 0.2, 0.1),
        noise_scale=0.1,
        b_y=0.5,
    )
    defaults.update(kwargs)
    return DataSpec(**defaults)


_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def _assert_states_match(seeds):
    states = _pcg64_states(seeds)
    assert len(states) == len(seeds)
    for s, (state, inc) in zip(seeds.tolist(), states):
        ref = np.random.PCG64(int(s)).state["state"]
        assert (state, inc) == (ref["state"], ref["inc"]), s


class TestSeedSpec:
    def test_same_inputs_same_stream(self):
        a = SeedSpec(123, 4).generator().random(5)
        b = SeedSpec(123, 4).generator().random(5)
        np.testing.assert_array_equal(a, b)

    def test_child_streams_are_reproducible(self):
        assert SeedSpec(9, 1).child(7) == SeedSpec(9, 1).child(7)

    def test_validation(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(0, -2)

    @pytest.mark.parametrize("base_seed, stream_index", [
        (1.5, 0), (True, 0), (np.bool_(True), 0), (0, 2.7), (0, False),
        (float("nan"), 0), (0, float("inf")), ("1", 0),
    ])
    def test_bool_or_fractional_fields_are_rejected(self, base_seed, stream_index):
        # int() would truncate these onto the streams of other specs.
        with pytest.raises(ValueError, match="must be an integer"):
            SeedSpec(base_seed, stream_index)

    def test_numpy_and_integral_float_fields_are_accepted(self):
        for spec, base_seed in ((SeedSpec(np.uint64(2**64 - 1), np.int32(3)), 2**64 - 1),
                                (SeedSpec(2.0**63, 3.0), 2**63)):
            assert spec.derived_seed() == SeedSpec(base_seed, 3).derived_seed()

    @settings(deadline=None, max_examples=200)
    @given(
        base_seed=st.one_of(st.sampled_from(_EDGE_SEEDS), st.integers(0, 2**64 - 1)),
        start=st.integers(0, 2**40),
        m=st.integers(0, 5),
        stream_index=st.sampled_from([0, 1, 2**64 - 1]),
    )
    def test_grandchild_seeds_and_states_match_the_scalar_path_bitwise(
        self, base_seed, start, m, stream_index
    ):
        spec = SeedSpec(base_seed)
        seeds = spec.grandchild_seeds(start, start + m, stream_index)
        assert seeds.dtype == np.uint64 and seeds.shape == (m,)
        rs = range(start, start + m)
        assert seeds.tolist() == [spec.child(r).child(stream_index).derived_seed() for r in rs]
        # The derived seeds, and the base seed itself (edge values included),
        # as PCG64 seeds.
        _assert_states_match(seeds)
        _assert_states_match(np.array([base_seed], dtype=np.uint64))

    def test_states_of_one_and_two_word_edge_seeds(self):
        # Seeds below 2**32 are one SeedSequence entropy word, the others two.
        _assert_states_match(np.array(_EDGE_SEEDS, dtype=np.uint64))

    def test_grandchild_seeds_validation(self):
        with pytest.raises(ValueError):
            SeedSpec(1).grandchild_seeds(3, 2, 0)
        with pytest.raises(ValueError):
            SeedSpec(1).grandchild_seeds(-1, 2, 0)
        with pytest.raises(ValueError):
            SeedSpec(1).grandchild_seeds(0, 2, -1)

    @settings(deadline=None, max_examples=60)
    @given(
        base_seed=st.sampled_from(_EDGE_SEEDS) | st.integers(0, 2**64 - 1),
        start=st.sampled_from([0, 1, 2**32]) | st.integers(0, 2**40),
        m=st.integers(0, 5),
    )
    def test_child_seeds_match_the_scalar_path_bitwise(self, base_seed, start, m):
        spec = SeedSpec(base_seed)
        seeds = spec.child_seeds(start, start + m)
        assert seeds.dtype == np.uint64 and seeds.shape == (m,)
        rs = range(start, start + m)
        assert seeds.tolist() == [spec.child(r).derived_seed() for r in rs]

    @pytest.mark.parametrize("start, stop", [(0, 0), (7, 7), (3, 5)])
    def test_child_seeds_on_empty_and_offset_ranges(self, start, stop):
        spec = SeedSpec(19, 4)
        seeds = spec.child_seeds(start, stop)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [spec.child(r).derived_seed() for r in range(start, stop)]

    @pytest.mark.parametrize("start, stop", [(3, 2), (-1, 2), (-2, -1)])
    def test_child_seeds_reject_bad_ranges_as_grandchild_seeds_does(self, start, stop):
        with pytest.raises(ValueError, match="0 <= start <= stop"):
            SeedSpec(1).child_seeds(start, stop)
        with pytest.raises(ValueError, match="0 <= start <= stop"):
            SeedSpec(1).grandchild_seeds(start, stop, 0)


class TestAsInteger:
    @pytest.mark.parametrize("value, expected", [
        (7, 7), (-3, -3), (np.int32(5), 5), (np.uint64(2**64 - 1), 2**64 - 1),
        (4.0, 4), (2.0**63, 2**63),
    ])
    def test_integers_and_integral_floats_become_python_ints(self, value, expected):
        out = _as_integer(value, "reps")
        assert type(out) is int and out == expected

    @pytest.mark.parametrize("value", [
        True, np.bool_(False), "3", b"3", 2.5, float("nan"), float("inf"), None, [1],
    ])
    def test_bools_strings_and_fractions_are_rejected_by_name(self, value):
        with pytest.raises(ValueError, match="reps must be an integer"):
            _as_integer(value, "reps")


class TestDataSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="x_family"):
            ball_spec(x_family="exotic")

    def test_beta_length(self):
        with pytest.raises(ValueError, match="beta_star"):
            ball_spec(beta_star=(1.0,))

    def test_clip_bound_must_cover_signal(self):
        with pytest.raises(ValueError, match="b_y"):
            ball_spec(beta_star=(1.0, 1.0, 1.0), b_y=0.5)

    def test_bernoulli_probability_range(self):
        with pytest.raises(ValueError, match="probability"):
            DataSpec(
                d=1,
                x_family="uniform_ball",
                b_x=1.0,
                y_model="bernoulli_label",
                beta_star=(0.0,),
                noise_scale=1.5,
                b_y=1.0,
            )

    def test_missing_b_y(self):
        with pytest.raises(ValueError, match="b_y"):
            ball_spec(b_y=None)

    @pytest.mark.parametrize(
        "noise_scale, beta_star, b_x",
        [(1e-200, (0.0, 0.0), 1.0), (0.0, (1e-200, 0.0), 1e100)],
        ids=["noise_underflow", "signal_underflow"],
    )
    def test_gaussian_proxy_that_rounds_to_zero(self, noise_scale, beta_star, b_x):
        # Nonzero, but subgaussian_v() would derive v = 0.0 (1e-200**2 and
        # ||beta||**2 underflow), a proxy that no sub-Gaussian bound takes.
        gaussian = dict(d=2, x_family="uniform_ball", y_model="linear_gaussian",
                        b_x=b_x, beta_star=beta_star, noise_scale=noise_scale)
        with pytest.raises(ValueError, match="derives the proxy v"):
            DataSpec(**gaussian)


def _reference_sample(spec, n, seed):
    """sample_dataset written with the plain broadcast expressions (norm
    reduce, broadcast scaling, np.clip), drawing the same numbers in the
    same order; the sampler must match it bit for bit."""
    rng = seed.generator()
    d = spec.d
    if spec.x_family == "uniform_ball":
        g = rng.standard_normal((n, d))
        norms = np.linalg.norm(g, axis=1)
        norms[norms == 0.0] = 1.0
        radii = spec.b_x * rng.random(n) ** (1.0 / d)
        xs = g / norms[:, None] * radii[:, None]
    elif spec.x_family == "uniform_cube":
        half = spec.b_x / math.sqrt(d)
        xs = rng.uniform(-half, half, size=(n, d))
    else:
        xs = (rng.integers(0, 2, size=(n, d)) * 2 - 1) * (spec.b_x / math.sqrt(d))
    signal = xs @ np.asarray(spec.beta_star)
    if spec.y_model == "linear_clipped":
        ys = np.clip(signal + spec.noise_scale * rng.standard_normal(n), -spec.b_y, spec.b_y)
    elif spec.y_model == "linear_gaussian":
        ys = signal + spec.noise_scale * rng.standard_normal(n)
    else:
        p = np.clip(spec.noise_scale + signal, 0.0, 1.0)
        ys = (rng.random(n) < p).astype(np.float64)
    return xs, ys


_LABELS = {
    "linear_clipped": dict(noise_scale=0.5, b_y=0.45),  # the clip binds
    "linear_gaussian": dict(noise_scale=0.5),
    "bernoulli_label": dict(noise_scale=0.4, b_y=1.0),
}


def _family_spec(d, x_family, y_model):
    return DataSpec(
        d=d, x_family=x_family, b_x=1.0, y_model=y_model,
        beta_star=tuple([0.3 / math.sqrt(d)] * d), **_LABELS[y_model],
    )


class TestSampling:
    def test_matches_reference_expressions_bitwise(self):
        for d in (1, 2, 3, 7, 8, 12):
            for x_family in X_FAMILIES:
                for y_model in Y_MODELS:
                    spec = _family_spec(d, x_family, y_model)
                    for n in (1, 2, 50, 20000):
                        seed = SeedSpec(d, n)
                        data = sample_dataset(spec, n, seed)
                        xs, ys = _reference_sample(spec, n, seed)
                        where = (d, x_family, y_model, n)
                        assert np.array_equal(data.xs, xs), where
                        assert np.array_equal(data.ys, ys), where

    def test_zero_signal_zero_noise_gives_zero_labels(self):
        spec = ball_spec(beta_star=(0.0, 0.0, 0.0), noise_scale=0.0)
        data = sample_dataset(spec, 50, SeedSpec(1))
        assert np.all(data.ys == 0.0)

    def test_rademacher_norms_are_exact(self):
        spec = DataSpec(
            d=4,
            x_family="rademacher_coords",
            b_x=1.0,
            y_model="linear_clipped",
            beta_star=(0.1, 0.1, 0.1, 0.1),
            noise_scale=0.0,
            b_y=0.5,
        )
        data = sample_dataset(spec, 100, SeedSpec(2))
        norms = np.linalg.norm(data.xs, axis=1)
        np.testing.assert_array_equal(norms, np.ones(100))
        assert set(np.unique(np.abs(data.xs))) == {0.5}

    def test_ball_bound_holds_and_rerun_is_identical(self):
        spec = ball_spec()
        a = sample_dataset(spec, 1000, SeedSpec(3))
        b = sample_dataset(spec, 1000, SeedSpec(3))
        assert np.max(np.linalg.norm(a.xs, axis=1)) <= spec.b_x
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.ys, b.ys)

    def test_cube_bound(self):
        spec = ball_spec(x_family="uniform_cube")
        data = sample_dataset(spec, 500, SeedSpec(4))
        assert np.max(np.linalg.norm(data.xs, axis=1)) <= spec.b_x

    def test_clipped_labels_respect_bound(self):
        spec = ball_spec(noise_scale=5.0)
        data = sample_dataset(spec, 500, SeedSpec(5))
        assert np.max(np.abs(data.ys)) <= spec.b_y

    def test_bernoulli_labels_are_binary(self):
        spec = DataSpec(
            d=2,
            x_family="uniform_ball",
            b_x=1.0,
            y_model="bernoulli_label",
            beta_star=(0.1, 0.1),
            noise_scale=0.5,
            b_y=1.0,
        )
        data = sample_dataset(spec, 200, SeedSpec(6))
        assert set(np.unique(data.ys)) <= {0.0, 1.0}

    def test_stream_independence_over_pairs(self):
        spec = ball_spec()
        differing = 0
        for i in range(100):
            a = sample_dataset(spec, 10, SeedSpec(77, 2 * i))
            b = sample_dataset(spec, 10, SeedSpec(77, 2 * i + 1))
            if not np.array_equal(a.xs, b.xs):
                differing += 1
        assert differing == 100

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            sample_dataset(ball_spec(), 0, SeedSpec(1))


def _derived_seeds(specs):
    return np.array([spec.derived_seed() for spec in specs], dtype=np.uint64)


class TestSampleStack:
    @pytest.mark.parametrize("y_model", Y_MODELS)
    @pytest.mark.parametrize("x_family", X_FAMILIES)
    @settings(deadline=None, max_examples=40)
    @given(
        d=st.sampled_from([1, 2, 3, 7, 8, 12]),
        n=st.sampled_from([1, 2, 50]),
        m=st.sampled_from([1, 2, 37]),
        base_seed=st.integers(0, 2**64 - 1),
    )
    def test_every_stream_matches_reference_bitwise(self, x_family, y_model, d, n, m, base_seed):
        spec = _family_spec(d, x_family, y_model)
        seeds = [SeedSpec(base_seed, i) for i in range(m)]
        xs, ys = sample_stack(spec, n, _derived_seeds(seeds))
        assert xs.shape == (m, n, d) and ys.shape == (m, n)
        for i, seed in enumerate(seeds):
            ref_xs, ref_ys = _reference_sample(spec, n, seed)
            assert np.array_equal(xs[i], ref_xs), i
            assert np.array_equal(ys[i], ref_ys), i

    @pytest.mark.parametrize("y_model", Y_MODELS)
    @pytest.mark.parametrize("n, d", [(1, 1), (3, 1), (1, 3), (5, 3), (25, 1)])
    def test_rademacher_streams_after_an_odd_word_count_match_sample_dataset(self, y_model, n, d):
        # integers(0, 2) takes 32-bit half-words, so an odd n * d leaves one
        # buffered in the bit generator; the next stream must not start
        # from it.
        spec = _family_spec(d, "rademacher_coords", y_model)
        seeds = [SeedSpec(11, i) for i in range(4)]
        xs, ys = sample_stack(spec, n, _derived_seeds(seeds))
        for i, seed in enumerate(seeds):
            data = sample_dataset(spec, n, seed)
            assert np.array_equal(xs[i], data.xs), i
            assert np.array_equal(ys[i], data.ys), i

    def test_held_generator_is_not_disturbed_and_calls_repeat(self):
        spec = _family_spec(3, "rademacher_coords", "bernoulli_label")
        seeds = _derived_seeds([SeedSpec(5, i) for i in range(3)])
        # An odd count of integers(0, 2) leaves a half-word buffered in the
        # held generator, which its next integers() call must use.
        untouched = SeedSpec(9).generator()
        expected = [untouched.integers(0, 2, size=(1, 3)) for _ in range(2)] + [untouched.random(4)]
        held = SeedSpec(9).generator()
        first = held.integers(0, 2, size=(1, 3))
        a = sample_stack(spec, 7, seeds)
        b = sample_stack(spec, 7, seeds)
        after = [held.integers(0, 2, size=(1, 3)), held.random(4)]
        for got, want in zip([first, *after], expected):
            assert np.array_equal(got, want)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_invalid_n_or_no_seeds(self):
        with pytest.raises(ValueError, match="n must be"):
            sample_stack(ball_spec(), 0, _derived_seeds([SeedSpec(1)]))
        with pytest.raises(ValueError, match="at least one seed"):
            sample_stack(ball_spec(), 5, np.array([], dtype=np.uint64))
        with pytest.raises(ValueError, match="at least one seed"):
            sample_stack(ball_spec(), 5, [])
        with pytest.raises(ValueError, match="1-d array"):
            sample_stack(ball_spec(), 5, np.ones((2, 1), dtype=np.uint64))

    def test_non_finite_labels_are_rejected_as_by_sample_dataset(self):
        # |noise| > 1.8 overflows noise_scale * noise; among 50 normal draws
        # some almost surely do.
        spec = DataSpec(d=2, x_family="uniform_ball", b_x=1.0, y_model="linear_gaussian",
                        beta_star=(0.0, 0.0), noise_scale=1e308)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                sample_dataset(spec, 50, SeedSpec(3))
            with pytest.raises(ValueError, match="non-finite"):
                sample_stack(spec, 50, _derived_seeds([SeedSpec(3), SeedSpec(4)]))


class TestSampleSurgery:
    def test_leave_one_out_two_points(self):
        data = Dataset(np.array([[1.0], [2.0]]), np.array([10.0, 20.0]))
        out = leave_one_out(data, 1)
        assert out.n == 1
        assert out.xs[0, 0] == 2.0 and out.ys[0] == 20.0

    def test_leave_one_out_middle(self):
        data = Dataset(np.arange(3.0).reshape(3, 1), np.array([0.0, 1.0, 2.0]))
        out = leave_one_out(data, 2)
        np.testing.assert_array_equal(out.ys, [0.0, 2.0])

    def test_leave_one_out_last_matches_manual_slice(self):
        data = sample_dataset(ball_spec(), 5, SeedSpec(8))
        out = leave_one_out(data, 5)
        np.testing.assert_array_equal(out.xs, data.xs[:4])
        np.testing.assert_array_equal(out.ys, data.ys[:4])

    def test_leave_one_out_errors(self):
        single = Dataset(np.array([[1.0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            leave_one_out(single, 1)
        data = sample_dataset(ball_spec(), 3, SeedSpec(9))
        with pytest.raises(ValueError):
            leave_one_out(data, 0)
        with pytest.raises(ValueError):
            leave_one_out(data, 4)

    def test_removal_then_reinsertion_is_a_permutation(self):
        data = sample_dataset(ball_spec(), 7, SeedSpec(10))
        for j in range(1, 8):
            reduced = leave_one_out(data, j)
            rebuilt_x = np.vstack([reduced.xs, data.xs[j - 1][None, :]])
            rebuilt_y = np.append(reduced.ys, data.ys[j - 1])
            original = np.column_stack([data.xs, data.ys])
            rebuilt = np.column_stack([rebuilt_x, rebuilt_y])
            key = lambda arr: arr[np.lexsort(arr.T)]
            np.testing.assert_array_equal(key(original), key(rebuilt))

    def test_replace_point_identity(self):
        data = sample_dataset(ball_spec(), 4, SeedSpec(11))
        out = replace_point(data, 1, (data.xs[0], float(data.ys[0])))
        np.testing.assert_array_equal(out.xs, data.xs)
        np.testing.assert_array_equal(out.ys, data.ys)

    def test_replace_point_zeroes_one_entry(self):
        data = Dataset(np.ones((2, 2)), np.array([1.0, 1.0]))
        out = replace_point(data, 2, (np.zeros(2), 0.0))
        assert np.all(out.xs[1] == 0.0) and out.ys[1] == 0.0
        assert np.all(out.xs[0] == 1.0)

    def test_replace_point_changes_exactly_one_point(self):
        spec = ball_spec()
        data = sample_dataset(spec, 6, SeedSpec(12))
        fresh = sample_dataset(spec, 1, SeedSpec(13))
        xs_before, ys_before = data.xs.copy(), data.ys.copy()
        out = replace_point(data, 3, (fresh.xs[0], float(fresh.ys[0])))
        np.testing.assert_array_equal(data.xs, xs_before)
        np.testing.assert_array_equal(data.ys, ys_before)
        row_diff = np.any(out.xs != data.xs, axis=1) | (out.ys != data.ys)
        assert np.sum(row_diff) == 1 and row_diff[2]

    def test_replace_point_errors(self):
        data = sample_dataset(ball_spec(), 3, SeedSpec(14))
        with pytest.raises(ValueError):
            replace_point(data, 4, (np.zeros(3), 0.0))
        with pytest.raises(ValueError):
            replace_point(data, 1, (np.zeros(2), 0.0))
        with pytest.raises(ValueError):
            replace_point(data, 1, (np.array([0.0, np.nan, 0.0]), 0.0))
        with pytest.raises(ValueError):
            replace_point(data, 1, (np.zeros(3), np.inf))

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_replace_point_rejects_every_non_finite_entry(self, d, bad):
        data = sample_dataset(ball_spec(d=d, beta_star=(0.1,) * d), 3, SeedSpec(15))
        non_finite = "replacement point contains non-finite entries"
        for c in range(d):
            x_new = np.zeros(d)
            x_new[c] = bad
            with pytest.raises(ValueError, match=non_finite):
                replace_point(data, 2, (x_new, 0.0))
        with pytest.raises(ValueError, match=non_finite):
            replace_point(data, 2, (np.zeros(d), bad))
        with pytest.raises(ValueError, match=rf"replacement x must have shape \({d},\)"):
            replace_point(data, 2, (np.zeros(d + 1), 0.0))
        with pytest.raises(ValueError, match=rf"replacement x must have shape \({d},\)"):
            replace_point(data, 2, (np.zeros((1, d)), 0.0))
        for j in (0, 4):
            with pytest.raises(ValueError, match=f"index j={j} out of range 1..3"):
                replace_point(data, j, (np.zeros(d), 0.0))


class TestAssumptions:
    """Features and labels meet the declared bounds and proxy by construction."""

    @staticmethod
    def assert_within_bounds(data, spec):
        # One ulp-scale excursion from the norm computation itself is allowed.
        assert np.linalg.norm(data.xs, axis=1).max() <= spec.b_x * (1.0 + 1e-12)
        assert np.abs(data.ys).max() <= spec.b_y

    def test_zero_labels_within_bounds(self):
        spec = ball_spec(beta_star=(0.0, 0.0, 0.0), noise_scale=0.0, b_y=1.0)
        data = sample_dataset(spec, 50, SeedSpec(15))
        assert np.abs(data.ys).max() == 0.0
        self.assert_within_bounds(data, spec)

    def test_ball_radius_two(self):
        spec = ball_spec(b_x=2.0, b_y=1.0)
        self.assert_within_bounds(sample_dataset(spec, 400, SeedSpec(16)), spec)

    def test_subgaussian_ratios_stay_small(self):
        # ||Y - mean(Y)||_q / (2e sqrt(v q)) stays at or below 1 for the
        # derived proxy v = noise_scale^2 = 0.25, up to sampling noise.
        spec = DataSpec(
            d=2,
            x_family="uniform_ball",
            b_x=1.0,
            y_model="linear_gaussian",
            beta_star=(0.0, 0.0),
            noise_scale=0.5,
        )
        v = spec.subgaussian_v()
        assert v == 0.25
        ys = sample_dataset(spec, 10_000, SeedSpec(17)).ys
        centered = np.abs(ys - ys.mean())
        for q in (2, 4, 8):
            ratio = np.mean(centered**q) ** (1.0 / q) / (2.0 * math.e * math.sqrt(v * q))
            assert ratio <= 1.1

    def test_default_proxy_dominates_log_mgf(self):
        # log E exp(tY) <= v t^2 / 2 with the default v = sigma^2 +
        # ||beta||^2 b_x^2, on |t| sqrt(v) <= 3; EY = 0 by symmetry.  The
        # signal's variance is ||beta||^2 b_x^2 / (d + 2), so this reads
        # about 0.38 of the bound.
        spec = GAUSSIAN_SPEC
        v = spec.subgaussian_v()
        ts = np.array([-3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0]) / math.sqrt(v)
        ys = sample_dataset(spec, 100_000, SeedSpec(18)).ys
        log_mgf = np.log(np.exp(np.outer(ts, ys)).mean(axis=1))
        assert np.all(log_mgf <= v * ts**2 / 2.0)

    def test_derived_v_for_gaussian_model(self):
        spec = DataSpec(
            d=1,
            x_family="uniform_ball",
            b_x=2.0,
            y_model="linear_gaussian",
            beta_star=(0.5,),
            noise_scale=0.3,
        )
        assert spec.subgaussian_v() == pytest.approx(0.3**2 + 0.25 * 4.0)
