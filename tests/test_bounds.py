import dataclasses
import math

import numpy as np
import pytest

from stabilab.bounds import (
    KAPPA,
    GammaSet,
    efron_stein_moment_check,
    gamma_set,
    moment_bound_generic,
    pac_bound_bounded,
    pac_bound_subgaussian,
    ridge_moment_bound,
    ridge_variance_term_bound,
)
from stabilab import bounds, datagen
from stabilab.harness import (
    _MIN_REPS,
    _Q_RANGE,
    EFRON_STEIN_STATS,
    AlgorithmConfig,
    ExperimentConfig,
)
from stabilab.datagen import DataSpec, SeedSpec, replace_point, sample_dataset
from stabilab.stability import power_mean_root, ridge_gamma_q

from oracles import (
    TailSpec,
    bounded_tail_spec,
    subgaussian_tail_spec,
    tail_prob_bound,
    tail_threshold,
)
from test_acceptance import NOISY_SPEC, RADEMACHER_Y_SPEC

REFERENCE_GAMMAS = gamma_set(1.0, 1.0, 0.5)

GAUSSIAN_CUBE_SPEC = DataSpec(
    d=3,
    x_family="uniform_cube",
    b_x=1.0,
    y_model="linear_gaussian",
    beta_star=(0.3, -0.2, 0.1),
    noise_scale=0.5,
)


class TestGammaSet:
    def test_reference_pins(self):
        g = REFERENCE_GAMMAS
        assert g.gamma1 == pytest.approx(9.0191, rel=1e-3)
        assert g.gamma2 == pytest.approx(221.288, rel=1e-3)
        assert g.gamma3 == pytest.approx(20.0, rel=1e-12)
        assert KAPPA == 1.271
        # The set holds the three constants and their sum, nothing else.
        assert [f.name for f in dataclasses.fields(g)] == ["gamma1", "gamma2", "gamma3"]
        assert g.total == g.gamma1 + g.gamma2 + g.gamma3

    def test_recomputable_from_parameters(self):
        for b_x, lam, eta in ((1.0, 1.0, 0.5), (1.3, 0.7, 0.4), (0.5, 2.0, 0.9)):
            g = gamma_set(b_x, lam, eta)
            b2 = b_x**2
            contraction = (1 + (b2 + lam) / (lam * (1 - eta))) * (1 + b2 / lam)
            assert g.gamma1 == pytest.approx(8 * math.sqrt(KAPPA) * b2 / lam, rel=1e-12)
            assert g.gamma2 == pytest.approx(
                2 * math.sqrt(KAPPA) * b2 / lam
                * ((8 + math.sqrt(2)) * contraction + 4 * b2 / lam),
                rel=1e-12,
            )
            assert g.gamma3 == pytest.approx(2 * b2 / lam * contraction, rel=1e-12)

    def test_kappa_enters_only_first_two(self):
        # gamma3 carries no kappa factor: gamma1/sqrt(kappa) is the
        # kappa-free value 8, while gamma3 is already kappa-free.
        g = REFERENCE_GAMMAS
        assert g.gamma1 / math.sqrt(KAPPA) == pytest.approx(8.0, rel=1e-12)
        assert g.gamma3 == pytest.approx(20.0, rel=1e-12)

    def test_large_lambda_limit(self):
        g = gamma_set(1.0, 1e6, 0.5)
        assert g.gamma1 <= 1e-4 and g.gamma2 <= 1e-4 and g.gamma3 <= 1e-4

    def test_validation(self):
        with pytest.raises(ValueError, match="eta"):
            gamma_set(1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="eta"):
            gamma_set(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            gamma_set(-1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            gamma_set(1.0, 0.0, 0.5)


class TestMomentBoundGeneric:
    def test_all_zero_inputs(self):
        assert moment_bound_generic(0.0, 0.0, 0.0, 2.0, 50) == 0.0

    def test_plugin_algebra(self):
        n = 64
        expected = math.sqrt(2 * KAPPA * n) * (math.sqrt(2) + 4.0) / n
        assert moment_bound_generic(1 / n, 1 / n, 0.0, 2.0, n) == pytest.approx(
            expected, rel=1e-12
        )

    def test_regression_pin(self):
        value = moment_bound_generic(0.01, 0.012, 0.5, 2.0, 100)
        assert value == pytest.approx(1.150209016467911, rel=1e-12)

    def test_q_below_two_rejected(self):
        with pytest.raises(ValueError, match="q"):
            moment_bound_generic(0.1, 0.1, 0.1, 1.5, 10)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            moment_bound_generic(-0.1, 0.1, 0.1, 2.0, 10)


class TestVarianceTermBound:
    def test_zero_norms(self):
        assert ridge_variance_term_bound(1.0, 1.0, 0.0, 0.0) == 0.0

    def test_unit_case(self):
        assert ridge_variance_term_bound(1.0, 1.0, 1.0, 1.0) == pytest.approx(8.0)

    def test_lambda_two(self):
        assert ridge_variance_term_bound(1.0, 2.0, 1.0, 1.0) == pytest.approx(3.0)


class TestRidgeMomentBound:
    def test_zero_norms(self):
        g = REFERENCE_GAMMAS
        assert ridge_moment_bound(g, 2.0, 100, 0.0, 0.0, centered=True) == 0.0
        assert ridge_moment_bound(g, 2.0, 100, 0.0, 0.0, centered=False) == 0.0

    def test_uncentered_offset_identity(self):
        g = REFERENCE_GAMMAS
        for q, n, ny, n2y in ((2.0, 100, 1.0, 1.0), (4.0, 37, 0.3, 0.9)):
            gap = ridge_moment_bound(g, q, n, ny, n2y, centered=False) - ridge_moment_bound(
                g, q, n, ny, n2y, centered=True
            )
            assert gap == pytest.approx(g.gamma3 / n * n2y**2, rel=1e-12)

    def test_offset_equals_stability_coefficient(self):
        # The uncentered correction gamma3 * ||Y||^2 / n IS the closed-form
        # stability value at the same configuration (b_x = 1, lam = 1,
        # eta = 0.5).
        g = REFERENCE_GAMMAS
        n, norm = 100, 0.8
        gamma = ridge_gamma_q(1.0, 1.0, 0.5, n, norm)
        assert gamma == pytest.approx(g.gamma3 * norm**2 / n, rel=1e-12)

    def test_reference_value(self):
        g = REFERENCE_GAMMAS
        expected = math.sqrt(2.0) / 10.0 * (g.gamma1 + g.gamma2) + g.gamma3 / 100.0
        value = ridge_moment_bound(g, 2.0, 100, 1.0, 1.0, centered=False)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(32.77, rel=1e-3)

    def test_preconditions(self):
        g = REFERENCE_GAMMAS
        with pytest.raises(ValueError):
            ridge_moment_bound(g, 1.0, 100, 1.0, 1.0, centered=True)
        with pytest.raises(ValueError):
            ridge_moment_bound(g, 2.0, 2, 1.0, 1.0, centered=True)


class TestTailConversion:
    def test_single_term_threshold(self):
        spec = TailSpec(c=1.0, q0=2.0, terms=((0.5, 0.5),))
        assert tail_threshold(spec, 2.0) == pytest.approx(
            0.5 * math.sqrt(4.0 * math.e), rel=1e-12
        )
        assert tail_threshold(spec, 2.0) == pytest.approx(1.6487212707001282, rel=1e-10)

    def test_threshold_vanishes_at_origin(self):
        spec = TailSpec(c=1.0, q0=2.0, terms=((1.0, 0.5), (2.0, 1.5)))
        assert tail_threshold(spec, 1e-12) < 1e-5

    def test_two_term_threshold(self):
        spec = TailSpec(c=1.0, q0=2.0, terms=((1.0, 0.5), (2.0, 1.5)))
        expected = math.sqrt(2 * math.e) + 2.0 * (2 * math.e) ** 1.5
        assert tail_threshold(spec, 1.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(27.684, rel=1e-3)

    def test_threshold_strictly_increasing(self):
        spec = TailSpec(c=1.0, q0=2.0, terms=((1.0, 0.5), (0.3, 2.0)))
        xs = np.linspace(0.1, 5.0, 40)
        vals = [tail_threshold(spec, float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_prob_bound_value(self):
        spec = TailSpec(c=1.0, q0=2.0, terms=((1.0, 0.5),))
        assert tail_prob_bound(spec, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_prob_bound_decreasing_and_exponential(self):
        spec = TailSpec(c=2.0, q0=3.0, terms=((1.0, 1.0),))
        v1, v2, v4 = (tail_prob_bound(spec, x) for x in (1.0, 2.0, 4.0))
        assert v1 > v2 > v4
        assert v4 / v2 == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            TailSpec(c=1.0, q0=2.0, terms=())
        with pytest.raises(ValueError):
            TailSpec(c=0.0, q0=2.0, terms=((1.0, 0.5),))
        with pytest.raises(ValueError):
            TailSpec(c=1.0, q0=2.0, terms=((1.0, -0.5),))
        spec = TailSpec(c=1.0, q0=2.0, terms=((1.0, 0.5),))
        with pytest.raises(ValueError):
            tail_threshold(spec, 0.0)
        with pytest.raises(ValueError):
            tail_prob_bound(spec, -1.0)


class TestPacBounds:
    def test_bounded_zero_label_bound(self):
        assert pac_bound_bounded(REFERENCE_GAMMAS, 0.0, 100, 1.0) == 0.0

    def test_bounded_scaling_in_n(self):
        a = pac_bound_bounded(REFERENCE_GAMMAS, 1.0, 100, 1.0)
        b = pac_bound_bounded(REFERENCE_GAMMAS, 1.0, 400, 1.0)
        assert b == pytest.approx(a / 2.0, rel=1e-12)

    def test_bounded_reference_value(self):
        value = pac_bound_bounded(REFERENCE_GAMMAS, 1.0, 100, 1.0)
        expected = math.sqrt(2 * math.e / 100) * REFERENCE_GAMMAS.total
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(58.36, rel=1e-3)

    def test_bounded_matches_tail_threshold(self):
        for n in (10, 100, 1000):
            for x in (0.5, 1.0, 3.0):
                spec = bounded_tail_spec(REFERENCE_GAMMAS, 0.7, n)
                direct = pac_bound_bounded(REFERENCE_GAMMAS, 0.7, n, x)
                assert abs(direct - tail_threshold(spec, x)) <= 1e-12 * direct

    def test_bounded_failure_probability(self):
        spec = bounded_tail_spec(REFERENCE_GAMMAS, 0.7, 100)
        for x in (1.0, 2.0, 3.0):
            assert tail_prob_bound(spec, x) == pytest.approx(
                math.e * math.exp(-x), rel=1e-12
            )

    def test_subgaussian_vanishing_limit(self):
        # With mean zero the bound is exactly linear in v, so it vanishes
        # as v -> 0+.
        unit = pac_bound_subgaussian(REFERENCE_GAMMAS, 0.0, 1.0, 100, 1.0)
        tiny = pac_bound_subgaussian(REFERENCE_GAMMAS, 0.0, 1e-12, 100, 1.0)
        assert tiny == pytest.approx(unit * 1e-12, rel=1e-12)
        assert tiny < 1e-6

    def test_subgaussian_scaling_envelope(self):
        for mean_y, v in ((1.0, 0.01), (0.1, 1.0), (1.0, 1.0)):
            r = pac_bound_subgaussian(
                REFERENCE_GAMMAS, mean_y, v, 100, 4.0
            ) / pac_bound_subgaussian(REFERENCE_GAMMAS, mean_y, v, 100, 1.0)
            assert 2.0 - 1e-9 <= r <= 8.0 + 1e-9

    def test_subgaussian_reference_value(self):
        g = REFERENCE_GAMMAS
        value = pac_bound_subgaussian(g, 1.0, 1.0, 100, 1.0)
        expected = (
            2 * math.sqrt(2 * math.e) * g.total
            + 16 * math.e**2 * (2 * math.e) ** 1.5 * g.total
        ) / 10.0
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(37628.63564180757, rel=1e-10)

    def test_subgaussian_matches_tail_threshold(self):
        for n in (25, 400):
            for x in (0.5, 2.0):
                spec = subgaussian_tail_spec(REFERENCE_GAMMAS, 0.3, 0.8, n)
                direct = pac_bound_subgaussian(REFERENCE_GAMMAS, 0.3, 0.8, n, x)
                assert abs(direct - tail_threshold(spec, x)) <= 1e-12 * direct

    def test_preconditions(self):
        with pytest.raises(ValueError):
            pac_bound_bounded(REFERENCE_GAMMAS, 1.0, 100, 0.0)
        with pytest.raises(ValueError):
            pac_bound_bounded(REFERENCE_GAMMAS, 1.0, 2, 1.0)
        with pytest.raises(ValueError):
            pac_bound_subgaussian(REFERENCE_GAMMAS, 1.0, 0.0, 100, 1.0)


class TestEfronStein:
    def test_constant_statistic(self):
        res = efron_stein_moment_check(
            "constant", RADEMACHER_Y_SPEC, 10, 2.0, 50, SeedSpec(41)
        )
        assert res.lhs == 0.0 and res.rhs == 0.0
        assert res.passed

    def test_rademacher_mean_closed_form(self):
        # Y is a symmetric sign variable, so Z = mean(Y) has
        # ||Z - EZ||_2 = 1/sqrt(n), and E sum_j (Z - Z'_j)^2 = 2/n gives
        # rhs -> sqrt(4*kappa) * sqrt(2/n) = 2 sqrt(2*kappa) / sqrt(n).
        n, reps = 25, 600
        res = efron_stein_moment_check(
            "mean", RADEMACHER_Y_SPEC, n, 2.0, reps, SeedSpec(42)
        )
        lhs_target = 1.0 / math.sqrt(n)
        rhs_target = 2.0 * math.sqrt(2.0 * KAPPA) / math.sqrt(n)
        assert rhs_target == pytest.approx(3.1887 / math.sqrt(n), rel=1e-3)
        assert res.lhs == pytest.approx(lhs_target, abs=3 * res.lhs_std_error)
        assert res.rhs == pytest.approx(rhs_target, abs=3 * res.rhs_std_error)
        assert res.passed

    def test_ridge_loo_statistic_passes(self):
        res = efron_stein_moment_check(
            "ridge_loo", NOISY_SPEC, 20, 2.0, 150, SeedSpec(44), ridge_lam=0.5
        )
        assert (res.f, res.n, res.q) == ("ridge_loo", 20, 2.0)
        assert res.lhs <= res.rhs + 3.0 * (res.lhs_std_error + res.rhs_std_error)
        assert res.passed

    @pytest.mark.parametrize("f", EFRON_STEIN_STATS)
    def test_runs_at_every_edge_a_config_admits(self, f):
        # The config is the only check of n, q and reps, so each statistic
        # must give finite sides at n = 2, the fewest reps and both ends of
        # the q range that an efron_stein config admits.
        qs = _Q_RANGE["efron_stein"]
        reps = _MIN_REPS["efron_stein"]
        ExperimentConfig(kind="efron_stein", spec=NOISY_SPEC,
                         algorithm=AlgorithmConfig(name="ridge", lam=(1.0,), eta=0.5),
                         n_grid=(2,), q_grid=qs, x_grid=(1.0,), reps=reps, test_m=300,
                         base_seed=0, out_dir="out")
        for q in qs:
            res = efron_stein_moment_check(f, NOISY_SPEC, 2, q, reps, SeedSpec(45))
            assert (res.f, res.n, res.q) == (f, 2, q)
            for side in (res.lhs, res.rhs, res.lhs_std_error, res.rhs_std_error):
                assert math.isfinite(side) and side >= 0.0


def _reference_efron_stein(f, spec, n, q, reps, seed, ridge_lam=1.0):
    """efron_stein_moment_check one dataset at a time: each drawn alone
    with sample_dataset from its own stream."""
    stat = bounds.STAT_REGISTRY[f]
    mean_seed = seed.child(0)
    ez_vals = np.empty(2 * reps)
    for r in range(2 * reps):
        ez_vals[r] = stat(sample_dataset(spec, n, mean_seed.child(r)), ridge_lam)
    ez = float(np.mean(ez_vals))

    main_seed = seed.child(1)
    centered_pow = np.empty(reps)
    sumsq_pow = np.empty(reps)
    for r in range(reps):
        seed_r = main_seed.child(r)
        data = sample_dataset(spec, n, seed_r.child(0))
        fresh = sample_dataset(spec, n, seed_r.child(1))
        z = stat(data, ridge_lam)
        sumsq = 0.0
        for j, z_new in enumerate(zip(fresh.xs, fresh.ys.tolist()), start=1):
            sumsq += (z - stat(replace_point(data, j, z_new), ridge_lam)) ** 2
        centered_pow[r] = abs(z - ez) ** q
        sumsq_pow[r] = sumsq ** (q / 2.0)

    lhs, lhs_se = power_mean_root(centered_pow, q)
    rhs, rhs_se = power_mean_root(sumsq_pow, q, scale=math.sqrt(2.0 * KAPPA * q))
    passed = lhs <= rhs + 3.0 * (lhs_se + rhs_se) + bounds._FP_NOISE_FLOOR
    return bounds.EfronSteinRow(f, n, q, lhs, rhs, lhs_se, rhs_se, passed)


class TestEfronSteinStackedDraws:
    @pytest.mark.parametrize("chunk", [3, None], ids=["chunk3", "default_chunk"])
    @pytest.mark.parametrize("f", ["constant", "mean", "ridge_loo"])
    @pytest.mark.parametrize(
        "spec", [RADEMACHER_Y_SPEC, NOISY_SPEC, GAUSSIAN_CUBE_SPEC],
        ids=["rademacher_d1", "noisy_ball_d2", "gaussian_cube_d3"],
    )
    def test_rows_match_the_per_dataset_loop_bitwise(self, monkeypatch, spec, f, chunk):
        n, reps, q = 8, 7, 4.0
        if chunk is not None:
            monkeypatch.setattr(datagen, "_CHUNK_BYTES", 8 * n * spec.d * chunk)
        # Neither 7 nor 14 replications is a multiple of the chunk, so the EZ
        # and the main loop both end on a partial chunk.
        assert reps % datagen._chunk_reps(n, spec.d) != 0
        assert (2 * reps) % datagen._chunk_reps(n, spec.d) != 0
        seed = SeedSpec(47)
        row = efron_stein_moment_check(f, spec, n, q, reps, seed, ridge_lam=0.5)
        reference = _reference_efron_stein(f, spec, n, q, reps, seed, ridge_lam=0.5)
        assert dataclasses.astuple(row) == dataclasses.astuple(reference)
        if f != "constant":
            assert row.lhs > 0.0

    def test_one_swap_and_one_statistic_call_per_swapped_point(self, monkeypatch):
        n, reps = 6, 5
        calls = {"swaps": 0, "stats": 0}
        replace, loo = bounds.replace_point, bounds.ridge_loo_fast

        def counting_replace(*args):
            calls["swaps"] += 1
            return replace(*args)

        def counting_loo(*args):
            calls["stats"] += 1
            return loo(*args)

        monkeypatch.setattr(bounds, "replace_point", counting_replace)
        monkeypatch.setattr(bounds, "ridge_loo_fast", counting_loo)
        efron_stein_moment_check("ridge_loo", NOISY_SPEC, n, 2.0, reps, SeedSpec(48))
        assert calls == {"swaps": reps * n, "stats": 2 * reps + reps + reps * n}
