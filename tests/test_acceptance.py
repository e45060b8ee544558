"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np
import pytest

import references
from references import workloads
from oracles import bounded_tail_spec, ridge_objective, subgaussian_tail_spec, tail_threshold

from stabilab.bounds import (
    KAPPA,
    efron_stein_moment_check,
    gamma_set,
    pac_bound_bounded,
    pac_bound_subgaussian,
)
from stabilab.datagen import DataSpec, Dataset, SeedSpec, sample_dataset
from stabilab.harness import (
    emit_report,
    run_coverage,
    run_efron_stein,
    run_experiment,
    run_rate,
    run_stability_sweep,
)
from stabilab.learners import (
    RidgeAlgorithm,
    loo_estimate,
    ridge_fit,
    ridge_loo_fast,
)
from stabilab.stability import knn_gamma_1, ridge_param_diff_check

# The benchmark's data specs (perfbench/workloads.py).  ANALYTIC_SPEC has
# clipped linear labels over sign-pattern features: |Y| has exactly two
# levels, so every population norm used by the bounds is available in
# closed form.
ANALYTIC_SPEC = DataSpec(**workloads.ANALYTIC_SPEC)
NOISY_SPEC = DataSpec(**workloads.NOISY_SPEC)
BERNOULLI_SPEC = DataSpec(**workloads.BERNOULLI_SPEC)
RADEMACHER_Y_SPEC = DataSpec(**workloads.RADEMACHER_Y_SPEC)

# Unbounded Gaussian labels with the derived proxy v = sigma^2 + ||beta||^2
# b_x^2, the spec of the g_* configs of tests/reference/: tests/test_datagen.py's
# proxy check and tests/test_harness.py use it.
GAUSSIAN_SPEC = DataSpec(
    d=2,
    x_family="uniform_ball",
    b_x=1.0,
    y_model="linear_gaussian",
    beta_star=(0.4, 0.2),
    noise_scale=0.2,
)


def _report(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: PASS{suffix}")


def _assert_matches_benchmark(report, label, tmp_path) -> None:
    """The report of the benchmark config ``label`` emits exactly the files
    of perfbench/reference/<label>/, byte for byte (checked only under the
    recording environment of tests/reference_environment.json, as in
    tests/test_references.py)."""
    note = references.environment_note()
    if note is not None:
        pytest.skip(note)
    written = emit_report(report, references.FORMATS, out_dir=tmp_path / label)
    comparison = references.reference_comparison(label, written)
    assert [name for name, same in comparison.items() if not same] == []


def _random_instance(seed: int, max_d: int = 8, max_n: int = 64):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, max_d + 1))
    n = int(rng.integers(max(2, d), max_n + 1))
    xs = rng.uniform(-1.0, 1.0, size=(n, d))
    ys = rng.standard_normal(n)
    return Dataset(xs, ys), rng


def test_criterion_1_ridge_gradient():
    start = time.monotonic()
    for seed in range(50):
        data, rng = _random_instance(seed, max_n=256)
        lam = float(rng.uniform(0.05, 2.0))
        beta = ridge_fit(data, lam)
        obj = ridge_objective(data, lam, beta)
        h = 1e-6
        grad = np.empty_like(beta)
        for i in range(beta.size):
            up, down = beta.copy(), beta.copy()
            up[i] += h
            down[i] -= h
            grad[i] = (
                ridge_objective(data, lam, up) - ridge_objective(data, lam, down)
            ) / (2 * h)
        assert np.linalg.norm(grad) <= 1e-6 * (1.0 + obj)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report("criterion 1 ridge gradient", f"50 instances in {elapsed:.2f}s")


def test_criterion_2_loo_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for seed in range(100):
        data, rng = _random_instance(seed)
        lam = float(rng.uniform(0.05, 3.0))
        fast = ridge_loo_fast(data, lam)
        naive = loo_estimate(RidgeAlgorithm(lam), data)
        worst = max(worst, abs(fast - naive) / max(naive, 1e-300))
    assert worst <= 1e-9

    # Hand case: d=1, X=(1,1), Y=(0,2), lam=1.  A one-point refit solves
    # (x^2 + lam) b = x y, so b = y_kept/2; the held-out costs are
    # (0 - 1)^2 = 1 and (2 - 0)^2 = 4, averaging to 2.5.
    hand = Dataset(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]))
    hand_oracle = ((0.0 - 2.0 / 2.0) ** 2 + (2.0 - 0.0 / 2.0) ** 2) / 2.0
    assert hand_oracle == 2.5
    assert ridge_loo_fast(hand, 1.0) == pytest.approx(hand_oracle, rel=1e-12)
    assert loo_estimate(RidgeAlgorithm(1.0), hand) == pytest.approx(
        hand_oracle, rel=1e-12
    )
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(
        "criterion 2 LoO oracle equivalence",
        f"max rel diff {worst:.2e}, hand case 2.5, {elapsed:.2f}s",
    )


def test_criterion_3_parameter_difference_inequality():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    violations = 0
    for seed in range(500):
        n = int(rng.integers(5, 48))
        data = sample_dataset(NOISY_SPEC, n, SeedSpec(seed))
        eta = float(rng.uniform(0.3, 0.8))
        lam_floor = max(
            NOISY_SPEC.b_x**2 / (n * eta - 1.0), 1.0 / (eta * (n - 1))
        )
        lam = float(rng.uniform(lam_floor + 0.05, lam_floor + 3.0))
        j = int(rng.integers(1, n + 1))
        lhs, rhs = ridge_param_diff_check(data, j, lam=lam, eta=eta, b_x=NOISY_SPEC.b_x)
        if lhs > rhs * (1 + 1e-12):
            violations += 1
    assert violations == 0
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(
        "criterion 3 parameter-difference inequality",
        f"500 instances, 0 violations, {elapsed:.2f}s",
    )


def test_criterion_4_ridge_stability_dominance(tmp_path):
    start = time.monotonic()
    report = run_stability_sweep(references.benchmark_configs()["c4_ridge_sweep"])
    assert len(report.rows) == 18
    assert all(r.dominated == "true" for r in report.rows)
    _assert_matches_benchmark(report, "c4_ridge_sweep", tmp_path)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report("criterion 4 ridge dominance", f"18 rows dominated in {elapsed:.2f}s")


def test_criterion_5_knn_stability_dominance(tmp_path):
    start = time.monotonic()
    assert knn_gamma_1(4, 100) == pytest.approx(0.0319154, rel=1e-5)
    report = run_stability_sweep(references.benchmark_configs()["c5_knn_sweep"])
    assert len(report.rows) == 9
    assert all(r.dominated == "true" for r in report.rows)
    _assert_matches_benchmark(report, "c5_knn_sweep", tmp_path)
    elapsed = time.monotonic() - start
    assert elapsed < 180.0
    _report("criterion 5 kNN dominance", f"9 rows dominated in {elapsed:.2f}s")


def test_criterion_6_generalized_efron_stein(tmp_path):
    start = time.monotonic()
    report = run_efron_stein(references.benchmark_configs()["c6_efron_stein"])
    assert report.all_pass
    # With y = x and no noise the ridge LoO statistic never moves, so its
    # rows check nothing; the report says so in a note (not in the files).
    assert [note.split(":")[0] for note in report.notes] == [
        f"efron_stein ridge_loo n={n} q={q}" for n in (20, 50) for q in (2, 4)
    ]

    # Closed form for the mean of n sign variables at q=2:
    # lhs = 1/sqrt(n), rhs = 2*sqrt(2*kappa)/sqrt(n) ~ 3.189/sqrt(n).
    for n in (20, 50):
        row = next(r for r in report.rows if r.f == "mean" and r.n == n and r.q == 2.0)
        assert row.lhs == pytest.approx(1.0 / math.sqrt(n), abs=3 * row.lhs_std_error)
        rhs_target = 2.0 * math.sqrt(2.0 * KAPPA) / math.sqrt(n)
        assert rhs_target == pytest.approx(3.1887 / math.sqrt(n), rel=1e-3)
        assert row.rhs == pytest.approx(rhs_target, abs=3 * row.rhs_std_error)

    # Non-degenerate ridge-LoO statistic on a noisy spec.
    for n in (20, 50):
        for q in (2.0, 4.0):
            res = efron_stein_moment_check(
                "ridge_loo", NOISY_SPEC, n, q, 200, SeedSpec(600 + n), ridge_lam=0.5
            )
            assert res.lhs > 0.0
            assert res.passed
    _assert_matches_benchmark(report, "c6_efron_stein", tmp_path)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report("criterion 6 generalized Efron-Stein", f"{elapsed:.2f}s")


def test_criterion_7_pac_coverage_bounded(tmp_path):
    start = time.monotonic()
    report = run_coverage(references.benchmark_configs()["c7_coverage"])
    assert report.all_pass
    for row in report.rows:
        assert row.exceedance_rate <= row.failure_bound + row.half_width
        # Pinned seeded outcome: the bound is conservative, nothing exceeds.
        assert row.exceedance_rate == 0.0
        assert math.isfinite(row.max_dev_ratio)
    _assert_matches_benchmark(report, "c7_coverage", tmp_path)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report(
        "criterion 7 PAC coverage",
        f"zero exceedances at x in (1,2,3), {elapsed:.2f}s",
    )


def test_criterion_8_rate_slope(tmp_path):
    start = time.monotonic()
    report = run_rate(references.benchmark_configs()["c8_rate"])
    assert -0.65 <= report.extras["slope"] <= -0.35
    _assert_matches_benchmark(report, "c8_rate", tmp_path)
    elapsed = time.monotonic() - start
    assert elapsed < 900.0
    _report(
        "criterion 8 deviation rate",
        f"slope {report.extras['slope']:.3f} in [-0.65, -0.35], {elapsed:.2f}s",
    )


def test_criterion_9_formula_self_consistency():
    gammas = gamma_set(1.0, 1.0, 0.5)
    assert gammas.gamma1 == pytest.approx(9.0191, rel=1e-3)
    assert gammas.gamma2 == pytest.approx(221.288, rel=1e-3)
    assert gammas.gamma3 == pytest.approx(20.0, rel=1e-3)

    for n in (10, 200, 5000):
        for x in (0.25, 1.0, 4.0):
            spec1 = bounded_tail_spec(gammas, 0.7, n)
            direct1 = pac_bound_bounded(gammas, 0.7, n, x)
            assert abs(direct1 - tail_threshold(spec1, x)) <= 1e-12 * direct1
            spec2 = subgaussian_tail_spec(gammas, 0.4, 0.9, n)
            direct2 = pac_bound_subgaussian(gammas, 0.4, 0.9, n, x)
            assert abs(direct2 - tail_threshold(spec2, x)) <= 1e-12 * direct2
    _report("criterion 9 formula self-consistency")


def test_criterion_10_determinism(tmp_path):
    start = time.monotonic()
    formats = ["csv", "json", "svg"]
    # One config per experiment kind: the four d_* configs of
    # tests/reference/, whose bytes tests/test_references.py pins, and the
    # benchmark's c10_bounds_table.
    configs = [config for label, config in references.pinned_configs().items()
               if label.startswith("d_")]
    bounds_table = references.benchmark_configs()["c10_bounds_table"]
    configs.append(bounds_table)
    assert sorted(config.kind for config in configs) == [
        "bounds_table", "coverage", "efron_stein", "rate", "stability_sweep"
    ]
    for config in configs:
        blobs = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{config.kind}_{attempt}"
            report = run_experiment(config)
            written = emit_report(report, formats, out_dir=out)
            blobs.append({p.name: p.read_bytes() for p in written})
        assert blobs[0] == blobs[1], f"{config.kind} rerun differed"
    _assert_matches_benchmark(run_experiment(bounds_table), "c10_bounds_table", tmp_path)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report("criterion 10 determinism", f"5 experiment kinds, {elapsed:.2f}s")
