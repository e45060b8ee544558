import dataclasses
import errno
import fcntl
import json
import math
import os
import re
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from stabilab import cli, harness
from stabilab.bounds import BoundsRow, gamma_set, pac_bound_bounded, pac_bound_subgaussian
from stabilab.harness import (
    AlgorithmConfig,
    ConfigError,
    ExperimentConfig,
    PreconditionError,
    Report,
    config_from_dict,
    config_to_dict,
    emit_report,
    load_config,
    parse_formats,
    run_bounds_table,
    run_coverage,
    run_efron_stein,
    run_rate,
    run_stability_sweep,
)
from stabilab import datagen
from stabilab.datagen import DataSpec, SeedSpec, sample_dataset
from stabilab.learners import (
    KnnAlgorithm,
    RidgeAlgorithm,
    prediction_error_mc,
    ridge_fit,
    ridge_loo_fast,
)
from stabilab.stability import knn_gamma_1, stability_profile, y_norm

from references import workloads
from test_acceptance import (
    ANALYTIC_SPEC,
    BERNOULLI_SPEC,
    GAUSSIAN_SPEC,
    NOISY_SPEC,
    RADEMACHER_Y_SPEC,
)

ZERO_SPEC = DataSpec(
    d=2,
    x_family="rademacher_coords",
    b_x=1.0,
    y_model="linear_clipped",
    beta_star=(0.0, 0.0),
    noise_scale=0.0,
    b_y=1.0,
)

RIDGE_ALG = AlgorithmConfig(name="ridge", lam=(1.0,), eta=0.5)


@contextmanager
def held_flock(directory):
    """An exclusive flock on directory through a descriptor of its own; it
    conflicts with the run lock as another process's lock would."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        yield
    finally:
        os.close(fd)


def make_config(**kwargs):
    defaults = dict(
        kind="coverage",
        spec=NOISY_SPEC,
        algorithm=RIDGE_ALG,
        n_grid=(20,),
        q_grid=(2.0,),
        x_grid=(0.5, 1.0, 3.0),
        reps=50,
        test_m=300,
        base_seed=1234,
        out_dir="out",
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


# Valid keyword arguments of each config type, every optional field set.
FULL_SPEC = dict(d=2, x_family="uniform_ball", b_x=1.0, y_model="linear_clipped",
                 beta_star=(0.4, 0.2), noise_scale=0.2, b_y=0.6)
RIDGE = dict(name="ridge", lam=(1.0,), eta=0.5)
KNN = dict(name="knn", k=(3,))
EXPERIMENT = dict(kind="coverage", spec=DataSpec(**FULL_SPEC), algorithm=AlgorithmConfig(**RIDGE),
                  n_grid=(20,), q_grid=(2.0,), x_grid=(1.0,), reps=50, test_m=300,
                  base_seed=1234, out_dir="out")
# Only a sweep on 0/1 labels runs kNN.
KNN_EXPERIMENT = dict(EXPERIMENT, kind="stability_sweep", spec=BERNOULLI_SPEC,
                      algorithm=AlgorithmConfig(**KNN))

# A bool, a fraction and a string for integer fields; a bool and a string
# for float fields; a bool and a number for string fields.  A tuple field
# takes the bad value as its single entry, as a JSON scalar does.
INT_BAD, FLOAT_BAD, STR_BAD = (True, 2.5, "3"), (True, "0.5"), (True, 2.5)
FIELD_CASES = [
    (DataSpec, FULL_SPEC, {"d": INT_BAD, "x_family": STR_BAD, "b_x": FLOAT_BAD,
                           "y_model": STR_BAD, "beta_star": FLOAT_BAD,
                           "noise_scale": FLOAT_BAD, "b_y": FLOAT_BAD}),
    (AlgorithmConfig, RIDGE, {"name": STR_BAD, "lam": FLOAT_BAD, "eta": FLOAT_BAD}),
    (AlgorithmConfig, KNN, {"k": INT_BAD}),
    (ExperimentConfig, EXPERIMENT, {"kind": STR_BAD, "n_grid": INT_BAD, "q_grid": FLOAT_BAD,
                                    "x_grid": FLOAT_BAD, "reps": INT_BAD, "test_m": INT_BAD,
                                    "base_seed": INT_BAD, "out_dir": STR_BAD}),
    (stability_profile, dict(algorithm=RidgeAlgorithm(1.0), spec=NOISY_SPEC, n=10, reps=10,
                             seed=SeedSpec(0), qs=(2.0,)), {"n": INT_BAD, "reps": INT_BAD}),
    (RidgeAlgorithm, dict(lam=1.0), {"lam": FLOAT_BAD}),
    (KnnAlgorithm, dict(k=3), {"k": INT_BAD}),
]
FIELD_PARAMS = [
    pytest.param(cls, base, field, bad, id=f"{cls.__name__}.{field}={bad!r}")
    for cls, base, fields in FIELD_CASES
    for field, bads in fields.items()
    for bad in bads
]


class TestConfig:
    @pytest.mark.parametrize("spec", [NOISY_SPEC, GAUSSIAN_SPEC], ids=["b_y", "no_b_y"])
    def test_round_trip(self, spec):
        cfg = make_config(spec=spec)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_round_trip_knn(self):
        cfg = make_config(
            kind="stability_sweep",
            spec=DataSpec(
                d=2,
                x_family="uniform_ball",
                b_x=1.0,
                y_model="bernoulli_label",
                beta_star=(0.0, 0.0),
                noise_scale=0.5,
                b_y=1.0,
            ),
            algorithm=AlgorithmConfig(name="knn", k=(1, 3)),
            q_grid=(1.0,),
        )
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_scalar_lambda_accepted(self):
        # A sweep on 0/1 labels, where ridge and kNN are both legal.
        cfg = make_config(kind="stability_sweep", spec=BERNOULLI_SPEC)
        obj = config_to_dict(cfg)
        obj["algorithm"]["lambda"] = 1.0
        obj.update(n_grid=20, q_grid=2.0)
        assert config_from_dict(obj) == cfg
        obj["algorithm"] = {"name": "knn", "k": 3}
        assert config_from_dict(obj).algorithm == AlgorithmConfig(name="knn", k=(3,))

    @pytest.mark.parametrize("cls, base, field, bad", FIELD_PARAMS)
    def test_bad_field_value_rejected_in_python_and_json(
        self, tmp_path, capsys, cls, base, field, bad
    ):
        # One check per field: a config built in Python and one read from
        # JSON must name the same instance of the bound, or be refused.
        json_key = harness._JSON_KEYS.get(field, field) if cls is AlgorithmConfig else field
        with pytest.raises(ValueError, match=json_key):
            cls(**{**base, field: bad})
        where = {DataSpec: "spec", AlgorithmConfig: "algorithm", ExperimentConfig: None}
        if cls not in where:
            return
        experiment, command = (
            (KNN_EXPERIMENT, "stability") if base is KNN else (EXPERIMENT, "coverage")
        )
        obj = config_to_dict(ExperimentConfig(**{**experiment, "out_dir": str(tmp_path)}))
        (obj if where[cls] is None else obj[where[cls]])[json_key] = bad
        with pytest.raises(ConfigError, match=json_key):
            config_from_dict(obj)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        assert cli.main([command, "--config", str(path)]) == 2
        assert json_key in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("smoke", [False, True], ids=["full", "smoke"])
    @pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
    def test_benchmark_workload_configs_load(self, workload, smoke):
        # The benchmark runs these configs, its smoke ones only in its own
        # tests; a new config rule must not refuse them unnoticed.
        for name, command, obj in workloads.experiments(workload, smoke=smoke):
            assert config_from_dict(obj).kind == cli._COMMAND_KINDS[command], name

    def test_unknown_keys_rejected(self):
        obj = config_to_dict(make_config())
        obj["typo"] = 1
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict(obj)

    def test_missing_key_rejected(self):
        obj = config_to_dict(make_config())
        del obj["reps"]
        with pytest.raises(ConfigError, match="missing"):
            config_from_dict(obj)

    def test_bad_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            make_config(kind="dance")

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError, match="nonempty"):
            make_config(x_grid=())

    def test_coverage_needs_fifty_reps(self):
        with pytest.raises(ConfigError, match="reps"):
            make_config(reps=10)

    def test_algorithm_validation(self):
        with pytest.raises(ConfigError):
            AlgorithmConfig(name="ridge", lam=(), eta=0.5)
        with pytest.raises(ConfigError):
            AlgorithmConfig(name="ridge", lam=(1.0,), eta=1.5)
        with pytest.raises(ConfigError):
            AlgorithmConfig(name="knn", k=())
        with pytest.raises(ConfigError):
            AlgorithmConfig(name="sgd", lam=(0.1,), eta=0.5)

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_config(bad)


class TestCoverage:
    def test_zero_label_spec_never_exceeds(self):
        report = run_coverage(make_config(spec=ZERO_SPEC))
        assert report.all_pass
        assert all(r.exceedance_rate == 0.0 for r in report.rows)
        assert len(report.rows) == 3
        assert report.extras["deviations"] == {"20": [0.0] * 50}

    def test_vacuous_rows_marked(self):
        report = run_coverage(make_config(spec=ZERO_SPEC))
        by_x = {r.x: r for r in report.rows}
        assert by_x[0.5].vacuous and by_x[1.0].vacuous
        assert not by_x[3.0].vacuous

    def test_rows_cover_grid_product(self):
        report = run_coverage(make_config(spec=ZERO_SPEC, n_grid=(10, 20)))
        assert {(r.n, r.x) for r in report.rows} == {
            (n, x) for n in (10, 20) for x in (0.5, 1.0, 3.0)
        }

    def test_noisy_spec_passes_and_reports_looseness(self):
        report = run_coverage(make_config(test_m=500))
        assert report.all_pass
        assert all(math.isfinite(r.max_dev_ratio) for r in report.rows)
        assert all(r.max_dev_ratio < 1.0 for r in report.rows)  # bound is loose

    def test_precision_gate_fires_for_tiny_test_m(self):
        tight_spec = DataSpec(
            d=1,
            x_family="uniform_ball",
            b_x=0.1,
            y_model="linear_clipped",
            beta_star=(0.02,),
            noise_scale=0.01,
            b_y=0.05,
        )
        cfg = make_config(
            spec=tight_spec,
            algorithm=AlgorithmConfig(name="ridge", lam=(10.0,), eta=0.5),
            n_grid=(50,),
            x_grid=(1.0,),
            test_m=2,
        )
        with pytest.raises(PreconditionError, match="increase test_m"):
            run_coverage(cfg)

    def test_invalid_lambda_domain(self):
        with pytest.raises(ConfigError, match="lambda domain"):
            make_config(algorithm=AlgorithmConfig(name="ridge", lam=(0.001,), eta=0.5))

    def test_requires_ridge(self):
        with pytest.raises(ConfigError, match="ridge"):
            make_config(spec=ZERO_SPEC, algorithm=AlgorithmConfig(name="knn", k=(3,)))

    def test_subgaussian_spec_supported(self):
        spec = DataSpec(
            d=2,
            x_family="uniform_ball",
            b_x=1.0,
            y_model="linear_gaussian",
            beta_star=(0.3, 0.1),
            noise_scale=0.2,
        )
        report = run_coverage(make_config(spec=spec, x_grid=(1.0, 2.0), test_m=400))
        assert report.all_pass


def rate_config(**kwargs):
    """A rate config with the fewest reps and sample sizes that rate takes."""
    return make_config(**{"kind": "rate", "n_grid": (8, 16, 32, 64), "reps": 100, **kwargs})


def _reference_deviation_samples(config, n, n_seed):
    """harness._deviation_samples one replication at a time, each training
    set drawn alone with sample_dataset."""
    lam = config.algorithm.lam[0]
    devs = np.empty(config.reps)
    max_se = -math.inf
    for r in range(config.reps):
        seed_r = n_seed.child(r)
        data = sample_dataset(config.spec, n, seed_r.child(0))
        loo = ridge_loo_fast(data, lam)
        beta = ridge_fit(data, lam)
        est, se = prediction_error_mc(beta, config.spec, config.test_m, seed_r.child(1))
        devs[r] = abs(loo - est)
        max_se = max(max_se, se)
    return devs, max_se


class TestDeviationSamples:
    @pytest.mark.parametrize("chunk", [3, None], ids=["chunk3", "default_chunk"])
    @pytest.mark.parametrize(
        "spec",
        [
            NOISY_SPEC,
            DataSpec(d=3, x_family="uniform_cube", b_x=1.0, y_model="linear_gaussian",
                     beta_star=(0.3, -0.2, 0.1), noise_scale=0.5),
            DataSpec(d=2, x_family="rademacher_coords", b_x=1.0, y_model="bernoulli_label",
                     beta_star=(0.2, 0.1), noise_scale=0.5, b_y=1.0),
        ],
        ids=["noisy_ball_d2", "gaussian_cube_d3", "rademacher_bernoulli_d2"],
    )
    def test_matches_the_per_replication_loop_bitwise(self, monkeypatch, spec, chunk):
        n = 10
        if chunk is not None:
            monkeypatch.setattr(datagen, "_CHUNK_BYTES", 8 * n * spec.d * chunk)
        config = rate_config(spec=spec, test_m=50)
        assert config.reps % datagen._chunk_reps(n, spec.d) != 0  # ends on a partial chunk
        seed = SeedSpec(61).child(2)
        devs, max_se = harness._deviation_samples(config, n, seed)
        ref_devs, ref_max_se = _reference_deviation_samples(config, n, seed)
        assert devs.tobytes() == ref_devs.tobytes()
        assert max_se == ref_max_se


class TestRate:
    def test_degenerate_spec_errors(self):
        cfg = make_config(kind="rate", spec=ZERO_SPEC, n_grid=(8, 16, 32, 64), reps=100)
        with pytest.raises(PreconditionError, match="degenerate"):
            run_rate(cfg)

    def test_noise_free_well_specified_slope_is_negative(self):
        spec = DataSpec(
            d=2,
            x_family="uniform_ball",
            b_x=1.0,
            y_model="linear_clipped",
            beta_star=(0.5, 0.3),
            noise_scale=0.0,
            b_y=0.6,
        )
        cfg = make_config(
            kind="rate",
            spec=spec,
            algorithm=AlgorithmConfig(name="ridge", lam=(0.05,), eta=0.5),
            n_grid=(8, 16, 32, 64),
            reps=100,
            test_m=400,
        )
        report = run_rate(cfg)
        fit = report.extras
        assert fit["slope"] < 0.0
        assert fit["slope_ci_low"] <= fit["slope"] <= fit["slope_ci_high"]
        assert len(report.rows) == 4

    def test_bootstrap_matches_one_draw_per_sample_size(self, monkeypatch):
        # A resample draws all sample sizes' indices at once; the interval
        # must be that of one draw per size, in grid order (odd reps too).
        reps, n_grid = 101, (8, 16, 32, 64)
        rng = np.random.default_rng(5)
        devs = {n: rng.random(reps) for n in n_grid}
        monkeypatch.setattr(harness, "_deviation_samples", lambda config, n, seed: (devs[n], 0.0))
        cfg = make_config(kind="rate", n_grid=n_grid, reps=reps, base_seed=3)
        fit = run_rate(cfg).extras
        gen = cfg.root_seed().child(harness._BOOTSTRAP_ROLE).generator()
        log_n = np.log(np.asarray(n_grid, dtype=np.float64))
        slopes = []
        for _ in range(harness._BOOTSTRAP_RESAMPLES):
            med = [np.median(devs[n][gen.integers(0, reps, size=reps)]) for n in n_grid]
            slopes.append(np.polyfit(log_n, np.log(np.maximum(med, 1e-300)), 1)[0])
        low, high = np.percentile(slopes, [2.5, 97.5])
        assert (fit["slope_ci_low"], fit["slope_ci_high"]) == (float(low), float(high))

    def test_grid_preconditions(self):
        with pytest.raises(ConfigError, match="4 sample"):
            rate_config(n_grid=(8, 16, 32))
        with pytest.raises(ConfigError, match="increasing"):
            rate_config(n_grid=(64, 32, 16, 8))
        with pytest.raises(ConfigError, match="geometrically"):
            rate_config(n_grid=(8, 16, 24, 30))
        with pytest.raises(ConfigError, match="reps"):
            rate_config(reps=50)


class TestYNorms:
    def test_an_order_does_not_depend_on_the_other_orders(self):
        # NOISY_SPEC has no closed form: every order comes from one sample.
        root = SeedSpec(36)
        alone = harness._y_norms(NOISY_SPEC, (4.0,), root)
        norms = harness._y_norms(NOISY_SPEC, (2.0, 4.0, 8.0), root)
        assert alone[4.0] == norms[4.0]
        assert norms[2.0][0] <= norms[4.0][0] <= norms[8.0][0]
        assert all(se > 0.0 for _, se in norms.values())

    def test_closed_form_has_no_error_and_draws_nothing(self, monkeypatch):
        monkeypatch.setattr(harness, "sample_dataset", None)
        norms = harness._y_norms(ANALYTIC_SPEC, (2.0, 4.0), SeedSpec(0))
        assert norms == {q: (y_norm(ANALYTIC_SPEC, q), 0.0) for q in (2.0, 4.0)}


class TestStabilitySweep:
    def test_zero_label_rows_dominated(self):
        cfg = make_config(
            kind="stability_sweep",
            spec=ZERO_SPEC,
            algorithm=AlgorithmConfig(name="ridge", lam=(1.0,), eta=0.5),
            n_grid=(20,),
            q_grid=(1.0, 2.0),
            reps=60,
        )
        report = run_stability_sweep(cfg)
        assert report.all_pass
        assert all(r.s_q_hat == 0.0 and r.dominated == "true" for r in report.rows)

    def test_knn_theory_column_is_exact_passthrough(self):
        spec = DataSpec(
            d=2,
            x_family="uniform_ball",
            b_x=1.0,
            y_model="bernoulli_label",
            beta_star=(0.0, 0.0),
            noise_scale=0.5,
            b_y=1.0,
        )
        cfg = make_config(
            kind="stability_sweep",
            spec=spec,
            algorithm=AlgorithmConfig(name="knn", k=(3,)),
            n_grid=(30,),
            q_grid=(1.0, 2.0),
            reps=80,
        )
        report = run_stability_sweep(cfg)
        q1 = [r for r in report.rows if r.q == 1.0][0]
        assert q1.gamma_theory == knn_gamma_1(3, 30)
        q2 = [r for r in report.rows if r.q == 2.0][0]
        assert q2.gamma_theory == knn_gamma_1(3, 30) ** 0.5 and q2.dominated == "true"

    def test_invalid_lambda_rows_skipped_not_aborted(self):
        cfg = make_config(
            kind="stability_sweep",
            spec=ZERO_SPEC,
            algorithm=AlgorithmConfig(name="ridge", lam=(1e-4, 1.0), eta=0.5),
            n_grid=(20,),
            q_grid=(1.0,),
            reps=60,
        )
        report = run_stability_sweep(cfg)
        flags = {r.lambda_or_k: r.dominated for r in report.rows}
        assert flags[1e-4] == "skipped"
        assert flags[1.0] == "true"
        assert report.all_pass


class TestEfronSteinRunner:
    def test_rows_cover_registry_and_grids(self):
        cfg = make_config(
            kind="efron_stein",
            spec=ZERO_SPEC,
            n_grid=(6, 10),
            q_grid=(2.0,),
            reps=30,
        )
        report = run_efron_stein(cfg)
        assert {(r.f, r.n) for r in report.rows} == {
            (f, n) for f in ("constant", "mean", "ridge_loo") for n in (6, 10)
        }
        constant_rows = [r for r in report.rows if r.f == "constant"]
        assert all(r.lhs == 0.0 and r.rhs == 0.0 and r.passed for r in constant_rows)
        assert report.all_pass

    def test_q_domain_enforced(self):
        for q in (1.0, 9.0):
            with pytest.raises(ConfigError, match=r"q in \[2, 8\]"):
                make_config(kind="efron_stein", q_grid=(q,), reps=10)


class TestBoundsTable:
    def test_rows_and_values(self):
        cfg = make_config(
            kind="bounds_table",
            spec=NOISY_SPEC,
            n_grid=(50,),
            q_grid=(2.0, 4.0),
            x_grid=(1.0, 3.0),
            reps=1,
        )
        report = run_bounds_table(cfg)
        names = {r.bound_name for r in report.rows}
        assert names == {"ridge_moment_centered", "ridge_moment_uncentered", "pac_bounded"}
        gammas = gamma_set(1.0, 1.0, 0.5)
        pac_rows = {r.q_or_x: r for r in report.rows if r.bound_name == "pac_bounded"}
        assert pac_rows[1.0].value == pac_bound_bounded(gammas, 0.6, 50, 1.0)
        # These constants dwarf the attainable squared-error range here.
        assert all(r.vacuous for r in pac_rows.values())

    def test_subgaussian_rows_have_no_envelope(self):
        # Only Gaussian labels make a pac_subgaussian row, with the derived
        # proxy v; they are unbounded, so no squared-error range makes it
        # vacuous.
        cfg = make_config(
            kind="bounds_table",
            spec=GAUSSIAN_SPEC,
            n_grid=(50,),
            q_grid=(1.0,),
            x_grid=(1.0,),
            reps=1,
        )
        [row] = run_bounds_table(cfg).rows
        v = GAUSSIAN_SPEC.subgaussian_v()
        assert row.bound_name == "pac_subgaussian"
        assert row.value == pac_bound_subgaussian(gamma_set(1.0, 1.0, 0.5), 0.0, v, 50, 1.0)
        assert harness._deviation_envelope(cfg.spec, 1.0) == math.inf
        assert not row.vacuous


class TestEmission:
    def sweep_report(self, out_dir, base_seed=77):
        cfg = make_config(
            kind="stability_sweep",
            spec=ZERO_SPEC,
            n_grid=(12,),
            q_grid=(1.0,),
            reps=50,
            base_seed=base_seed,
            out_dir=str(out_dir),
        )
        return run_stability_sweep(cfg)

    def test_files_written_and_named(self, tmp_path):
        bounds_cfg = make_config(
            kind="bounds_table", n_grid=(50,), reps=1, out_dir=str(tmp_path / "b")
        )
        cases = [
            (
                self.sweep_report(tmp_path / "s"),
                "stability_sweep_77",
                "algo,q,n,lambda_or_k,s_q_hat,std_error,gamma_theory,dominated",
            ),
            (
                run_bounds_table(bounds_cfg),
                "bounds_table_1234",
                "bound_name,b_x,lambda,eta,n,q_or_x,value,vacuous",
            ),
        ]
        for report, stem, header in cases:
            written = emit_report(report, ["csv", "json"])
            assert [p.name for p in written] == [f"{stem}.csv", f"{stem}.json"]
            assert written[0].read_text().splitlines()[0] == header
            obj = json.loads(written[1].read_text())
            assert obj["kind"] == report.config.kind

    def test_non_finite_floats_are_json_null(self, tmp_path):
        cfg = make_config(kind="bounds_table", out_dir=str(tmp_path))
        row = BoundsRow("pac_bounded", 1.0, 1.0, 0.5, 20, 1.0, math.inf, True)
        report = Report(cfg, [row], True, {"note": [math.nan]})
        csv_path, json_path = emit_report(report, ["csv", "json"])

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        obj = json.loads(json_path.read_text(), parse_constant=reject)
        assert obj["rows"][0]["value"] is None
        assert obj["note"] == [None]
        assert csv_path.read_text().splitlines()[1].split(",")[6] == "inf"

    def test_reemission_is_byte_identical(self, tmp_path):
        report = self.sweep_report(tmp_path)
        first = emit_report(report, ["csv", "json"])
        blobs = [p.read_bytes() for p in first]
        second = emit_report(report, ["csv", "json"])
        assert [p.read_bytes() for p in second] == blobs

    def test_rate_svg_has_one_point_per_sample_size(self, tmp_path):
        spec = DataSpec(
            d=2,
            x_family="uniform_ball",
            b_x=1.0,
            y_model="linear_clipped",
            beta_star=(0.5, 0.3),
            noise_scale=0.1,
            b_y=0.7,
        )
        cfg = make_config(
            kind="rate",
            spec=spec,
            algorithm=AlgorithmConfig(name="ridge", lam=(0.2,), eta=0.5),
            n_grid=(8, 16, 32, 64),
            reps=100,
            test_m=300,
            out_dir=str(tmp_path),
        )
        report = run_rate(cfg)
        written = emit_report(report, ["svg"])
        svg = written[0].read_text()
        assert svg.count("<circle") == 4
        assert "<polyline" in svg

    def test_coverage_svg_emitted(self, tmp_path):
        report = run_coverage(make_config(spec=ZERO_SPEC, out_dir=str(tmp_path)))
        written = emit_report(report, ["svg"])
        assert written[0].name.endswith(".svg")
        assert written[0].read_text().count("<circle") == len(report.rows)

    def test_lock_conflict(self, tmp_path):
        report = self.sweep_report(tmp_path)
        with held_flock(tmp_path), pytest.raises(PreconditionError, match="locked"):
            emit_report(report, ["csv"])
        assert list(tmp_path.iterdir()) == []

    def test_leftover_temp_file_is_replaced(self, tmp_path):
        # A run killed between writing and renaming leaves its temp file;
        # the next emission of that file writes over it and renames it.
        report = self.sweep_report(tmp_path)
        (tmp_path / ".stability_sweep_77.csv.tmp").write_text("trunc")
        emit_report(report, ["csv", "json"])
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["stability_sweep_77.csv", "stability_sweep_77.json"]
        assert (tmp_path / "stability_sweep_77.csv").read_text() == harness._csv_text(report)

    def test_failed_emission_leaves_no_partial_file_temp_or_lock(self, tmp_path, monkeypatch):
        report = self.sweep_report(tmp_path)

        def broken(_report):
            raise RuntimeError("renderer failed")

        # A renderer that raises after the CSV was rendered writes nothing.
        monkeypatch.setattr(harness, "_json_text", broken)
        with pytest.raises(RuntimeError, match="renderer failed"):
            emit_report(report, ["csv", "json"])
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()

        # A write that fails on the second file leaves the first one whole
        # and no temp file or lock behind.
        real_replace, calls = harness.os.replace, []

        def failing_replace(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(harness.os, "replace", failing_replace)
        with pytest.raises(PreconditionError, match="disk full"):
            emit_report(report, ["csv", "json"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["stability_sweep_77.csv"]
        assert (tmp_path / "stability_sweep_77.csv").read_text() == harness._csv_text(report)

    def test_unknown_format(self, tmp_path):
        report = self.sweep_report(tmp_path)
        with pytest.raises(ConfigError, match="formats"):
            emit_report(report, ["pdf"])
        with pytest.raises(ConfigError, match="no emit format"):
            emit_report(report, [" ", ""])
        assert list(tmp_path.iterdir()) == []

    def test_parse_formats_strips_blanks_and_keeps_order(self):
        assert parse_formats([" json", "", "csv ", "svg"], "coverage") == ["json", "csv", "svg"]
        with pytest.raises(ConfigError, match=r"\['jsn', 'pdf'\]"):
            parse_formats(["pdf", "csv", "jsn"], "coverage")
        # SVG alone writes nothing for a kind without a figure.
        assert parse_formats(["svg"], "rate") == ["svg"]
        with pytest.raises(ConfigError, match="bounds_table has no SVG figure"):
            parse_formats([" svg", ""], "bounds_table")

    def test_svg_beside_csv_writes_the_csv_only(self, tmp_path):
        written = emit_report(self.sweep_report(tmp_path), ["csv", "svg"])
        assert [p.name for p in written] == ["stability_sweep_77.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["stability_sweep_77.csv"]

    def test_lock_or_temp_write_failure_is_a_precondition_error(self, tmp_path, monkeypatch):
        report = self.sweep_report(tmp_path)

        def refusing_flock(fd, operation):
            raise OSError(errno.ENOLCK, "No locks available")

        monkeypatch.setattr(harness.fcntl, "flock", refusing_flock)
        with pytest.raises(PreconditionError, match=re.escape(str(tmp_path)) + ".*No locks"):
            emit_report(report, ["csv"])
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()

        # A temp file that cannot be written is removed with the lock.
        def failing_write(self, text):
            Path.write_bytes(self, text[:5].encode())
            raise OSError("quota exceeded")

        monkeypatch.setattr(harness.Path, "write_text", failing_write)
        with pytest.raises(PreconditionError, match="quota exceeded"):
            emit_report(report, ["csv"])
        assert list(tmp_path.iterdir()) == []

    def test_empty_report_rejected(self, tmp_path):
        report = self.sweep_report(tmp_path)
        report.rows = []
        with pytest.raises(PreconditionError, match="empty"):
            emit_report(report, ["csv"])


# A valid config of each kind for the config-only failures below.
PROBE_BASES = {
    "coverage": dict(spec=ZERO_SPEC),
    "rate": dict(kind="rate", n_grid=(8, 16, 32, 64), reps=100),
    "stability_sweep": dict(kind="stability_sweep", spec=BERNOULLI_SPEC,
                            algorithm=AlgorithmConfig(name="knn", k=(3,)), q_grid=(1.0,), reps=10),
    "efron_stein": dict(kind="efron_stein", spec=ZERO_SPEC, reps=10),
    "bounds_table": dict(kind="bounds_table", n_grid=(50,), reps=1),
}
KNN_JSON = {"name": "knn", "k": [3]}
# (kind, section or None, key, value, part of the message)
CONFIG_ONLY_FAILURES = [
    pytest.param("coverage", None, "algorithm", KNN_JSON, "coverage requires the ridge",
                 id="coverage_knn"),
    pytest.param("rate", None, "algorithm", KNN_JSON, "rate requires the ridge", id="rate_knn"),
    # The swap statistics include ridge LoO, which needs a lambda; a kNN
    # config must not run it at a lambda the config never gave.
    pytest.param("efron_stein", None, "algorithm", KNN_JSON, "efron_stein requires the ridge",
                 id="efron_stein_knn"),
    pytest.param("bounds_table", None, "algorithm", KNN_JSON, "bounds_table requires the ridge",
                 id="bounds_table_knn"),
    pytest.param("coverage", "algorithm", "lambda", [0.001], "invalid lambda domain",
                 id="coverage_lambda_outside_domain"),
    # The PAC and moment rows of a bounds table hold on the corollary domain
    # only, as coverage's thresholds do; no lambda puts n < 3 in it.
    pytest.param("bounds_table", "algorithm", "lambda", [0.001], "invalid lambda domain",
                 id="bounds_table_lambda_outside_domain"),
    pytest.param("bounds_table", None, "n_grid", [2], "n >= 3 required", id="bounds_table_n_2"),
    pytest.param("rate", None, "n_grid", [8, 16, 32], "at least 4 sample sizes",
                 id="rate_three_sizes"),
    pytest.param("rate", None, "n_grid", [8, 16, 24, 30], "geometrically spaced",
                 id="rate_not_geometric"),
    pytest.param("rate", None, "reps", 60, "rate requires reps >= 100", id="rate_60_reps"),
    pytest.param("stability_sweep", None, "q_grid", [10.0], "supports q in [1, 8]",
                 id="sweep_q_10"),
    # A sweep whose every row would be skipped checks nothing, and used to
    # exit 0 with all_pass=True.  lambda 0.01 at n 20 is below 1/(eta(n-1)).
    pytest.param("stability_sweep", None, "algorithm",
                 {"name": "ridge", "lambda": [0.01], "eta": 0.5},
                 "no (n, lambda) pair in the ridge stability domain", id="sweep_ridge_all_skipped"),
    pytest.param("stability_sweep", None, "n_grid", [4], "no (n, k) pair with n >= k + 2",
                 id="sweep_knn_all_skipped"),
    # The kNN bound is for the 0-1 cost; clipped-linear labels are real
    # valued, so a "dominated" row there would verify nothing.
    pytest.param("stability_sweep", None, "spec", config_to_dict(NOISY_SPEC), "labels in {0, 1}",
                 id="knn_sweep_real_valued_labels"),
    pytest.param("efron_stein", None, "q_grid", [1.5], "supports q in [2, 8]",
                 id="efron_stein_q_1.5"),
    pytest.param("coverage", None, "n_grid", [20, 20], "n_grid entries must be distinct",
                 id="repeated_n"),
    pytest.param("stability_sweep", None, "q_grid", [1.0, 1.0], "q_grid entries must be distinct",
                 id="repeated_q"),
    pytest.param("bounds_table", None, "x_grid", [1.0, 1.0], "x_grid entries must be distinct",
                 id="repeated_x"),
    pytest.param("stability_sweep", None, "algorithm",
                 {"name": "ridge", "lambda": [1.0, 1.0], "eta": 0.5},
                 "lambda entries must be distinct", id="repeated_lambda"),
    pytest.param("stability_sweep", "algorithm", "k", [3, 3], "k entries must be distinct",
                 id="repeated_k"),
    # Gaussian labels with no noise and no signal derive the proxy v = 0,
    # which the sub-Gaussian bound refused later as a field never set.
    pytest.param("coverage", None, "spec",
                 {"d": 2, "x_family": "uniform_ball", "b_x": 1.0,
                  "y_model": "linear_gaussian", "beta_star": [0.0, 0.0], "noise_scale": 0.0},
                 "derives the proxy v", id="gaussian_zero_proxy"),
    # noise_scale^2 underflows to 0.0, so the derived proxy is v = 0 too.
    pytest.param("coverage", None, "spec",
                 {"d": 2, "x_family": "uniform_ball", "b_x": 1.0,
                  "y_model": "linear_gaussian", "beta_star": [0.0, 0.0], "noise_scale": 1e-200},
                 "derives the proxy v", id="gaussian_proxy_underflow"),
    # The sub-Gaussian proxy is always derived from the labels.  Nothing
    # could check a given v against them (a tiny one made non-vacuous PAC
    # rows), so a v key is refused, on clipped Bernoulli labels as well.
    pytest.param("bounds_table", "spec", "v", 1e-9, "unknown keys in spec: ['v']",
                 id="explicit_proxy"),
    pytest.param("bounds_table", None, "spec",
                 {"d": 2, "x_family": "uniform_ball", "b_x": 1.0, "y_model": "bernoulli_label",
                  "beta_star": [0.6, 0.3], "noise_scale": 0.5, "b_y": 1.0, "v": 0.5},
                 "unknown keys in spec: ['v']", id="explicit_proxy_bernoulli_clipped"),
    # Gaussian labels are unbounded, so a b_y would wrongly select the
    # bounded-label PAC bound.
    pytest.param("coverage", None, "spec",
                 {"d": 2, "x_family": "uniform_ball", "b_x": 1.0, "y_model": "linear_gaussian",
                  "beta_star": [0.4, 0.2], "noise_scale": 0.3, "b_y": 0.5},
                 "linear_gaussian labels are unbounded; b_y is not allowed",
                 id="gaussian_with_b_y"),
    # Efron-Stein runs at one lambda; a grid must not silently run at its
    # first value.
    pytest.param("efron_stein", "algorithm", "lambda", [0.5, 2.0],
                 "efron_stein requires the ridge algorithm with one lambda value",
                 id="efron_stein_lambda_grid"),
    # One replication has no spread to estimate; the runner refused it only
    # after the config had been accepted, with exit 3.
    pytest.param("stability_sweep", None, "reps", 1, "stability_sweep requires reps >= 2",
                 id="sweep_one_rep"),
    pytest.param("efron_stein", None, "reps", 1, "efron_stein requires reps >= 2",
                 id="efron_stein_one_rep"),
    # int() would truncate these to a run of another config than the file
    # names, and emit that truncated config as if it were given.
    *(pytest.param("stability_sweep", where, key, value, f"{key} must be an integer",
                   id=f"integer_{key}={value!r}")
      for where, key, value in [
          (None, "reps", 20.9), (None, "base_seed", 7.5), (None, "n_grid", [50.7]),
          (None, "test_m", 300.5), ("algorithm", "k", [1.9]), ("spec", "d", 1.5),
          ("spec", "d", True), (None, "reps", "500"), (None, "n_grid", ["50"]),
          (None, "base_seed", "35"), (None, "test_m", "300"), ("algorithm", "k", ["1"]),
          ("spec", "d", "2"),
      ]),
    # float() turns true into 1.0 and "1.0" into 1.0, so these ran a config
    # that the file does not state.
    *(pytest.param("bounds_table", where, key, value, f"{key} must be a number",
                   id=f"number_{key}={value!r}")
      for where, key, value in [
          ("algorithm", "lambda", True), ("algorithm", "eta", "0.5"), ("spec", "b_x", True),
          ("spec", "b_y", "0.6"), (None, "q_grid", [True]), (None, "x_grid", ["1.0"]),
      ]),
    # Python's json parses NaN and Infinity; a NaN passes every range check
    # and would be emitted as a nan row.
    pytest.param("bounds_table", None, "x_grid", [math.nan, 1.0], "must be finite",
                 id="x_grid_nan"),
    pytest.param("bounds_table", None, "q_grid", [2.0, math.inf], "must be finite",
                 id="q_grid_inf"),
    pytest.param("stability_sweep", None, "q_grid", [math.nan], "must be finite",
                 id="knn_q_grid_nan"),
    # str(None) would write into ./None, and an empty path into the current
    # directory.
    pytest.param("coverage", None, "out_dir", None, "out_dir must be a string",
                 id="out_dir_null"),
    pytest.param("coverage", None, "out_dir", "",
                 "out_dir must be a string naming a directory, got ''", id="out_dir_empty"),
    # A string used to be read key by key: "ridge" as keys r, i, d, g, e.
    pytest.param("coverage", None, "spec", "ridge", "spec must be a JSON object",
                 id="spec_string"),
    pytest.param("coverage", None, "algorithm", "ridge", "algorithm must be a JSON object",
                 id="algorithm_string"),
]


def child_env():
    """This environment, with the tested package first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


class TestCli:
    def write_config(self, tmp_path, cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        return path

    def test_import_leaves_numpy_random_unimported(self):
        # numpy imports numpy.random lazily; importing it at start-up would
        # add its cost to every CLI run.
        code = "import sys, stabilab.cli; print('numpy.random' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                             text=True, timeout=60, check=True)
        assert out.stdout.strip() == "False"

    def test_success_exit_zero(self, tmp_path, capsys):
        cfg = make_config(spec=ZERO_SPEC, out_dir=str(tmp_path / "out"))
        path = self.write_config(tmp_path, cfg)
        code = cli.main(["coverage", "--config", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "coverage: 3 rows" in out
        assert (tmp_path / "out" / "coverage_1234.csv").exists()

    def test_held_lock_exit_three(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        path = self.write_config(tmp_path, make_config(spec=ZERO_SPEC, out_dir=str(out)))
        with held_flock(out):
            assert cli.main(["coverage", "--config", str(path)]) == 3
        assert "locked" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_killed_lock_holder_leaves_directory_usable(self, tmp_path, capsys):
        # The lock dies with its holder, however it exits: a run killed
        # while emitting must not lock the directory for every later run.
        out = tmp_path / "out"
        path = self.write_config(tmp_path, make_config(spec=ZERO_SPEC, out_dir=str(out)))
        code = (
            "import os, signal, sys\n"
            "from pathlib import Path\n"
            "from stabilab.harness import _run_lock\n"
            "with _run_lock(Path(sys.argv[1])):\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        child = subprocess.run([sys.executable, "-c", code, str(out)], env=child_env(), timeout=60)
        assert child.returncode == -signal.SIGKILL
        assert cli.main(["coverage", "--config", str(path)]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in out.iterdir()) == ["coverage_1234.csv", "coverage_1234.json"]

    def test_degenerate_efron_stein_rows_print_a_note(self, tmp_path, capsys):
        # Criterion 6's spec: d = 1 signs, y = x, no noise, so X'X = X'y = n
        # on every draw and no swap moves the ridge LoO statistic.
        for spec, expected in (
            (RADEMACHER_Y_SPEC, [f"ridge_loo n={n} q={q}" for n in (20, 50) for q in (2, 4)]),
            (NOISY_SPEC, []),
        ):
            cfg = make_config(
                kind="efron_stein", spec=spec, n_grid=(20, 50), q_grid=(2.0, 4.0),
                reps=10, base_seed=20244, out_dir=str(tmp_path / "out"),
            )
            path = self.write_config(tmp_path, cfg)
            assert cli.main(["efron-stein", "--config", str(path)]) == 0
            captured = capsys.readouterr()
            notes = [line for line in captured.err.splitlines() if line.startswith("note:")]
            assert [line.split(":")[1].removeprefix(" efron_stein ") for line in notes] == expected

    def test_singular_downdate_exit_three(self, tmp_path, capsys):
        # Two points in the plane at lam = 1e-14: (n-1)*lam is negligible
        # against ||x_j||^2, so each leave-one-out downdate is numerically
        # singular, and the ridge LoO statistic refuses the draw.
        cfg = make_config(
            kind="efron_stein", spec=NOISY_SPEC, n_grid=(2,), reps=10,
            algorithm=AlgorithmConfig(name="ridge", lam=(1e-14,), eta=0.5),
            out_dir=str(tmp_path / "out"),
        )
        path = self.write_config(tmp_path, cfg)
        assert cli.main(["efron-stein", "--config", str(path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("precondition failure: ArithmeticError"), err
        assert list(tmp_path.iterdir()) == [path]

    def test_bad_json_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{")
        assert cli.main(["coverage", "--config", str(bad)]) == 2

    def test_top_level_list_exit_two(self, tmp_path, capsys):
        obj = config_to_dict(make_config(spec=ZERO_SPEC, out_dir=str(tmp_path)))
        path = tmp_path / "config.json"
        path.write_text(json.dumps([obj]))
        assert cli.main(["coverage", "--config", str(path)]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, where, key, value, message", CONFIG_ONLY_FAILURES)
    def test_config_only_failure_exit_two(
        self, tmp_path, capsys, monkeypatch, kind, where, key, value, message
    ):
        # Each of these is decided by the config alone; it used to exit 3
        # after the config was accepted, or to run (a repeated grid entry
        # overwrote its own results).  It must exit 2 before any draw and
        # write nothing, not even into the current directory.
        monkeypatch.chdir(tmp_path)
        command = {k: c for c, k in cli._COMMAND_KINDS.items()}[kind]
        obj = config_to_dict(make_config(**PROBE_BASES[kind], out_dir="out"))
        (obj if where is None else obj[where])[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        assert cli.main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and message in err[0], err
        assert list(tmp_path.iterdir()) == [path]

    def test_integral_float_fields_are_accepted(self):
        # Integral floats in integer fields, and JSON integers in float fields.
        obj = config_to_dict(make_config())
        obj.update(reps=50.0, n_grid=[20.0], q_grid=[2], x_grid=[1, 3])
        obj["spec"]["d"] = 2.0
        obj["spec"]["b_x"] = 1
        obj["algorithm"]["lambda"] = 1
        assert config_from_dict(obj) == make_config(x_grid=(1.0, 3.0))

    def test_empty_out_dir_exit_two(self, tmp_path, capsys, monkeypatch):
        # An empty --out wrote the outputs into the current directory.
        monkeypatch.chdir(tmp_path)
        cfg = make_config(spec=ZERO_SPEC, out_dir=str(tmp_path / "out"))
        path = self.write_config(tmp_path, cfg)
        assert cli.main(["coverage", "--config", str(path), "--out", ""]) == 2
        assert "out_dir must be a string naming a directory, got ''" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    def test_output_path_that_is_a_file_exit_three(self, tmp_path, capsys):
        # mkdir on an existing regular file raises FileExistsError, which
        # escaped the CLI as a traceback with exit 1.
        cfg = make_config(kind="bounds_table", n_grid=(50,), x_grid=(1.0,), reps=1)
        path = self.write_config(tmp_path, cfg)
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("keep\n")
        argv = ["bounds-table", "--config", str(path), "--out", str(blocker)]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert "precondition failure" in err and str(blocker) in err
        assert blocker.read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "not_a_dir"]

    def test_overflowing_label_bound_exit_three(self, tmp_path, capsys):
        # b_y = 1e308 passes DataSpec, then b_y**2 in pac_bound_bounded
        # raises OverflowError, which escaped the CLI as a traceback with
        # exit 1.
        obj = config_to_dict(make_config(
            kind="bounds_table", n_grid=(50,), x_grid=(1.0,), reps=1,
            out_dir=str(tmp_path / "out"),
        ))
        obj["spec"]["b_y"] = 1e308
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        assert cli.main(["bounds-table", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert err.startswith("precondition failure: OverflowError")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("emit", ["csv,jsn", "", " , ", "pdf"])
    def test_bad_emit_list_exit_two_before_the_run(self, tmp_path, capsys, monkeypatch, emit):
        # The format list used to be checked after the experiment had run;
        # an empty one ran it, wrote nothing and exited 0.
        def not_called(config):
            raise AssertionError("run_experiment was called")

        monkeypatch.setattr(cli, "run_experiment", not_called)
        cfg = make_config(spec=ZERO_SPEC, out_dir=str(tmp_path / "out"))
        path = self.write_config(tmp_path, cfg)
        assert cli.main(["coverage", "--config", str(path), "--emit", emit]) == 2
        assert "emit format" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["stability_sweep", "efron_stein", "bounds_table"])
    def test_svg_alone_without_a_figure_exit_two_before_the_run(
        self, tmp_path, capsys, monkeypatch, kind
    ):
        # It used to run, write an empty output directory and exit 0.
        def not_called(config):
            raise AssertionError("run_experiment was called")

        monkeypatch.setattr(cli, "run_experiment", not_called)
        command = {k: c for c, k in cli._COMMAND_KINDS.items()}[kind]
        cfg = make_config(**PROBE_BASES[kind], out_dir=str(tmp_path / "out"))
        path = self.write_config(tmp_path, cfg)
        assert cli.main([command, "--config", str(path), "--emit", "svg"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {kind} has no SVG figure"), err
        assert list(tmp_path.iterdir()) == [path]

    def test_kind_mismatch_exit_two(self, tmp_path):
        cfg = make_config(spec=ZERO_SPEC, out_dir=str(tmp_path))
        path = self.write_config(tmp_path, cfg)
        assert cli.main(["rate", "--config", str(path)]) == 2

    def test_precondition_exit_three(self, tmp_path, capsys):
        # The test_m gate depends on the draws' standard error, so it stays
        # a precondition failure (the config of
        # TestCoverage::test_precision_gate_fires_for_tiny_test_m).
        tight_spec = DataSpec(d=1, x_family="uniform_ball", b_x=0.1, y_model="linear_clipped",
                              beta_star=(0.02,), noise_scale=0.01, b_y=0.05)
        cfg = make_config(
            spec=tight_spec,
            algorithm=AlgorithmConfig(name="ridge", lam=(10.0,), eta=0.5),
            n_grid=(50,),
            x_grid=(1.0,),
            test_m=2,
            out_dir=str(tmp_path),
        )
        path = self.write_config(tmp_path, cfg)
        assert cli.main(["coverage", "--config", str(path)]) == 3
        assert "increase test_m" in capsys.readouterr().err

    def test_overrides_applied(self, tmp_path):
        cfg = make_config(spec=ZERO_SPEC, out_dir=str(tmp_path / "orig"))
        path = self.write_config(tmp_path, cfg)
        out = tmp_path / "override"
        code = cli.main(
            ["coverage", "--config", str(path), "--out", str(out), "--seed", "9"]
        )
        assert code == 0
        assert (out / "coverage_9.csv").exists()

    def test_violation_maps_to_exit_four(self, tmp_path, capsys, monkeypatch):
        # A failed inequality still writes its outputs, then exits 4.
        run = cli.run_experiment
        monkeypatch.setattr(
            cli, "run_experiment", lambda config: dataclasses.replace(run(config), all_pass=False)
        )
        cfg = make_config(spec=ZERO_SPEC, out_dir=str(tmp_path / "out"))
        path = self.write_config(tmp_path, cfg)
        assert cli.main(["coverage", "--config", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "invariant violation: an inequality failed beyond MC slack"
        ]
        assert "coverage: 3 rows, all_pass=False" in captured.out
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "coverage_1234.csv", "coverage_1234.json"
        ]

    def test_non_utf8_config_exit_two(self, tmp_path, capsys):
        # A UTF-16 byte-order mark: read_text raised UnicodeDecodeError,
        # which escaped the CLI as a traceback with exit 1.
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe\x00{}")
        assert cli.main(["coverage", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert err.startswith("config error: cannot read config file")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [path]

    def test_refused_allocation_exit_three(self, tmp_path, capsys, monkeypatch):
        # numpy raises MemoryError for an array it cannot allocate, e.g. a
        # test_m of 10^12; the runner is replaced so nothing is allocated.
        def refuse(config):
            raise MemoryError("Unable to allocate 14.6 TiB for an array")

        monkeypatch.setattr(cli, "run_experiment", refuse)
        cfg = make_config(spec=ZERO_SPEC, out_dir=str(tmp_path / "out"))
        path = self.write_config(tmp_path, cfg)
        assert cli.main(["coverage", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "precondition failure: MemoryError: Unable to allocate 14.6 TiB for an array"
        ]
        assert list(tmp_path.iterdir()) == [path]
