"""Workload definitions: which stabilab experiments each workload runs.

Every experiment config is taken from ``tests/test_acceptance.py``.  The
workload seed picks the experiments' base seeds: seed 0 (the default)
reproduces the acceptance-criterion base seeds, and any other seed s shifts
each of them by s, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import copy

DEFAULT_SEED = 0

_U64 = 2**64

# Data specs of tests/test_acceptance.py, as JSON config dicts.
ANALYTIC_SPEC = {
    "d": 2, "x_family": "rademacher_coords", "b_x": 1.0,
    "y_model": "linear_clipped", "beta_star": [0.6, 0.3],
    "noise_scale": 0.0, "b_y": 0.7,
}
NOISY_SPEC = {
    "d": 2, "x_family": "uniform_ball", "b_x": 1.0,
    "y_model": "linear_clipped", "beta_star": [0.4, 0.2],
    "noise_scale": 0.2, "b_y": 0.6,
}
BERNOULLI_SPEC = {
    "d": 2, "x_family": "uniform_ball", "b_x": 1.0,
    "y_model": "bernoulli_label", "beta_star": [0.2, 0.1],
    "noise_scale": 0.5, "b_y": 1.0,
}
RADEMACHER_Y_SPEC = {
    "d": 1, "x_family": "rademacher_coords", "b_x": 1.0,
    "y_model": "linear_clipped", "beta_star": [1.0],
    "noise_scale": 0.0, "b_y": 1.0,
}

RIDGE_1 = {"name": "ridge", "lambda": [1.0], "eta": 0.5}


def _config(kind, spec, algorithm, n_grid, q_grid, x_grid, reps, test_m, base_seed):
    return {
        "kind": kind, "spec": spec, "algorithm": algorithm,
        "n_grid": n_grid, "q_grid": q_grid, "x_grid": x_grid,
        "reps": reps, "test_m": test_m, "base_seed": base_seed, "out_dir": "out",
    }


# (experiment name, CLI command, config).  The names are stable labels used
# for output directories and the reference files.
_CRITERION_4 = ("c4_ridge_sweep", "stability", _config(
    "stability_sweep", ANALYTIC_SPEC,
    {"name": "ridge", "lambda": [0.5, 1.0, 2.0], "eta": 0.5},
    [50, 100], [1.0, 2.0, 4.0], [1.0], 500, 2, 20240))
_CRITERION_5 = ("c5_knn_sweep", "stability", _config(
    "stability_sweep", BERNOULLI_SPEC, {"name": "knn", "k": [1, 3, 5]},
    [50, 100, 200], [1.0], [1.0], 1000, 2, 20241))
_CRITERION_6 = ("c6_efron_stein", "efron-stein", _config(
    "efron_stein", RADEMACHER_Y_SPEC, RIDGE_1, [20, 50], [2.0, 4.0], [1.0],
    500, 2, 20244))
_CRITERION_7 = ("c7_coverage", "coverage", _config(
    "coverage", NOISY_SPEC, RIDGE_1, [200], [2.0], [1.0, 2.0, 3.0], 500, 400, 20243))
_CRITERION_8 = ("c8_rate", "rate", _config(
    "rate", NOISY_SPEC, {"name": "ridge", "lambda": [0.5], "eta": 0.5},
    [64, 128, 256, 512, 1024], [2.0], [1.0], 200, 20000, 20242))
_CRITERION_10_BOUNDS = ("c10_bounds_table", "bounds-table", _config(
    "bounds_table", ANALYTIC_SPEC, RIDGE_1, [50], [2.0, 4.0], [1.0, 3.0], 1, 2, 35))

WORKLOADS = {
    "efron_stein_swaps": [_CRITERION_6],
    "deviation_rate": [_CRITERION_8, _CRITERION_7, _CRITERION_10_BOUNDS],
    "stability_sweeps": [_CRITERION_4, _CRITERION_5],
}

# Smoke mode: the same experiments with tiny replication counts, for the
# benchmark's own tests.  The floors are the runners' own minimums
# (coverage needs reps >= 50, rate needs reps >= 100).
_SMOKE = {
    "stability_sweep": {"reps": 8},
    "efron_stein": {"reps": 4},
    "coverage": {"reps": 50, "test_m": 200},
    "rate": {"reps": 100, "test_m": 200},
    "bounds_table": {},
}

def experiments(workload: str, smoke: bool = False) -> list[tuple[str, str, dict]]:
    """The (name, command, config) triples of a workload, in run order."""
    out = []
    for name, command, config in WORKLOADS[workload]:
        config = copy.deepcopy(config)
        if smoke:
            config.update(_SMOKE[config["kind"]])
        out.append((name, command, config))
    return out


def base_seed(config: dict, seed: int) -> int:
    """The experiment base seed for a workload seed."""
    return (config["base_seed"] + seed) % _U64


def replications(config: dict, n_stats: int) -> int:
    """Monte Carlo replications an experiment runs: reps x grid cells.

    The grid cells are the sample sizes for coverage and rate, the
    (n, parameter) combos for a sweep, and the (statistic, n, q) jobs for
    Efron-Stein, which checks ``n_stats`` statistics per (n, q).  A bounds
    table evaluates closed forms only: 0.
    """
    kind, reps = config["kind"], config["reps"]
    n_cells = len(config["n_grid"])
    if kind in ("coverage", "rate"):
        return reps * n_cells
    if kind == "stability_sweep":
        alg = config["algorithm"]
        return reps * n_cells * len(alg["lambda"] if alg["name"] == "ridge" else alg["k"])
    if kind == "efron_stein":
        return reps * n_stats * n_cells * len(config["q_grid"])
    return 0


def expected_replace_point_calls(config: dict, n_stats: int) -> int:
    """datagen.replace_point calls of an experiment: one per swapped point,
    that is sum of reps * n over the Efron-Stein jobs."""
    if config["kind"] != "efron_stein":
        return 0
    return n_stats * len(config["q_grid"]) * config["reps"] * sum(config["n_grid"])


def expected_stability_profiles(config: dict, ridge_violations) -> int:
    """stability.stability_profile calls of an experiment: one per sweep
    combo that the runner does not skip.  ``ridge_violations`` is
    ``stabilab.stability.ridge_stability_violations``, the runner's own
    domain rule for ridge; kNN combos are skipped when n < k + 2."""
    if config["kind"] != "stability_sweep":
        return 0
    alg = config["algorithm"]
    if alg["name"] == "knn":
        return sum(1 for n in config["n_grid"] for k in alg["k"] if n >= k + 2)
    b_x, eta = config["spec"]["b_x"], alg["eta"]
    return sum(
        1 for n in config["n_grid"] for lam in alg["lambda"]
        if not ridge_violations(b_x, lam, eta, n)
    )
