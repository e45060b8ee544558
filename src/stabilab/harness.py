"""Experiment runner: seeded Monte Carlo campaigns that verify the bounds.

Five experiment kinds share one JSON config schema (``ExperimentConfig``):

* ``coverage``        -- does |LoO - prediction error| stay under the PAC
                         threshold at the promised frequency?
* ``rate``            -- log-log slope of the median deviation versus n.
* ``stability_sweep`` -- empirical S_q against the closed-form gamma.
* ``efron_stein``     -- moment-inequality check for registry statistics.
* ``bounds_table``    -- plain evaluation of every closed-form bound.

Determinism contract: reruns with an identical config produce byte-identical
CSV/JSON/SVG outputs.  All randomness flows from ``base_seed`` through
per-replication child streams, and reductions happen in fixed index order.
"""

from __future__ import annotations

import dataclasses
import fcntl
import json
import math
import os
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .bounds import (
    STAT_REGISTRY,
    BoundsRow,
    EfronSteinRow,
    GammaSet,
    gamma_set,
    efron_stein_moment_check,
    pac_bound_bounded,
    pac_bound_subgaussian,
    ridge_moment_bound,
)
from .datagen import (
    DataSpec,
    SeedSpec,
    _as_float,
    _as_integer,
    _as_tuple,
    _chunk_reps,
    sample_dataset,
    sample_stack,
)
from .learners import (
    KnnAlgorithm,
    RidgeAlgorithm,
    _ridge_loo_sq_residuals_stacked,
    prediction_error_mc,
    ridge_fit_stacked,
)
from .stability import (
    SweepRow,
    knn_gamma_1,
    power_mean_root,
    ridge_corollary_violations,
    ridge_gamma_q,
    ridge_stability_violations,
    stability_profile,
    y_norm,
)

EFRON_STEIN_STATS = tuple(STAT_REGISTRY)

# Reserved stream roles, kept far away from grid indices.
_BOOTSTRAP_ROLE = 10**9
_YNORM_ROLE = 10**9 + 1

_YNORM_MC_DRAWS = 10**6
_BOOTSTRAP_RESAMPLES = 1000


class ConfigError(ValueError):
    """Bad config file or config values (CLI exit code 2)."""


class PreconditionError(RuntimeError):
    """A runtime precondition failed, e.g. the test_m precision gate
    (CLI exit code 3)."""


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

# Every rule that depends on the config alone is checked here, before any
# draw, so the runners trust their config.  The fewest replications each
# kind runs with (its keys are the kinds) and the q range:
_MIN_REPS = {"coverage": 50, "rate": 100, "stability_sweep": 2, "efron_stein": 2,
             "bounds_table": 1}
_Q_RANGE = {"stability_sweep": (1.0, 8.0), "efron_stein": (2.0, 8.0)}


def _require_distinct(**grids: tuple) -> None:
    # A repeated entry would run twice and overwrite its own results.
    for name, values in grids.items():
        if len(set(values)) < len(values):
            raise ConfigError(f"{name} entries must be distinct")


def _require_geometric(n_grid: Sequence[int]) -> None:
    if len(n_grid) < 4:
        raise ConfigError("rate needs at least 4 sample sizes")
    ratios = [n_grid[i + 1] / n_grid[i] for i in range(len(n_grid) - 1)]
    if any(r <= 1.0 for r in ratios):
        raise ConfigError("n_grid must be strictly increasing")
    base = ratios[0]
    if any(abs(r / base - 1.0) > 0.1 for r in ratios):
        raise ConfigError("n_grid must be geometrically spaced (within 10%)")


@dataclass(frozen=True)
class AlgorithmConfig:
    """Algorithm selector for the harness; ridge carries the eta used by the
    bound evaluators, and lam/k may be grids for sweep experiments."""

    name: str
    lam: tuple[float, ...] = ()
    eta: float | None = None
    k: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", _as_tuple(self.lam, _as_float, "lambda"))
        object.__setattr__(self, "k", _as_tuple(self.k, _as_integer, "k"))
        if self.eta is not None:
            object.__setattr__(self, "eta", _as_float(self.eta, "eta"))
        if self.name == "ridge":
            if not self.lam or any(v <= 0 or not math.isfinite(v) for v in self.lam):
                raise ConfigError("ridge requires one or more positive lambda values")
            if self.eta is None or not (0.0 < self.eta < 1.0):
                raise ConfigError("ridge requires eta in (0, 1)")
            if self.k:
                raise ConfigError("ridge config must not set k")
        elif self.name == "knn":
            if not self.k or any(v < 1 for v in self.k):
                raise ConfigError("knn requires one or more k values >= 1")
            if self.lam or self.eta is not None:
                raise ConfigError("knn config must not set lambda or eta")
        else:
            raise ConfigError(f"unknown algorithm name {self.name!r}")
        _require_distinct(**{"lambda": self.lam, "k": self.k})

    def params(self) -> tuple:
        """The swept parameter values: lambda for ridge, k for kNN."""
        return self.lam if self.name == "ridge" else self.k

    def sweep_skips(self, b_x: float, n: int, param) -> bool:
        """Whether a stability sweep leaves (n, param) out: n and lambda off
        the ridge stability domain, or n < k + 2 for kNN's leave-one-out."""
        if self.name == "ridge":
            return bool(ridge_stability_violations(b_x, param, self.eta, n))
        return n < param + 2


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    spec: DataSpec
    algorithm: AlgorithmConfig
    n_grid: tuple[int, ...]
    q_grid: tuple[float, ...]
    x_grid: tuple[float, ...]
    reps: int
    test_m: int
    base_seed: int
    out_dir: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_grid", _as_tuple(self.n_grid, _as_integer, "n_grid"))
        object.__setattr__(self, "q_grid", _as_tuple(self.q_grid, _as_float, "q_grid"))
        object.__setattr__(self, "x_grid", _as_tuple(self.x_grid, _as_float, "x_grid"))
        for name in ("reps", "test_m", "base_seed"):
            object.__setattr__(self, name, _as_integer(getattr(self, name), name))
        if self.kind not in _MIN_REPS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise ConfigError(f"out_dir must be a string naming a directory, got {self.out_dir!r}")
        if not self.n_grid or not self.q_grid or not self.x_grid:
            raise ConfigError("n_grid, q_grid and x_grid must all be nonempty")
        _require_distinct(n_grid=self.n_grid, q_grid=self.q_grid, x_grid=self.x_grid)
        if any(n < 2 for n in self.n_grid):
            raise ConfigError("all n_grid entries must be >= 2")
        if not all(math.isfinite(v) for v in self.q_grid + self.x_grid):
            raise ConfigError("all q_grid and x_grid entries must be finite")
        q_lo, q_hi = _Q_RANGE.get(self.kind, (1.0, math.inf))
        if not all(q_lo <= q <= q_hi for q in self.q_grid):
            raise ConfigError(f"{self.kind} supports q in [{q_lo:g}, {q_hi:g}]")
        if any(x <= 0.0 for x in self.x_grid):
            raise ConfigError("all x_grid entries must be positive")
        if self.reps < _MIN_REPS[self.kind]:
            raise ConfigError(f"{self.kind} requires reps >= {_MIN_REPS[self.kind]}")
        if self.test_m < 2:
            raise ConfigError("test_m must be >= 2")
        if not 0 <= self.base_seed < 2**64:
            raise ConfigError("base_seed must be a 64-bit unsigned integer")
        alg, spec = self.algorithm, self.spec
        if self.kind == "stability_sweep":
            if alg.name == "knn" and spec.y_model != "bernoulli_label":
                raise ConfigError("kNN stability needs labels in {0, 1} (y_model bernoulli_label)")
            # A sweep whose every row is skipped checks nothing.
            if all(alg.sweep_skips(spec.b_x, n, p) for n in self.n_grid for p in alg.params()):
                pair = ("(n, lambda) pair in the ridge stability domain" if alg.name == "ridge"
                        else "(n, k) pair with n >= k + 2")
                raise ConfigError(f"stability_sweep has no {pair}, so every row would be skipped")
        elif alg.name != "ridge" or len(alg.lam) != 1:
            raise ConfigError(f"{self.kind} requires the ridge algorithm with one lambda value")
        if self.kind == "rate":
            _require_geometric(self.n_grid)
        elif self.kind in ("coverage", "bounds_table"):
            violations = [
                v for n in self.n_grid
                for v in ridge_corollary_violations(spec.b_x, alg.lam[0], alg.eta, n)
            ]
            if violations:
                raise ConfigError("invalid lambda domain: " + "; ".join(violations))

    def root_seed(self) -> SeedSpec:
        return SeedSpec(self.base_seed, 0)


# The JSON key of a config field is its name, except for this one.
_JSON_KEYS = {"lam": "lambda"}


def _from_dict(cls, obj, where: str):
    """A cls from its JSON object: one key per field (``lam`` is written
    ``lambda``), a field whose type is a dataclass as a nested object, and a
    field with a default optional.  The values are checked by cls itself."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    fields = {_JSON_KEYS.get(f.name, f.name): f for f in dataclasses.fields(cls)}
    unknown = set(obj) - set(fields)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, f in fields.items():
        if key not in obj:
            if f.default is dataclasses.MISSING:
                raise ConfigError(f"{where} is missing required key {key!r}")
            continue
        value, hint = obj[key], hints[f.name]
        kwargs[f.name] = _from_dict(hint, value, key) if dataclasses.is_dataclass(hint) else value
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def config_from_dict(obj: dict) -> ExperimentConfig:
    return _from_dict(ExperimentConfig, obj, "config")


def config_to_dict(config) -> dict:
    """The JSON object of an ExperimentConfig, or of a config dataclass in
    it, as config_from_dict reads it; a field that is None or an empty
    tuple is left out."""
    out = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if value is None or value == ():
            continue
        if dataclasses.is_dataclass(value):
            value = config_to_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        out[_JSON_KEYS.get(f.name, f.name)] = value
    return out


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(obj)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

@dataclass
class Report:
    """Result of one experiment.

    ``rows`` are dataclass instances of one type, emitted one per CSV line
    and JSON ``rows`` entry; ``all_pass`` is the runner's verdict (CLI exit
    4 when false); ``extras`` holds the top-level JSON entries that belong
    to no row.  ``notes`` are one-line diagnostics that the CLI prints to
    stderr; they are never emitted, so the output files do not change.
    """

    config: ExperimentConfig
    rows: list
    all_pass: bool
    extras: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Shared bound inputs and deviation sampling
# ---------------------------------------------------------------------------

def _pac_threshold(spec: DataSpec, gammas: GammaSet, n: int, x: float) -> tuple[str, float]:
    """(bound name, value) of the PAC threshold on |LoO - prediction error|
    at failure level e*exp(-x): the bounded-label bound when the spec has
    b_y, else the sub-Gaussian bound with the derived proxy v and E[Y] = 0.
    Only linear_gaussian labels are unbounded, and they are centred: every
    feature family and the noise are symmetric."""
    if spec.b_y is not None:
        return "pac_bounded", pac_bound_bounded(gammas, spec.b_y, n, x)
    return "pac_subgaussian", pac_bound_subgaussian(gammas, 0.0, spec.subgaussian_v(), n, x)


def _y_norms(
    spec: DataSpec, orders: Sequence[float], root: SeedSpec
) -> dict[float, tuple[float, float]]:
    """(norm, std_error) of ||Y||_order per order: the closed form with zero
    error where the spec has one, else the Monte Carlo estimate with its
    delta-method error.  Every order of the estimate comes from one sample
    of |Y|, drawn on ``root.child(_YNORM_ROLE).child(0)``, so an order's
    estimate does not depend on the other orders asked for, and the norms
    increase with the order as the population norms do."""
    try:
        return {order: (y_norm(spec, order), 0.0) for order in orders}
    except ValueError:
        pass  # no closed form for this spec (y_norm decides per spec)
    seed = root.child(_YNORM_ROLE).child(0)
    abs_y = np.abs(sample_dataset(spec, _YNORM_MC_DRAWS, seed).ys)
    return {order: power_mean_root(abs_y**order, order) for order in orders}


def _deviation_samples(
    config: ExperimentConfig, n: int, n_seed: SeedSpec
) -> tuple[np.ndarray, float]:
    """Per-replication |LoO - MC prediction error| samples for ridge at n.

    Returns the deviations plus the largest Monte Carlo standard error of
    the prediction-error estimate across replications.
    """
    lam = config.algorithm.lam[0]
    spec = config.spec
    devs = np.empty(config.reps)
    max_se = -math.inf
    # Replication r trains on n_seed.child(r).child(0) and tests on
    # .child(1), exactly as it would alone; a chunk of training samples is
    # drawn, fitted and left out at once.
    chunk = _chunk_reps(n, spec.d)
    for start in range(0, config.reps, chunk):
        stop = min(start + chunk, config.reps)
        xs, ys = sample_stack(spec, n, n_seed.grandchild_seeds(start, stop, 0))
        betas = ridge_fit_stacked(xs, ys, lam)
        loos = (_ridge_loo_sq_residuals_stacked(xs, ys, lam).sum(axis=1) / n).tolist()
        for i, r in enumerate(range(start, stop)):
            est, se = prediction_error_mc(betas[i], spec, config.test_m, n_seed.child(r).child(1))
            devs[r] = abs(loos[i] - est)
            max_se = max(max_se, se)
    return devs, max_se


# ---------------------------------------------------------------------------
# Coverage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverageRow:
    n: int
    x: float
    threshold: float
    exceedance_rate: float
    failure_bound: float
    reps: int
    half_width: float
    vacuous: bool
    max_dev_ratio: float
    passed: bool


def run_coverage(config: ExperimentConfig) -> Report:
    spec = config.spec
    gammas = gamma_set(spec.b_x, config.algorithm.lam[0], config.algorithm.eta)
    thresholds = {
        (n, x): _pac_threshold(spec, gammas, n, x)[1]
        for n in config.n_grid for x in config.x_grid
    }
    min_threshold = min(thresholds.values())

    root = config.root_seed()
    rows: list[CoverageRow] = []
    deviations: dict[str, list[float]] = {}
    for ni, n in enumerate(config.n_grid):
        devs, max_se = _deviation_samples(config, n, root.child(ni))
        if max_se >= 0.01 * min_threshold:
            raise PreconditionError(
                f"prediction-error standard error {max_se:.3e} exceeds 1% of the "
                f"smallest threshold {min_threshold:.3e}; increase test_m "
                f"(currently {config.test_m})"
            )
        deviations[str(n)] = devs.tolist()
        for x in config.x_grid:
            thr = thresholds[(n, x)]
            rate = float(np.mean(devs > thr))
            bound = math.e * math.exp(-x)
            p = min(bound, 1.0)
            half_width = 3.0 * math.sqrt(p * (1.0 - p) / config.reps)
            ratio = float(np.max(devs) / thr)
            if not math.isfinite(ratio):
                raise PreconditionError("deviation/threshold ratio is not finite")
            passed = rate <= bound + half_width
            rows.append(
                CoverageRow(
                    n=n,
                    x=x,
                    threshold=thr,
                    exceedance_rate=rate,
                    failure_bound=bound,
                    reps=config.reps,
                    half_width=half_width,
                    vacuous=bound >= 1.0,
                    max_dev_ratio=ratio,
                    passed=passed,
                )
            )
    return Report(config, rows, all(r.passed for r in rows), {"deviations": deviations})


# ---------------------------------------------------------------------------
# Rate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateRow:
    n: int
    median_deviation: float
    reps: int


def run_rate(config: ExperimentConfig) -> Report:
    root = config.root_seed()
    all_devs: list[np.ndarray] = []
    for ni, n in enumerate(config.n_grid):
        devs, _ = _deviation_samples(config, n, root.child(ni))
        all_devs.append(devs)

    medians = np.asarray([float(np.median(d)) for d in all_devs])
    if np.any(medians <= 0.0):
        raise PreconditionError(
            "degenerate deviation medians (zero); the data distribution produces no spread"
        )

    log_n = np.log(np.asarray(config.n_grid, dtype=np.float64))
    slope = float(np.polyfit(log_n, np.log(medians), 1)[0])

    # One draw per resample covers every sample size: its rows are the
    # indices that one draw per sample size, in grid order, would give.
    rng = root.child(_BOOTSTRAP_ROLE).generator()
    boot_slopes = np.empty(_BOOTSTRAP_RESAMPLES)
    stacked = np.stack(all_devs)
    for b in range(_BOOTSTRAP_RESAMPLES):
        idx = rng.integers(0, config.reps, size=stacked.shape)
        med_b = np.median(np.take_along_axis(stacked, idx, axis=1), axis=1)
        med_b = np.maximum(med_b, 1e-300)  # guard against degenerate resamples
        boot_slopes[b] = np.polyfit(log_n, np.log(med_b), 1)[0]
    ci_low, ci_high = np.percentile(boot_slopes, [2.5, 97.5])

    rows = [
        RateRow(n, float(m), config.reps)
        for n, m in zip(config.n_grid, medians)
    ]
    # The slope is reported, not gated, at this level.
    extras = {"slope": slope, "slope_ci_low": float(ci_low), "slope_ci_high": float(ci_high)}
    return Report(config, rows, True, extras)


# ---------------------------------------------------------------------------
# Stability sweep
# ---------------------------------------------------------------------------

def run_stability_sweep(config: ExperimentConfig) -> Report:
    alg = config.algorithm
    spec = config.spec
    root = config.root_seed()

    if alg.name == "ridge":
        # ||Y||_{2q} per q; a Monte Carlo error widens the dominance margin.
        norms = _y_norms(spec, [2.0 * q for q in config.q_grid], root)

    rows: list[SweepRow] = []
    for ni, n in enumerate(config.n_grid):
        for pi, param in enumerate(alg.params()):
            if alg.sweep_skips(spec.b_x, n, param):
                rows += [
                    SweepRow(alg.name, q, n, param, math.nan, math.nan, math.nan, "skipped")
                    for q in config.q_grid
                ]
                continue
            algorithm = RidgeAlgorithm(param) if alg.name == "ridge" else KnnAlgorithm(param)
            profile = stability_profile(
                algorithm, spec, n, config.reps, root.child(ni).child(pi), config.q_grid
            )
            for q in config.q_grid:
                s_q_hat, std_error = profile[q]
                if alg.name == "ridge":
                    norm, norm_se = norms[2.0 * q]
                    gamma = ridge_gamma_q(spec.b_x, param, alg.eta, n, norm)
                    slack = std_error + (2.0 * gamma * norm_se / norm if norm > 0 else 0.0)
                else:
                    # 0-1 cost: S_q = S_1^(1/q) exactly (stability module doc).
                    gamma, slack = knn_gamma_1(param, n) ** (1.0 / q), std_error
                ok = s_q_hat <= gamma + 3.0 * slack
                rows.append(SweepRow(alg.name, q, n, param, s_q_hat, std_error,
                                     gamma, "true" if ok else "false"))
    return Report(config, rows, all(r.dominated != "false" for r in rows))


# ---------------------------------------------------------------------------
# Efron-Stein
# ---------------------------------------------------------------------------

def run_efron_stein(config: ExperimentConfig) -> Report:
    ridge_lam = config.algorithm.lam[0]
    root = config.root_seed()
    rows: list[EfronSteinRow] = []
    for fi, f in enumerate(EFRON_STEIN_STATS):
        for ni, n in enumerate(config.n_grid):
            for qi, q in enumerate(config.q_grid):
                seed = root.child(fi).child(ni).child(qi)
                rows.append(efron_stein_moment_check(
                    f, config.spec, n, q, config.reps, seed, ridge_lam=ridge_lam
                ))
    # rhs == 0 exactly: no swap moved the statistic on any draw, so the row
    # checks nothing.  The "constant" statistic is that case by design.
    notes = [
        f"efron_stein {r.f} n={r.n} q={r.q:g}: rhs is 0, no swap moved the "
        "statistic on any draw, so this row checks nothing"
        for r in rows
        if r.rhs == 0.0 and r.f != "constant"
    ]
    return Report(config, rows, all(r.passed for r in rows), notes=notes)


# ---------------------------------------------------------------------------
# Bounds table
# ---------------------------------------------------------------------------

def _deviation_envelope(spec: DataSpec, lam: float) -> float:
    """Largest possible |LoO - prediction error| for bounded labels: both
    terms are averages of squared errors, each at most
    (b_y + b_x^2 b_y / lam)^2 given the fitted-coefficient norm bound."""
    if spec.b_y is None:
        return math.inf
    return (spec.b_y * (1.0 + spec.b_x**2 / lam)) ** 2


def run_bounds_table(config: ExperimentConfig) -> Report:
    lam, eta = config.algorithm.lam[0], config.algorithm.eta
    spec = config.spec
    gammas = gamma_set(spec.b_x, lam, eta)
    envelope = _deviation_envelope(spec, lam)
    # ||Y||_q and ||Y||_{2q} of the moment rows, in order of first use.
    orders = [o for q in config.q_grid if q >= 2.0 for o in (q, 2.0 * q)]
    norms = _y_norms(spec, list(dict.fromkeys(orders)), config.root_seed())

    rows: list[BoundsRow] = []
    for n in config.n_grid:
        for q in config.q_grid:
            if q < 2.0:
                continue
            nq, n2q = norms[q][0], norms[2.0 * q][0]
            for name, centered in (
                ("ridge_moment_centered", True),
                ("ridge_moment_uncentered", False),
            ):
                value = ridge_moment_bound(gammas, q, n, nq, n2q, centered)
                rows.append(
                    BoundsRow(name, spec.b_x, lam, eta, n, q, value, value > envelope)
                )
        for x in config.x_grid:
            name, value = _pac_threshold(spec, gammas, n, x)
            rows.append(BoundsRow(name, spec.b_x, lam, eta, n, x, value, value > envelope))
    # ExperimentConfig keeps every n in the corollary domain, and every x
    # makes a PAC row, so rows is never empty.  Vacuousness is reported per
    # row.
    return Report(config, rows, True)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

RUNNERS = {
    "coverage": run_coverage,
    "rate": run_rate,
    "stability_sweep": run_stability_sweep,
    "efron_stein": run_efron_stein,
    "bounds_table": run_bounds_table,
}


def run_experiment(config: ExperimentConfig) -> Report:
    return RUNNERS[config.kind](config)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

@contextmanager
def _run_lock(out_dir: Path):
    """Single-writer lock on the output directory for the emission phase.

    An exclusive ``flock`` on the directory itself: it writes no file, and
    the kernel releases it when its holder exits, however it exits, so a
    killed run never leaves the directory locked.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    fd = os.open(out_dir, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError as exc:
            raise PreconditionError(
                f"output directory is locked by another run: {out_dir}"
            ) from exc
        yield
    finally:
        os.close(fd)


def _replace_file(path: Path, text: str) -> None:
    """Write text to a temp file beside path, then rename it over path, so
    path is either its old self or complete, never truncated."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _svg_figure(
    series: list[tuple[str, list[tuple[float, float]]]],
    curve: list[tuple[float, float]],
    title: str,
    log_log: bool,
) -> str:
    """Tiny deterministic SVG scatter: circles for data series, a polyline
    for the reference curve, linear or log-log axes."""
    width, height, pad = 640.0, 420.0, 60.0

    def tx(v: float) -> float:
        return math.log10(v) if log_log else v

    pts = [p for _, s in series for p in s] + curve
    xs = [tx(p[0]) for p in pts]
    ys = [tx(p[1]) for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def px(v: float) -> float:
        return pad + (tx(v) - x_lo) / x_span * (width - 2 * pad)

    def py(v: float) -> float:
        return height - pad - (tx(v) - y_lo) / y_span * (height - 2 * pad)

    coords = " ".join(f"{px(a):.6g},{py(b):.6g}" for a, b in curve)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
        f'<text x="{width / 2:g}" y="24" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad:g}" y1="{height - pad:g}" x2="{width - pad:g}" '
        f'y2="{height - pad:g}" stroke="black"/>',
        f'<line x1="{pad:g}" y1="{pad:g}" x2="{pad:g}" y2="{height - pad:g}" '
        f'stroke="black"/>',
        f'<polyline points="{coords}" fill="none" stroke="#888888" stroke-width="1.5"/>',
    ]
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
    for i, (label, pts_i) in enumerate(series):
        color = palette[i % len(palette)]
        for a, b in pts_i:
            parts.append(
                f'<circle cx="{px(a):.6g}" cy="{py(b):.6g}" r="4" fill="{color}">'
                f"<title>{label}</title></circle>"
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _rate_svg(report: Report) -> str:
    pts = [(float(r.n), r.median_deviation) for r in report.rows]
    log_n = [math.log(p[0]) for p in pts]
    fit = np.polyfit(log_n, [math.log(p[1]) for p in pts], 1)
    curve = [
        (p[0], math.exp(fit[0] * math.log(p[0]) + fit[1])) for p in pts
    ]
    return _svg_figure(
        [("median deviation", pts)],
        curve,
        f"median |LoO - prediction error| vs n (slope {report.extras['slope']:.3f})",
        log_log=True,
    )


def _coverage_svg(report: Report) -> str:
    series = []
    for n in report.config.n_grid:
        pts = [(r.x, r.exceedance_rate) for r in report.rows if r.n == n]
        series.append((f"n={n}", pts))
    xs = sorted({r.x for r in report.rows})
    curve = [(x, math.e * math.exp(-x)) for x in xs]
    return _svg_figure(
        series, curve, "exceedance rate vs x against e*exp(-x)", log_log=False
    )


_SVG_FIGURES = {"rate": _rate_svg, "coverage": _coverage_svg}


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _csv_text(report: Report) -> str:
    """Header from the row dataclass fields (``lam`` is written ``lambda``),
    then one line per row: 17 significant digits, lowercase booleans."""
    names = [f.name for f in dataclasses.fields(report.rows[0])]
    lines = [",".join("lambda" if name == "lam" else name for name in names)]
    lines += [",".join(_csv_cell(getattr(r, name)) for name in names) for r in report.rows]
    return "\n".join(lines) + "\n"


def _finite_or_null(obj):
    """Copy of a JSON-able tree with every NaN/inf float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _json_text(report: Report) -> str:
    obj = {
        "kind": report.config.kind,
        "config": config_to_dict(report.config),
        "rows": [dataclasses.asdict(r) for r in report.rows],
        **report.extras,
    }
    return json.dumps(_finite_or_null(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def parse_formats(formats: Sequence[str], kind: str) -> list[str]:
    """The requested output formats of a report of this kind, stripped,
    blanks dropped.  An unknown format, no format at all, or formats that
    write no file for the kind (SVG alone, for a kind without a figure) are
    a ConfigError."""
    formats = [f.strip() for f in formats if f.strip()]
    unknown = set(formats) - {"csv", "json", "svg"}
    if unknown:
        raise ConfigError(f"unknown emit formats: {sorted(unknown)}")
    if not formats:
        raise ConfigError("no emit format given; choose from csv, json, svg")
    if set(formats) == {"svg"} and kind not in _SVG_FIGURES:
        raise ConfigError(f"{kind} has no SVG figure, so emit format svg alone "
                          "writes nothing; add csv or json")
    return formats


def emit_report(
    report: Report, formats: Sequence[str], out_dir: str | Path | None = None
) -> list[Path]:
    """Persist a report as CSV/JSON/SVG files named <kind>_<base_seed>.<ext>.

    Non-finite floats are written as ``nan``/``inf`` in CSV and as null in
    JSON.  SVG is produced for the kinds with a defined figure (coverage and
    rate); requesting it beside CSV or JSON elsewhere is a no-op, and alone a
    ConfigError (``parse_formats``).  Emission holds an exclusive
    ``flock`` on the output directory, so concurrent runs cannot interleave
    files; the lock writes no file and ends with the run that holds it.
    Each file is renamed into place whole, so a crash leaves no truncated
    file.  An output directory that cannot be made, locked or written to,
    or that another run holds, is a PreconditionError.
    """
    if not report.rows:
        raise PreconditionError("refusing to emit an empty report")
    kind = report.config.kind
    formats = parse_formats(formats, kind)
    out = Path(out_dir) if out_dir is not None else Path(report.config.out_dir)
    stem = f"{kind}_{report.config.base_seed}"
    renderers = {"csv": _csv_text, "json": _json_text, "svg": _SVG_FIGURES.get(kind)}
    # Render everything before touching the directory, so a failing
    # renderer writes nothing.
    texts = {
        out / f"{stem}.{ext}": render(report)
        for ext, render in renderers.items()
        if ext in formats and render is not None
    }
    try:
        with _run_lock(out):
            for path, text in texts.items():
                _replace_file(path, text)
    except OSError as exc:
        raise PreconditionError(f"cannot write the outputs to {out}: {exc}") from exc
    return list(texts)
