"""Byte-identity gate: sha256 of every emitted file of the reference configs.

    PYTHONPATH=src python3 tests/digests.py --record   # write tests/digests.json
    PYTHONPATH=src python3 tests/digests.py --check    # compare, exit 1 on a mismatch
    PYTHONPATH=src python3 tests/digests.py --check --only c4_ridge_sweep,d_stability_sweep

Emits CSV/JSON/SVG for the five criterion-10 determinism configs of
``tests/test_acceptance.py``, for the two ``mc_norm_configs()`` and the two
``subgaussian_configs()`` configs below and for the seed-0 experiment
configs of ``perfbench/workloads.py`` (35 files), each into a temporary
directory, and compares the sha256 of every file with
``tests/digests.json``.  Each config's
``out_dir`` is set to ``"out"`` before the run, so the JSON files do not
depend on where they were written.  Floating-point results may differ in
the last bit between numpy/BLAS builds, so the digests are host-specific:
the environment they were recorded under is stored with them, and a check
under another environment says so.  ``--only`` checks the files of the
named configs alone.  Not collected by pytest; ``tests/test_digests.py``
runs the check of the ``fast_labels()`` configs in the test suite, and
acceptance criteria 4-8 that of their benchmark configs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

sys.path[:0] = [str(ROOT / "src"), str(HERE), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from stabilab.harness import config_from_dict, emit_report, run_experiment  # noqa: E402

FORMATS = ["csv", "json", "svg"]


def mc_norm_configs() -> dict:
    """{label: ExperimentConfig} of a ridge sweep and a bounds table on
    NOISY_SPEC, whose ||Y||_q has no closed form: the only configs that
    reach the Monte Carlo norm estimate."""
    from test_acceptance import NOISY_SPEC

    from stabilab.harness import AlgorithmConfig, ExperimentConfig

    ridge = AlgorithmConfig(name="ridge", lam=(1.0,), eta=0.5)
    common = dict(spec=NOISY_SPEC, algorithm=ridge, x_grid=(1.0, 3.0), test_m=2, out_dir="out")
    return {
        "m_stability_sweep": ExperimentConfig(
            kind="stability_sweep", n_grid=(20,), q_grid=(1.0, 2.0), reps=30, base_seed=36,
            **common,
        ),
        "m_bounds_table": ExperimentConfig(
            kind="bounds_table", n_grid=(50,), q_grid=(2.0, 4.0), reps=1, base_seed=37,
            **common,
        ),
    }


def subgaussian_configs() -> dict:
    """{label: ExperimentConfig} of a coverage run and a bounds table on
    GAUSSIAN_SPEC: the only configs that reach ``pac_bound_subgaussian``.
    The table's q_grid [1.0] makes no moment row, so it needs no ||Y||_q."""
    from test_acceptance import GAUSSIAN_SPEC

    from stabilab.harness import AlgorithmConfig, ExperimentConfig

    ridge = AlgorithmConfig(name="ridge", lam=(1.0,), eta=0.5)
    common = dict(spec=GAUSSIAN_SPEC, algorithm=ridge, q_grid=(1.0,), x_grid=(1.0, 3.0),
                  out_dir="out")
    return {
        "g_coverage": ExperimentConfig(
            kind="coverage", n_grid=(50,), reps=60, test_m=300, base_seed=38, **common,
        ),
        "g_bounds_table": ExperimentConfig(
            kind="bounds_table", n_grid=(50, 200), reps=1, test_m=2, base_seed=39, **common,
        ),
    }


def reference_configs() -> dict:
    """{label: ExperimentConfig}, every out_dir set to "out"."""
    from test_acceptance import DETERMINISM_CONFIGS
    from workloads import WORKLOADS

    configs = {
        f"d_{config.kind}": dataclasses.replace(config, out_dir="out")
        for config in DETERMINISM_CONFIGS
    }
    configs.update(mc_norm_configs())
    configs.update(subgaussian_configs())
    for experiments in WORKLOADS.values():
        for name, _, config in experiments:
            configs[name] = config_from_dict({**config, "out_dir": "out"})
    return configs


def fast_labels() -> list[str]:
    """Labels of the configs that run in seconds: the determinism, Monte
    Carlo ||Y||_q and sub-Gaussian configs, and the benchmark's bounds table."""
    return sorted(
        label for label in reference_configs()
        if label.startswith(("d_", "m_", "g_")) or label == "c10_bounds_table"
    )


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def compute_digests(labels=None) -> dict[str, str]:
    """{label/file: sha256} of the configs named in ``labels`` (all if None)."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, config in reference_configs().items():
            if labels is not None and label not in labels:
                continue
            written = emit_report(run_experiment(config), FORMATS, out_dir=Path(tmp) / label)
            for path in written:
                digests[f"{label}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return dict(sorted(digests.items()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true", help=f"write {DIGESTS.name}")
    mode.add_argument("--check", action="store_true", help=f"compare with {DIGESTS.name}")
    parser.add_argument(
        "--only", metavar="LABEL[,LABEL]",
        help="with --check, run and compare only these configs (default: all)",
    )
    args = parser.parse_args(argv)
    labels = None
    if args.only is not None:
        if args.record:
            parser.error("--only works with --check; --record writes every digest")
        labels = set(args.only.split(","))
        unknown = sorted(labels - reference_configs().keys())
        if unknown:
            parser.error(f"unknown labels {unknown}; known: {sorted(reference_configs())}")

    env, digests = environment(), compute_digests(labels)
    if args.record:
        DIGESTS.write_text(
            json.dumps({"environment": env, "files": digests}, indent=2, sort_keys=True) + "\n"
        )
        print(f"recorded {len(digests)} digests to {DIGESTS}")
        return 0

    recorded = json.loads(DIGESTS.read_text())
    if recorded["environment"] != env:
        print(
            f"note: digests were recorded under {recorded['environment']}, "
            f"this host is {env}; last-bit differences are possible",
            file=sys.stderr,
        )
    expected = {
        name: digest for name, digest in recorded["files"].items()
        if labels is None or name.split("/", 1)[0] in labels
    }
    bad = sorted(
        name for name in expected.keys() | digests.keys()
        if expected.get(name) != digests.get(name)
    )
    for name in bad:
        print(f"MISMATCH {name}: recorded {expected.get(name)}, now {digests.get(name)}")
    print(f"{len(digests) - len(bad)}/{len(expected.keys() | digests.keys())} digests match")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
