"""Byte-identity gate: every emitted file against its one pin.

    PYTHONPATH=src python3 tests/digests.py --record   # write tests/digests.json
    PYTHONPATH=src python3 tests/digests.py --check    # compare, exit 1 on a mismatch
    PYTHONPATH=src python3 tests/digests.py --check --only c4_ridge_sweep,d_stability_sweep

Emits CSV/JSON/SVG for two sets of configs, each into a temporary
directory:

* the digest configs (``digest_configs()``, 19 files): four of the five
  criterion-10 determinism configs of ``tests/test_acceptance.py``, the two
  ``mc_norm_configs()`` and the two ``subgaussian_configs()`` configs below.
  The sha256 of every file is compared with ``tests/digests.json``.
* the benchmark configs (``benchmark_configs()``, 14 files): the seed-0
  experiments of ``perfbench/workloads.py``, the fifth determinism config
  among them.  Every file is compared byte for byte with
  ``perfbench/reference/<label>/``, which the benchmark checks its own runs
  against, so these outputs have one pin.

Each config's ``out_dir`` is ``"out"``, so the JSON files do not depend on
where they were written.  Floating-point results may differ in the last
bit between numpy/BLAS builds, so both pins are host-specific: the
environment the digests were recorded under is stored with them, and a
check under another environment says so.  ``--record`` rewrites the
digests only; the reference files are recorded by
``perfbench/record_reference.py``.  ``--only`` checks the files of the
named configs alone.  Not collected by pytest; ``tests/test_digests.py``
runs the check in the test suite, and acceptance criteria 4-8 and 10
compare their benchmark reports with the reference files.

This module is the tests' one loader of ``perfbench/workloads.py``:
``from digests import workloads``.
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
REFERENCE = ROOT / "perfbench" / "reference"

sys.path[:0] = [str(ROOT / "src"), str(HERE), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402

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


def digest_configs() -> dict:
    """{label: ExperimentConfig} of the configs that tests/digests.json pins,
    every out_dir set to "out"."""
    from test_acceptance import DETERMINISM_CONFIGS

    configs = {
        f"d_{config.kind}": dataclasses.replace(config, out_dir="out")
        for config in DETERMINISM_CONFIGS
    }
    configs.update(mc_norm_configs())
    configs.update(subgaussian_configs())
    return configs


def benchmark_configs() -> dict:
    """{label: ExperimentConfig} of the benchmark's experiments at its
    default seed, whose outputs perfbench/reference/<label>/ pins."""
    return {
        name: config_from_dict(config)
        for workload in workloads.WORKLOADS
        for name, _, config in workloads.experiments(workload)
    }


def reference_comparison(label: str, written) -> dict[str, bool]:
    """{file name: whether its bytes equal the reference} over the emitted
    ``written`` paths and the files of perfbench/reference/<label>/; a file
    on one side only does not match."""
    emitted = {path.name: path.read_bytes() for path in written}
    expected = {path.name: path.read_bytes() for path in (REFERENCE / label).iterdir()}
    return {
        name: emitted.get(name) == expected.get(name)
        for name in sorted(emitted.keys() | expected.keys())
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def environment_note() -> str | None:
    """Why this host's bytes may differ from both pins, or None on the host
    whose environment tests/digests.json records."""
    recorded, env = json.loads(DIGESTS.read_text())["environment"], environment()
    if recorded == env:
        return None
    return (f"digests were recorded under {recorded}, this host is {env}; "
            "last-bit differences are possible")


def _emit(configs: dict, tmp: Path) -> dict[str, list[Path]]:
    """{label: written paths} of every config, each into tmp/<label>."""
    return {
        label: emit_report(run_experiment(config), FORMATS, out_dir=tmp / label)
        for label, config in configs.items()
    }


def _digests(written: dict[str, list[Path]]) -> dict[str, str]:
    return dict(sorted(
        (f"{label}/{path.name}", hashlib.sha256(path.read_bytes()).hexdigest())
        for label, paths in written.items() for path in paths
    ))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true", help=f"write {DIGESTS.name}")
    mode.add_argument("--check", action="store_true",
                      help=f"compare with {DIGESTS.name} and {REFERENCE.relative_to(ROOT)}/")
    parser.add_argument(
        "--only", metavar="LABEL[,LABEL]",
        help="with --check, run and compare only these configs (default: all)",
    )
    args = parser.parse_args(argv)
    pinned, benchmark = digest_configs(), benchmark_configs()
    if args.only is not None:
        if args.record:
            parser.error("--only works with --check; --record writes every digest")
        labels = set(args.only.split(","))
        unknown = sorted(labels - pinned.keys() - benchmark.keys())
        if unknown:
            parser.error(f"unknown labels {unknown}; known: {sorted({**pinned, **benchmark})}")
        pinned = {label: c for label, c in pinned.items() if label in labels}
        benchmark = {label: c for label, c in benchmark.items() if label in labels}

    with tempfile.TemporaryDirectory() as tmp:
        digests = _digests(_emit(pinned, Path(tmp) / "digests"))
        if args.record:
            DIGESTS.write_text(json.dumps(
                {"environment": environment(), "files": digests}, indent=2, sort_keys=True
            ) + "\n")
            print(f"recorded {len(digests)} digests to {DIGESTS}")
            return 0
        references = {
            f"{label}/{name}": same
            for label, written in _emit(benchmark, Path(tmp) / "reference").items()
            for name, same in reference_comparison(label, written).items()
        }

    note = environment_note()
    if note is not None:
        print(f"note: {note}", file=sys.stderr)
    expected = {
        name: digest for name, digest in json.loads(DIGESTS.read_text())["files"].items()
        if name.split("/", 1)[0] in pinned
    }
    names = sorted(expected.keys() | digests.keys())
    bad_digests = [name for name in names if expected.get(name) != digests.get(name)]
    for name in bad_digests:
        print(f"MISMATCH {name}: recorded {expected.get(name)}, now {digests.get(name)}")
    bad_references = [name for name, same in references.items() if not same]
    for name in bad_references:
        print(f"MISMATCH {name}: differs from {REFERENCE.relative_to(ROOT)}/{name}")
    print(
        f"{len(names) - len(bad_digests)}/{len(names)} digests match, "
        f"{len(references) - len(bad_references)}/{len(references)} reference files match"
    )
    return 1 if bad_digests or bad_references else 0


if __name__ == "__main__":
    raise SystemExit(main())
