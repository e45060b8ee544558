"""Byte-identity gate: every emitted file against its reference file.

    PYTHONPATH=src python3 tests/references.py --check    # compare, exit 1 on a mismatch
    PYTHONPATH=src python3 tests/references.py --check --only c4_ridge_sweep,d_stability_sweep
    PYTHONPATH=src python3 tests/references.py --record   # re-run and rewrite tests/reference/

Each pinned config is a directory of reference files, named by its label,
in one of two roots:

* ``tests/reference/<label>/`` (``pinned_configs()``, 8 configs): one
  criterion-10 determinism config per experiment kind but the bounds table
  (``d_*``), the two configs that reach the Monte Carlo ||Y||_q (``m_*``),
  and the two that reach ``pac_bound_subgaussian`` (``g_*``).  Each config
  is read from the ``config`` object of its own JSON output, so the
  directory is the one source of both the config and its bytes.
* ``perfbench/reference/<label>/`` (``benchmark_configs()``): the seed-0
  experiments of ``perfbench/workloads.py``, which the benchmark checks its
  own runs against.  This module only reads them;
  ``perfbench/record_reference.py`` records them.

``--check`` runs every config into a temporary directory and compares each
emitted file byte for byte with its reference file.  For a config with a
mismatch it also prints why, from ``perfbench/check.py``: the first numbers
that moved by more than 1e-12 relative, or that the files agree within
1e-12 (last-bit drift).  ``--only`` checks the files of the named configs
alone.  ``--record`` re-runs every ``tests/reference/`` config and rewrites
its files, so ``git diff`` shows which numbers moved.  Each config's
``out_dir`` is ``"out"``, so a JSON file does not depend on where it was
written.

Floating-point results may differ in the last bit between numpy/BLAS
builds, so the reference files are host-specific:
``tests/reference_environment.json`` holds the environment they were
recorded under, and a check under another environment says so.  Not
collected by pytest; ``tests/test_references.py`` runs the check in the
test suite, and acceptance criteria 4-8 and 10 compare their benchmark
reports with the reference files.

This module is the tests' one loader of ``perfbench/workloads.py``:
``from references import workloads``.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ENVIRONMENT = HERE / "reference_environment.json"
PINNED = HERE / "reference"
BENCHMARK = ROOT / "perfbench" / "reference"

sys.path[:0] = [str(ROOT / "src"), str(HERE), str(ROOT / "perfbench")]

import check  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402

from stabilab.harness import config_from_dict, emit_report, run_experiment  # noqa: E402

FORMATS = ["csv", "json", "svg"]


def pinned_configs() -> dict:
    """{label: ExperimentConfig} of every tests/reference/<label>/, each read
    from the config echo of the one JSON file there; ValueError if a
    directory has no such file or it holds no valid config."""
    configs = {}
    for directory in sorted(PINNED.iterdir()):
        reports = sorted(directory.glob("*.json"))
        if len(reports) != 1:
            raise ValueError(f"{directory} holds {len(reports)} JSON files, not one")
        try:
            configs[directory.name] = config_from_dict(json.loads(reports[0].read_text())["config"])
        except (ValueError, KeyError) as exc:
            raise ValueError(f"{reports[0]} holds no valid config: {exc!r}") from exc
    return configs


def benchmark_configs() -> dict:
    """{label: ExperimentConfig} of the benchmark's experiments at its
    default seed, whose outputs perfbench/reference/<label>/ pins."""
    return {
        name: config_from_dict(config)
        for workload in workloads.WORKLOADS
        for name, _, config in workloads.experiments(workload)
    }


def reference_dir(label: str) -> Path:
    """The reference files of a config: tests/reference/<label>/, or
    perfbench/reference/<label>/ for a benchmark config."""
    pinned = PINNED / label
    return pinned if pinned.is_dir() else BENCHMARK / label


def reference_comparison(label: str, written) -> dict[str, bool]:
    """{file name: whether its bytes equal the reference} over the emitted
    ``written`` paths and the files of ``reference_dir(label)``; a file on
    one side only does not match."""
    emitted = {path.name: path.read_bytes() for path in written}
    expected = {path.name: path.read_bytes() for path in reference_dir(label).iterdir()}
    return {
        name: emitted.get(name) == expected.get(name)
        for name in sorted(emitted.keys() | expected.keys())
    }


def explain(emitted: Path, reference: Path) -> str:
    """Why two output directories whose bytes differ do so: the first three
    differences beyond perfbench/check.py's 1e-12 relative comparison, or
    last-bit drift when there are none."""
    moved = check.compare_dirs(emitted, reference)
    if not moved:
        return "within 1e-12 (last-bit drift)"
    return "; ".join(moved[:3]) + (f"; and {len(moved) - 3} more" if len(moved) > 3 else "")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def environment_note() -> str | None:
    """Why this host's bytes may differ from the reference files, or None on
    the host whose environment tests/reference_environment.json records."""
    recorded, env = json.loads(ENVIRONMENT.read_text())["environment"], environment()
    if recorded == env:
        return None
    return (f"reference files were recorded under {recorded}, this host is {env}; "
            "last-bit differences are possible")


def _emit(configs: dict, tmp: Path) -> dict[str, list[Path]]:
    """{label: written paths} of every config, each into tmp/<label>."""
    return {
        label: emit_report(run_experiment(config), FORMATS, out_dir=tmp / label)
        for label, config in configs.items()
    }


def _record(tmp: Path) -> int:
    """Re-run every tests/reference config and replace its files, once all
    have run, along with the recording environment."""
    written = _emit(pinned_configs(), tmp)
    for label, paths in written.items():
        for path in (PINNED / label).iterdir():
            path.unlink()
        for path in paths:
            shutil.copyfile(path, PINNED / label / path.name)
    ENVIRONMENT.write_text(
        json.dumps({"environment": environment()}, indent=2, sort_keys=True) + "\n"
    )
    print(f"recorded {sum(map(len, written.values()))} files to {PINNED}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true",
                      help=f"re-run and rewrite {PINNED.relative_to(ROOT)}/")
    mode.add_argument("--check", action="store_true",
                      help=f"compare with {PINNED.relative_to(ROOT)}/ and "
                           f"{BENCHMARK.relative_to(ROOT)}/")
    parser.add_argument(
        "--only", metavar="LABEL[,LABEL]",
        help="with --check, run and compare only these configs (default: all)",
    )
    args = parser.parse_args(argv)
    if args.record:
        if args.only is not None:
            parser.error("--only works with --check; --record rewrites every reference file")
        with tempfile.TemporaryDirectory() as tmp:
            return _record(Path(tmp))
    try:
        configs = {**pinned_configs(), **benchmark_configs()}
    except ValueError as exc:
        parser.exit(1, f"MISMATCH {exc}\n")
    if args.only is not None:
        labels = set(args.only.split(","))
        unknown = sorted(labels - configs.keys())
        if unknown:
            parser.error(f"unknown labels {unknown}; known: {sorted(configs)}")
        configs = {label: c for label, c in configs.items() if label in labels}

    note = environment_note()
    if note is not None:
        print(f"note: {note}", file=sys.stderr)
    matched = total = 0
    with tempfile.TemporaryDirectory() as tmp:
        for label, written in _emit(configs, Path(tmp)).items():
            reference = reference_dir(label)
            comparison = reference_comparison(label, written)
            bad = [name for name, same in comparison.items() if not same]
            for name in bad:
                print(f"MISMATCH {label}/{name}: differs from "
                      f"{reference.relative_to(ROOT)}/{name}")
            if bad:
                print(f"  why: {explain(Path(tmp) / label, reference)}")
            matched += len(comparison) - len(bad)
            total += len(comparison)
    print(f"{matched}/{total} reference files match")
    return 0 if matched == total else 1


if __name__ == "__main__":
    raise SystemExit(main())
