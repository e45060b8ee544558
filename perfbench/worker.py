"""One pass over a workload in a fresh process; run by ``run.py``.

    python3 perfbench/worker.py --workload W --seed S --workdir DIR
        [--trace] [--setup-only] [--smoke]

Set-up (importing stabilab and numpy, writing the experiment configs) is
timed from the first statement of this file.  The pass then calls
``stabilab.cli.main`` in-process once per experiment, with CSV, JSON and
SVG emission into DIR/<experiment>/out, and writes its measurements to
DIR/measure.json.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent / "src"))

import workloads  # noqa: E402


def _run_cli(main, argv: list[str]) -> tuple[int, str]:
    """Exit code and captured stderr of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed experiment, not a dead worker
            traceback.print_exc()
            code = 1
    return code, err.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    import stabilab.cli
    from stabilab import harness, stability

    workdir = Path(args.workdir)
    jobs = []
    for name, command, config in workloads.experiments(args.workload, smoke=args.smoke):
        exp_dir = workdir / name
        exp_dir.mkdir(parents=True)
        config_path = exp_dir / "config.json"
        config_path.write_text(json.dumps(config))
        seed = workloads.base_seed(config, args.seed)
        argv = [command, "--config", str(config_path), "--out", str(exp_dir / "out"),
                "--seed", str(seed), "--emit", "csv,json,svg"]
        jobs.append((name, config, argv))
    setup_s = time.perf_counter() - _START
    measure = {"setup_s": setup_s}

    if not args.setup_only:
        from tracer import Tracer, installed_wrappers

        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            outcomes = [(name, *_run_cli(stabilab.cli.main, argv)) for name, _, argv in jobs]
        finally:
            wall_s = time.perf_counter() - start
            usage1 = resource.getrusage(resource.RUSAGE_SELF)
            if tracer is not None:
                tracer.uninstall()
        n_stats = len(harness.EFRON_STEIN_STATS)
        measure.update(
            wall_s=wall_s,
            cpu_s=(usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
            peak_rss_mb=usage1.ru_maxrss / 1024.0,
            replications=sum(workloads.replications(c, n_stats) for _, c, _ in jobs),
            experiments=[
                {"name": name, "exit_code": code, "stderr": err}
                for name, code, err in outcomes
            ],
            wrappers_left=installed_wrappers(),
            env=_environment(),
        )
        if tracer is not None:
            measure["layers"] = tracer.summary(wall_s)
            measure["expected"] = {
                "datagen.replace_point.calls": sum(
                    workloads.expected_replace_point_calls(c, n_stats) for _, c, _ in jobs
                ),
                "stability.stability_profile.calls": sum(
                    workloads.expected_stability_profiles(c, stability.ridge_stability_violations)
                    for _, c, _ in jobs
                ),
            }
    (workdir / "measure.json").write_text(json.dumps(measure))
    return 0


def _environment() -> dict:
    """Python, numpy and BLAS versions, BLAS threads and STABILAB_THREADS."""
    import ctypes
    import os
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(ctypes),
        "STABILAB_THREADS": os.environ.get("STABILAB_THREADS"),
    }


def _blas_threads(ctypes) -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


if __name__ == "__main__":
    raise SystemExit(main())
