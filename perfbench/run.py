"""stabilab benchmark: time the CLI on fixed Monte Carlo workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds T] [--trace 0|1]

Each pass over a workload runs in a fresh Python process (``worker.py``)
that imports stabilab and drives ``stabilab.cli.main`` once per experiment,
one after another, with one worker thread (``STABILAB_THREADS`` unset).  A
run makes passes until ``--seconds`` is used up and reports medians.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json:

* ``wall_s``: from the first ``cli.main`` call to the last output written;
* ``setup_s``: importing stabilab (numpy included) and writing the configs,
  measured in every pass;
* ``reps_per_s``: Monte Carlo replications (reps x grid cells) per ``wall_s``;
* ``cpu_s``: user plus system CPU time of the pass process over ``wall_s``;
* ``peak_rss_mb``: peak resident memory of the pass process.

With ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics of BENCHMARK.json (see ``tracer.py``);
``trace_overhead_s`` is the median, over the pairs, of a traced pass's
``wall_s`` minus that of the untraced pass just before it.  A ``.p50_us``
or ``.p99_us`` metric reads 0 when its function made fewer than 1,000
calls in the pass.  A per-layer metric that the tracer did not measure
fails the run.  The traced run also checks that the tracer saw every call:
``datagen.replace_point`` once per Efron-Stein swap,
``stability.stability_profile`` once per sweep combo not skipped, and less
than 10% of the traced time not attributed to a layer function below the
dispatchers ``cli.main`` and ``harness.run_experiment``.

An experiment fails when it exits nonzero or, at the default seed, when its
CSV/JSON/SVG outputs differ from the files in ``reference/`` (flags and
labels exactly, numbers to 1e-12 relative).  The failed fraction is
``failed / attempted`` in the result line.  Everything, with the
environment, goes to ``perfbench/results/<workload>-seed<seed>-trace<t>.json``;
the last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import check
import workloads
from tracer import HOT_CALLS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference"

MIN_PASSES = 3  # untraced passes per run, whatever --seconds says
PASS_TIMEOUT_S = 150.0
ROOT_SELF_LIMIT = 0.10


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not an experiment failure)."""


def run_worker(workload: str, seed: int, workdir: Path, *flags: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "STABILAB_THREADS"}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), *flags]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"pass timed out after {PASS_TIMEOUT_S:g} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads((workdir / "measure.json").read_text())


class Run:
    """The passes of one benchmark run and their correctness checks."""

    def __init__(self, workload: str, seed: int, smoke: bool, scratch: Path) -> None:
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.scratch = scratch
        self.flags = ["--smoke"] if smoke else []
        self.passes: list[dict] = []
        self.traced: list[dict] = []
        self.overheads: list[float] = []  # traced minus preceding untraced wall_s
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0  # experiments; self.failures also holds tracer self-check errors
        self.env: dict = {}
        self._count = 0

    def _dir(self) -> Path:
        self._count += 1
        return self.scratch / f"p{self._count}"

    def warm_up(self) -> None:
        """Set up once untimed: fills the page cache and the bytecode cache."""
        run_worker(self.workload, self.seed, self._dir(), "--setup-only", *self.flags)

    def one_pass(self, traced: bool) -> None:
        workdir = self._dir()
        extra = ["--trace"] if traced else []
        measure = run_worker(self.workload, self.seed, workdir, *extra, *self.flags)
        self.env = measure["env"]
        self._check(measure, workdir, traced)
        shutil.rmtree(workdir)
        if traced:
            self.traced.append(measure)
            self.overheads.append(measure["wall_s"] - self.passes[-1]["wall_s"])
        else:
            self.passes.append(measure)

    def _check(self, measure: dict, workdir: Path, traced: bool) -> None:
        label = f"pass {self._count}"
        verify = self.seed == workloads.DEFAULT_SEED and not self.smoke
        for exp in measure["experiments"]:
            self.attempted += 1
            name, code = exp["name"], exp["exit_code"]
            if code != 0:
                last = exp["stderr"].strip().splitlines()[-1:] or [""]
                problem = f"exit code {code} {last[0]}"
            elif verify:
                mismatches = check.compare_dirs(workdir / name / "out", REFERENCE / name)
                problem = "; ".join(mismatches[:3])
            else:
                problem = ""
            if problem:
                self.failed += 1
                self.failures.append(f"{label} {name}: {problem}")
        if measure["wrappers_left"]:
            state = "after tracing" if traced else "in an untraced pass"
            self.failures.append(f"{label}: tracer wrappers bound {state}: "
                                 f"{measure['wrappers_left'][:5]}")
        if traced:
            layers, expected = measure["layers"], measure["expected"]
            for name, want in expected.items():
                if layers[name] != want:
                    self.failures.append(f"{label}: trace saw {name} = {layers[name]}, "
                                         f"expected {want}")
            if layers["root.self_frac"] >= ROOT_SELF_LIMIT:
                self.failures.append(f"{label}: {layers['root.self_frac']:.1%} of traced "
                                     f"time is not attributed to a layer function")


def _quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _done(durations: list[float], deadline: float, min_passes: int) -> bool:
    # No pass starts that would likely end past the deadline, so that a run
    # takes about --seconds whatever the length of a pass.
    return len(durations) >= min_passes and time.monotonic() + median(durations) > deadline


def measure_untraced(run: Run, deadline: float) -> None:
    durations = []
    while not _done(durations, deadline, MIN_PASSES):
        started = time.monotonic()
        run.one_pass(traced=False)
        durations.append(time.monotonic() - started)


def measure_traced(run: Run, deadline: float) -> None:
    durations = []
    while not _done(durations, deadline, 1):
        started = time.monotonic()
        run.one_pass(traced=False)
        run.one_pass(traced=True)
        durations.append(time.monotonic() - started)


def end_to_end(run: Run) -> dict[str, list[float]]:
    return {
        "wall_s": [p["wall_s"] for p in run.passes],
        "setup_s": [p["setup_s"] for p in run.passes],
        "reps_per_s": [p["replications"] / p["wall_s"] for p in run.passes],
        "cpu_s": [p["cpu_s"] for p in run.passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in run.passes],
    }


def per_layer(run: Run, names) -> dict[str, list[float]]:
    out = {}
    for name in names:
        if name == "trace_overhead_s":
            out[name] = run.overheads
        elif name == "trace.wall_s":
            out[name] = [p["wall_s"] for p in run.traced]
        elif all(name in p["layers"] for p in run.traced):
            out[name] = [p["layers"][name] for p in run.traced]
        else:
            raise BenchmarkError(f"per-layer metric {name!r} was not measured by the tracer")
    return out


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _print_table(samples: dict[str, list[float]], units: dict[str, str], title: str) -> None:
    print(f"{title}:")
    print(f"  {'metric':<44} {'unit':<8} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14}")
    for name, values in samples.items():
        q1, q3 = _quartiles(values)
        print(f"  {name:<44} {units[name]:<8} {len(values):>3} "
              f"{median(values):>14.6g} {q1:>14.6g} {q3:>14.6g}")


def _print_layers(layers: dict) -> None:
    every = [k[: -len(".calls")] for k in layers if k.endswith(".calls")]
    called = sorted((f for f in every if layers[f + ".calls"]),
                    key=lambda f: -layers[f + ".self_s"])
    print("per-layer table (middle traced pass, by self time):")
    print(f"  {'function':<36} {'calls':>9} {'incl_s':>10} {'self_s':>10} {'p50_us':>9} {'p99_us':>9}")
    for f in called:
        if layers[f + ".calls"] >= HOT_CALLS:
            pct = f"{layers[f + '.p50_us']:>9.2f} {layers[f + '.p99_us']:>9.2f}"
        else:
            pct = f"{'-':>9} {'-':>9}"
        print(f"  {f:<36} {layers[f + '.calls']:>9} {layers[f + '.incl_s']:>10.4f} "
              f"{layers[f + '.self_s']:>10.4f} {pct}")
    per_function = {f"{f}.{s}" for f in every for s in ("calls", "incl_s", "self_s", "p50_us", "p99_us")}
    for key in sorted(set(layers) - per_function):
        print(f"  {key:<36} {layers[key]:>.6g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny replication counts, for the benchmark's own tests")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    if not (ROOT / "src" / "stabilab").is_dir():
        print("error: no stabilab sources under src/ in this checkout", file=sys.stderr)
        return 1

    deadline = time.monotonic() + seconds
    WORK.mkdir(exist_ok=True)
    scratch = WORK / f"run-{os.getpid()}-{time.time_ns()}"
    scratch.mkdir()
    run = Run(args.workload, args.seed, args.smoke, scratch)
    try:
        run.warm_up()
        if args.trace:
            measure_traced(run, deadline)
            samples = per_layer(run, units)
        else:
            measure_untraced(run, deadline)
            samples = end_to_end(run)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    env = {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        **run.env,
    }
    correct = not run.failures
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": median(values), "unit": units[name]}
            for name, values in samples.items()
        },
    }

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(run.passes)} untraced and {len(run.traced)} traced passes")
    print("environment: " + json.dumps(env, sort_keys=True))
    _print_table(samples, units, "metrics")
    print(f"failed_frac: {run.failed / run.attempted:.6g} "
          f"({run.failed} of {run.attempted} experiments)")
    for failure in run.failures:
        print(f"FAILED {failure}")
    if run.traced:
        _print_layers(run.traced[len(run.traced) // 2]["layers"])

    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": seconds, "smoke": args.smoke, "environment": env,
        "failed_frac": run.failed / run.attempted, "failures": run.failures,
        "samples": {name: {"unit": units[name], "values": values}
                    for name, values in samples.items()},
        "layers": [p["layers"] for p in run.traced],
        "result": result,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
