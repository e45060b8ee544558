"""Run every workload untraced and traced and collect one report.

    python3 perfbench/report.py [--label baseline]

Prints each run's metrics (name, unit, sample count, median, quartiles)
and the per-layer table of each traced run, then a summary of the
end-to-end medians, and writes everything, with the environment, to
``perfbench/BENCH_<label>.json``.  Commit the file a later change is to be
compared with.
"""

from __future__ import annotations

import argparse
import json
import sys
from statistics import median

import run
import workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="baseline")
    args = parser.parse_args(argv)

    seed = workloads.DEFAULT_SEED
    report = {"label": args.label, "seed": seed, "workloads": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} trace {trace}", flush=True)
            if run.main(["--workload", workload, "--trace", str(trace)]) != 0:
                return 1
            path = run.RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
            result = json.loads(path.read_text())
            # Per-pass layer tables and samples stay in the run's own file;
            # the report keeps the end-to-end samples and the per-layer medians.
            del result["layers"]
            if trace:
                del result["samples"]
            report["workloads"].setdefault(workload, {})[f"trace{trace}"] = result

    print("== end-to-end medians")
    for workload, runs in report["workloads"].items():
        result = runs["trace0"]
        cells = ", ".join(
            f"{name} {median(sample['values']):.4g} "
            f"{sample['unit']} (n={len(sample['values'])})"
            for name, sample in result["samples"].items()
        )
        print(f"{workload}: {cells}, failed_frac {result['failed_frac']:.3g}")
    path = run.HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
