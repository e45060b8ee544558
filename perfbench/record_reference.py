"""Record the reference outputs that ``run.py`` checks at the default seed.

    python3 perfbench/record_reference.py

Runs one untraced pass of every workload at the default seed and copies
each experiment's CSV/JSON/SVG outputs to ``perfbench/reference/<name>/``.
The JSON ``config.out_dir`` entry, a path of the recording run that the
check ignores, is stored as ``out``.  Re-record only when a change is meant to alter the outputs.
"""

import json
import shutil
import time

import workloads
from run import REFERENCE, WORK, run_worker


def main() -> int:
    WORK.mkdir(exist_ok=True)
    scratch = WORK / f"record-{time.time_ns()}"
    try:
        for workload in workloads.WORKLOADS:
            workdir = scratch / workload
            measure = run_worker(workload, workloads.DEFAULT_SEED, workdir)
            for exp in measure["experiments"]:
                if exp["exit_code"] != 0:
                    raise SystemExit(f"{exp['name']} exited {exp['exit_code']}: {exp['stderr']}")
                target = REFERENCE / exp["name"]
                shutil.rmtree(target, ignore_errors=True)
                shutil.copytree(workdir / exp["name"] / "out", target)
                for path in target.glob("*.json"):
                    obj = json.loads(path.read_text())
                    obj["config"]["out_dir"] = "out"
                    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
                print(f"recorded {target}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
