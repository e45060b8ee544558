"""The benchmark's per-function metrics name functions that its tracer wraps.

``BENCHMARK.json`` lists ``<function>.calls`` (and its timings) for a fixed
set of traced functions, and a traced benchmark run fails when one of them
was not measured.  Renaming or deleting such a function in ``src/`` would
otherwise show up only in that traced run.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402


def test_every_per_function_metric_names_a_traced_function():
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    named = [m["name"].removesuffix(".calls") for m in per_layer if m["name"].endswith(".calls")]
    assert named, "BENCHMARK.json lists no per-function metric"
    traced = tracer.traced_functions()
    assert [name for name in named if name not in traced] == []
