"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

Smoke runs use tiny replication counts (``run.py --smoke``): each workload
runs once untraced and once traced.
"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in group
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in group)


def test_untraced_pass_installs_no_wrapper(tmp_path):
    subprocess.run([sys.executable, str(BENCH / "worker.py"), "--workload", "efron_stein_swaps",
                    "--seed", "0", "--workdir", str(tmp_path / "pass"), "--smoke"],
                   check=True, timeout=120)
    measure = json.loads((tmp_path / "pass" / "measure.json").read_text())
    assert "layers" not in measure
    assert measure["wrappers_left"] == []
    assert [e["exit_code"] for e in measure["experiments"]] == [0]


def _bindings() -> dict:
    """Every object bound under a stabilab module, its classes and RUNNERS."""
    import stabilab.harness

    out = {}
    for mod in tracer._package_modules():
        for attr, obj in vars(mod).items():
            out[(mod.__name__, attr)] = obj
            if inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    out[(mod.__name__, attr, meth)] = fn
    for kind, fn in stabilab.harness.RUNNERS.items():
        out[("RUNNERS", kind)] = fn
    return out


def test_tracer_wraps_every_binding_and_restores_the_originals():
    import stabilab  # noqa: F401

    traced = {id(fn) for _, _, fn in tracer.traced_functions().values()}
    before = _bindings()
    with tracer.Tracer():
        during = _bindings()
        assert tracer.installed_wrappers()
    after = _bindings()

    wrapped = 0
    for key, obj in before.items():
        if inspect.isfunction(obj) and id(obj) in traced:
            wrapped += 1
            assert during[key] is not obj and during[key].__wrapped__ is obj, key
        else:
            assert during[key] is obj, key
    assert ("RUNNERS", "rate") in before and during[("RUNNERS", "rate")] is not before[("RUNNERS", "rate")]
    assert during[("stabilab.stability", "_ridge_loo_betas")] is not before[("stabilab.stability", "_ridge_loo_betas")]
    assert wrapped > len(traced)  # names imported by other modules are wrapped too
    assert all(after[key] is obj for key, obj in before.items())
    assert after.keys() == before.keys()
    assert tracer.installed_wrappers() == []


def test_tracer_counts_calls_and_self_time_adds_up():
    import time

    from stabilab.bounds import efron_stein_moment_check
    from stabilab.datagen import DataSpec, SeedSpec

    spec = DataSpec(d=1, x_family="rademacher_coords", b_x=1.0, y_model="linear_clipped",
                    beta_star=(1.0,), noise_scale=0.0, b_y=1.0)
    n, reps = 5, 3
    t = tracer.Tracer()
    with t:
        import stabilab.bounds

        start = time.perf_counter()
        stabilab.bounds.efron_stein_moment_check("ridge_loo", spec, n, 2.0, reps, SeedSpec(1))
        wall = time.perf_counter() - start
    summary = t.summary(wall)
    assert stabilab.bounds.efron_stein_moment_check is efron_stein_moment_check
    assert summary["bounds.efron_stein_moment_check.calls"] == 1
    assert summary["datagen.replace_point.calls"] == reps * n
    # one statistic per mean draw (2 reps), per main draw, and per swap
    assert summary["learners.ridge_loo_fast.calls"] == 2 * reps + reps + reps * n
    assert summary["learners.loo_points"] == n * summary["learners.ridge_loo_fast.calls"]
    layer_total = sum(summary[f"layer.{layer}.self_s"] for layer in tracer.LAYERS)
    dispatch = sum(summary[f"{name}.self_s"] for name in tracer.DISPATCH)
    assert layer_total - dispatch + summary["root.self_s"] == pytest.approx(wall, rel=1e-9)
    assert 0.0 <= summary["root.self_frac"] < 1.0
    assert summary["datagen.replace_point.p50_us"] == 0.0  # fewer than HOT_CALLS calls


def test_untraced_work_below_the_dispatchers_counts_as_unattributed(monkeypatch, tmp_path):
    import time

    import stabilab.cli
    import stabilab.harness

    original = stabilab.harness.RUNNERS["bounds_table"]

    def hidden_runner(config):  # not a traced function: its time is unattributed
        time.sleep(0.2)
        return original(config)

    monkeypatch.setitem(stabilab.harness.RUNNERS, "bounds_table", hidden_runner)
    _, command, config = workloads.experiments("deviation_rate")[-1]
    (tmp_path / "config.json").write_text(json.dumps(config))
    argv = [command, "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]
    t = tracer.Tracer()
    with t:
        start = time.perf_counter()
        assert stabilab.cli.main(argv) == 0
        wall = time.perf_counter() - start
    summary = t.summary(wall)
    assert summary["harness.emit_report.calls"] == 1
    assert summary["root.self_s"] >= 0.2


def test_a_per_layer_metric_the_tracer_does_not_measure_fails_the_run(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec["per_layer"].append({"name": "datagen.sample_datset.calls", "unit": "count",
                              "better": "lower"})
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "results", "tests", "reference", "__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"),
                           "--workload", "stability_sweeps", "--seed", "3", "--seconds", "0",
                           "--trace", "1", "--smoke"],
                          capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert "datagen.sample_datset.calls" in proc.stderr
    assert '"metrics"' not in proc.stdout


def _perturbed_copy(tmp_path: Path, edit) -> Path:
    ref = BENCH / "reference" / "c6_efron_stein"
    got = tmp_path / "out"
    shutil.copytree(ref, got)
    path = got / "efron_stein_20244.json"
    obj = json.loads(path.read_text())
    edit(next(row for row in obj["rows"] if row["lhs"] != 0.0))
    path.write_text(json.dumps(obj))
    return got


def test_reference_check_accepts_1e13_and_rejects_1e10_or_a_flipped_flag(tmp_path):
    ref = BENCH / "reference" / "c6_efron_stein"
    assert check.compare_dirs(ref, ref) == []

    def scale(factor):
        def edit(row):
            row["lhs"] *= factor
        return edit

    assert check.compare_dirs(_perturbed_copy(tmp_path / "a", scale(1 + 1e-13)), ref) == []
    assert check.compare_dirs(_perturbed_copy(tmp_path / "b", scale(1 + 1e-10)), ref)

    def flip(row):
        row["passed"] = not row["passed"]

    assert check.compare_dirs(_perturbed_copy(tmp_path / "c", flip), ref)


def test_svg_numbers_may_move_one_unit_in_the_last_digit(tmp_path):
    ref = BENCH / "reference" / "c8_rate"
    svg = (ref / "rate_20242.svg").read_text()
    assert svg.count('cy="164.188"') == 1
    got = tmp_path / "out"
    shutil.copytree(ref, got)
    (got / "rate_20242.svg").write_text(svg.replace('cy="164.188"', 'cy="164.189"'))
    assert check.compare_dirs(got, ref) == []
    (got / "rate_20242.svg").write_text(svg.replace('cy="164.188"', 'cy="164.191"'))
    assert check.compare_dirs(got, ref)


def test_default_seed_reproduces_the_acceptance_base_seeds():
    for workload in workloads.WORKLOADS:
        for _, _, config in workloads.experiments(workload):
            assert workloads.base_seed(config, workloads.DEFAULT_SEED) == config["base_seed"]
            assert workloads.base_seed(config, 7) != config["base_seed"]
