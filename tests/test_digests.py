"""Byte-identity gate in the test suite.  Every digest config runs in
seconds, so each must emit exactly the files whose sha256
``tests/digests.json`` records; ``--only`` also takes a benchmark label,
whose files are compared with ``perfbench/reference/``.  Acceptance
criteria 4-8 and 10 compare the benchmark reports they already compute
with the reference files, and ``tests/digests.py --check`` checks every
config."""

import json

import pytest

import digests


def test_fast_configs_match_recorded_digests(capsys):
    note = digests.environment_note()
    if note is not None:
        pytest.skip(note)
    labels = [*digests.digest_configs(), "c10_bounds_table"]
    assert digests.main(["--check", "--only", ",".join(labels)]) == 0
    n = len(json.loads(digests.DIGESTS.read_text())["files"])
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"{n}/{n} digests match, 2/2 reference files match"
    )


def test_reference_set_matches_the_workloads():
    # A workload experiment with no reference, or a reference left over
    # from a removed experiment, fails here and not only in a benchmark run.
    references = sorted(path.name for path in digests.REFERENCE.iterdir())
    experiments = digests.workloads.WORKLOADS.values()
    assert references == sorted(name for names in experiments for name, _, _ in names)
