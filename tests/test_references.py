"""Byte-identity gate in the test suite.  Every config of
``tests/reference/`` runs in seconds, so each must emit exactly its
reference files; ``--only`` also takes a benchmark label, whose files are
compared with ``perfbench/reference/``.  Acceptance criteria 4-8 and 10
compare the benchmark reports they already compute with the reference
files, and ``tests/references.py --check`` checks every config."""

import shutil

import pytest

import references


def test_fast_configs_match_reference_files(capsys):
    note = references.environment_note()
    if note is not None:
        pytest.skip(note)
    labels = [*references.pinned_configs(), "c10_bounds_table"]
    assert references.main(["--check", "--only", ",".join(labels)]) == 0
    n = sum(path.is_file() for path in references.PINNED.rglob("*")) + 2
    assert capsys.readouterr().out.splitlines()[-1] == f"{n}/{n} reference files match"


def test_reference_set_matches_the_workloads():
    # A workload experiment with no reference, or a reference left over
    # from a removed experiment, fails here and not only in a benchmark run.
    labels = sorted(path.name for path in references.BENCHMARK.iterdir())
    experiments = references.workloads.WORKLOADS.values()
    assert labels == sorted(name for names in experiments for name, _, _ in names)
    assert not set(labels) & set(references.pinned_configs())


def test_a_mismatch_says_which_numbers_moved(tmp_path):
    reference = references.PINNED / "g_bounds_table"
    emitted = tmp_path / "g_bounds_table"
    shutil.copytree(reference, emitted)
    csv = emitted / "bounds_table_39.csv"
    lines = csv.read_text().splitlines()
    cells = lines[1].split(",")
    value = cells[6]

    def write_value(text):
        csv.write_text("\n".join([lines[0], ",".join([*cells[:6], text, cells[7]]), *lines[2:]])
                       + "\n")

    # The last of 17 significant digits is last-bit drift; a doubled value is not.
    write_value(value[:-1] + ("1" if value[-1] != "1" else "2"))
    assert references.explain(emitted, reference) == "within 1e-12 (last-bit drift)"
    write_value(repr(2 * float(value)))
    assert references.explain(emitted, reference) == (
        f"bounds_table_39.csv: row 1 cell 6: {2 * float(value)!r} != {float(value)!r}"
    )
