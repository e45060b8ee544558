"""Byte-identity gate in the test suite: every config that runs in seconds
(``digests.fast_labels()``: the five criterion-10 determinism configs, the
two Monte Carlo ||Y||_q configs, the two sub-Gaussian configs and the
benchmark's bounds table) must emit exactly the files whose sha256
``tests/digests.json`` records.  The other benchmark configs take far
longer to run: acceptance criteria 4-8 (``tests/test_acceptance.py``)
check the ``c4_*``...``c8_*`` digests on the reports they already compute,
and ``tests/digests.py --check`` checks them all."""

import json

import pytest

import digests


def test_fast_configs_match_recorded_digests():
    recorded = json.loads(digests.DIGESTS.read_text())["environment"]
    env = digests.environment()
    if recorded != env:
        pytest.skip(
            f"digests were recorded under {recorded}, this host is {env}; "
            "last-bit differences are possible"
        )
    assert digests.main(["--check", "--only", ",".join(digests.fast_labels())]) == 0
