"""Byte-identity gate in the test suite: the five criterion-10 determinism
configs and the two Monte Carlo ||Y||_q configs (``digests.mc_norm_configs``)
must emit exactly the files whose sha256 ``tests/digests.json`` records.
The benchmark configs take far longer to run: acceptance criteria 4-8
(``tests/test_acceptance.py``) check the ``c4_*``...``c8_*`` digests on
the reports they already compute, and ``tests/digests.py --check`` checks
them all."""

import json

import pytest

import digests


def test_determinism_configs_match_recorded_digests():
    recorded = json.loads(digests.DIGESTS.read_text())["environment"]
    env = digests.environment()
    if recorded != env:
        pytest.skip(
            f"digests were recorded under {recorded}, this host is {env}; "
            "last-bit differences are possible"
        )
    labels = sorted(
        label for label in digests.reference_configs() if label.startswith(("d_", "m_"))
    )
    assert len(labels) == 7
    assert digests.main(["--check", "--only", ",".join(labels)]) == 0
