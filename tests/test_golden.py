"""Behaviour gate: every suite's canonical report at CLI defaults must match
its committed golden copy byte for byte.

To refresh a golden file after an intended behaviour change, run
``PYTHONPATH=src python -m gaudin.cli verify SUITE --out tests/golden``.
"""

from pathlib import Path

import pytest

from gaudin.cli import main
from gaudin.suites import SUITES

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("suite", SUITES)
def test_default_report_matches_golden(suite, tmp_path):
    assert main(["verify", suite, "--out", str(tmp_path)]) == 0
    name = f"verify-{suite}.json"
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
