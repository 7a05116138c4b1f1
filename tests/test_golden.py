"""Behaviour gate: every suite's canonical report at CLI defaults, plus the
rank-3 glue and manin runs, must match its committed golden copy byte for byte.

To refresh a golden file after an intended behaviour change, run
``PYTHONPATH=src python -m gaudin.cli verify SUITE --out tests/golden``; a
rank-3 report is written as ``verify-SUITE.json`` by ``verify SUITE --r 3``
and kept as ``verify-SUITE-r3.json``.
"""

from pathlib import Path

import pytest

from gaudin.cli import main
from gaudin.suites import SUITES

GOLDEN = Path(__file__).parent / "golden"


# (id, suite, extra CLI arguments); each report is kept as verify-<id>.json.
CASES = [(suite, suite, ()) for suite in SUITES] + [
    (f"{suite}-r3", suite, ("--r", "3")) for suite in ("glue", "manin")]


@pytest.mark.parametrize("case, suite, args", CASES, ids=[c[0] for c in CASES])
def test_default_report_matches_golden(case, suite, args, tmp_path):
    assert main(["verify", suite, *args, "--out", str(tmp_path)]) == 0
    name = f"verify-{suite}.json"
    assert (tmp_path / name).read_bytes() == (GOLDEN / f"verify-{case}.json").read_bytes()
