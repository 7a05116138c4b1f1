"""Behaviour gate: every suite's canonical report at CLI defaults, plus the
rank-3 glue and manin runs, and every ``build`` target's output must match its
committed golden copy byte for byte.

To refresh a golden file after an intended behaviour change, run the case's
command with ``--out tests/golden`` (``PYTHONPATH=src python -m gaudin.cli
verify SUITE --out tests/golden``); a rank-3 report is written as
``verify-SUITE.json`` by ``verify SUITE --r 3`` and kept as
``verify-SUITE-r3.json``; the mixed-pole manin run is kept as
``verify-manin-rational.json``, the seed-62 one as
``verify-manin-r3-seed62.json`` and the rank-3 five-site glue run, whose
certificate brackets 66 pairs, as ``verify-glue-r3-pattern.json``.
"""

import json
from pathlib import Path

import pytest

from gaudin.cli import BUILD_TARGETS, main
from gaudin.suites import SUITES

GOLDEN = Path(__file__).parent / "golden"
PATTERN_ARGS = ("--pattern", "[1,2,[3,4,5]@3]", "--sites", "5")


# (id, CLI arguments, golden file name).  Build outputs render LaxEntry
# matrices and Talalaev coefficients, which no verify report does.
CASES = [(suite, ("verify", suite), f"verify-{suite}.json") for suite in SUITES] + [
    (f"{suite}-r3", ("verify", suite, "--r", "3"), f"verify-{suite}-r3.json")
    for suite in ("glue", "manin")] + [
    # integral and non-integral poles together: both pole-key types of RatFun
    ("manin-rational-poles", ("verify", "manin", "--r", "2", "--poles", "1/2,-3/4,5"),
     "verify-manin-rational.json"),
    # the 4x4 random matrix is redrawn twice for a regular leading block
    ("manin-r3-seed62", ("verify", "manin", "--r", "3", "--seed", "62"),
     "verify-manin-r3-seed62.json"),
    ("glue-r3-pattern", ("verify", "glue", "--r", "3", *PATTERN_ARGS, "--unsafe-scale"),
     "verify-glue-r3-pattern.json")] + [
    (f"build-{what}",
     ("build", "--what", what, *(PATTERN_ARGS if what == "pattern" else ())),
     f"build-{what}.json")
    for what in BUILD_TARGETS]


@pytest.mark.parametrize("argv, golden", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_default_report_matches_golden(argv, golden, tmp_path):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    (written,) = tmp_path.iterdir()
    assert written.read_bytes() == (GOLDEN / golden).read_bytes()


def _infos(node):
    """Every ``info`` dict in a loaded report."""
    if isinstance(node, dict):
        if isinstance(node.get("info"), dict):
            yield node["info"]
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from _infos(child)


def test_every_certificate_brackets_each_pair_of_its_basis_once():
    infos = [info for path in sorted(GOLDEN.glob("*.json"))
             for info in _infos(json.loads(path.read_text()))
             if {"basis", "pairs"} <= info.keys()]
    assert infos
    assert all(info["pairs"] == info["basis"] * (info["basis"] - 1) // 2 for info in infos)
