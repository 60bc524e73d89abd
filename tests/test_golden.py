"""Byte-for-byte CLI outputs against recorded golden files.

The files in ``tests/data/golden/`` are the stdout of the commands below.
An intended change of output must regenerate them, from the repository root:

    PYTHONPATH=src python -m slittori.cli <argv> > tests/data/golden/<name>

(``verify_sqrt2_h4.json`` reads ``build_sqrt2.json``, so regenerate that first.)
"""

from pathlib import Path

import pytest

from slittori.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = {
    "build_quarter.json": ["build", "--lambda", "1/4", "--nk", "const:1", "--blocks", "3"],
    "build_sqrt2.json": ["build", "--lambda", "0:1:4:2", "--blocks", "2"],
    "dimension_111.json": ["dimension", "--block", "1,1,1", "--prog", "1,0"],
    "dimension_divergence.json": ["dimension", "--block", "5,1,1,7,1,1,2", "--prog", "1,0"],
    "verify_sqrt2_h4.json": [
        "verify", str(GOLDEN / "build_sqrt2.json"), "--horizon", "4",
    ],
    "action_quarter.json": ["action", "--z", "0,1/4", "--gz-lambda", "1/4"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
