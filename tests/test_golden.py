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
    "build_sqrt3_d2.json": ["build", "--lambda=0:1:6:3", "--d-choices", "const:2"],
    # sheet 1 and the half-open cell edge: a sign flipped in both unfolding
    # maps would still round-trip, so the cover coordinates are pinned here
    "billiard_sheet1.json": [
        "billiard", "--lambda", "1/4", "--x", "3/10", "--y", "1/10", "--vx", "-7/10", "--vy", "2/5",
    ],
    "billiard_edge.json": ["billiard", "--lambda", "1/4", "--x=5/2", "--y=1/3", "--vx", "-3", "--vy", "2"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


def test_golden_simulate(tmp_path, capsys):
    """``simulate`` stdout, stats CSV, event dump and exit codes.

    Regenerate from the repository root with

        PYTHONPATH=src python -m slittori.cli simulate \\
            tests/data/golden/build_quarter.json --T 200 --start 0,-1/2,1/83,0 \\
            -o tests/data/golden/simulate_quarter.csv \\
            --dump-events tests/data/golden/simulate_quarter_events.csv \\
            > tests/data/golden/simulate_quarter.json
        PYTHONPATH=src python -m slittori.cli simulate --slope 1/2 --z 0,1/4 \\
            --T 1000 > tests/data/golden/simulate_cone.json   # exits 1
    """
    csv, events = tmp_path / "stats.csv", tmp_path / "events.csv"
    argv = [
        "simulate", str(GOLDEN / "build_quarter.json"), "--T", "200",
        "--start", "0,-1/2,1/83,0", "-o", str(csv), "--dump-events", str(events),
    ]
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.out.encode() == (GOLDEN / "simulate_quarter.json").read_bytes()
    assert out.err == ""
    assert csv.read_bytes() == (GOLDEN / "simulate_quarter.csv").read_bytes()
    assert events.read_bytes() == (GOLDEN / "simulate_quarter_events.csv").read_bytes()

    # a cone-point hit terminates the orbit: stats still printed, exit 1
    assert main(["simulate", "--slope", "1/2", "--z", "0,1/4", "--T", "1000"]) == 1
    out = capsys.readouterr()
    assert out.out.encode() == (GOLDEN / "simulate_cone.json").read_bytes()
    assert '"termination_reason": "orbit hits a cone point"' in out.out
    assert out.err == ""
