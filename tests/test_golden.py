"""Byte-for-byte CLI outputs against recorded golden files.

The files in ``tests/data/golden/`` are the stdout of the commands below.
An intended change of output must regenerate them, from the repository root:

    PYTHONPATH=src python -m slittori.cli <argv> > tests/data/golden/<name>

(``verify_sqrt2_h4.json`` reads ``build_sqrt2.json``, so regenerate that first.)
"""

import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

import slittori
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


# the simulate commands, keyed by the golden file of their stdout; the
# quarter run's -o and --dump-events write SIMULATE_FILES, by their golden
# names, into the working directory
SIMULATE = {
    "simulate_quarter.json": [
        "simulate", str(GOLDEN / "build_quarter.json"), "--T", "200",
        "--start", "0,-1/2,1/83,0", "-o", "simulate_quarter.csv",
        "--dump-events", "simulate_quarter_events.csv",
    ],
    "simulate_cone.json": ["simulate", "--slope", "1/2", "--z", "0,1/4", "--T", "1000"],
}
SIMULATE_FILES = ("simulate_quarter.csv", "simulate_quarter_events.csv")

# run in the other interpreter: every command through cli.main in one
# process, from a scratch directory that -o and --dump-events write into;
# prints {name: [exit code, stdout, stderr]} as JSON
CHILD = """
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
os.chdir(sys.argv[2])
from slittori.cli import main
out = {}
for name, argv in json.loads(sys.argv[3]).items():
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out[name] = [code, stdout.getvalue(), stderr.getvalue()]
print(json.dumps(out))
"""


def _interpreter(name: str) -> str:
    """The executable that runs as ``name``: ``name`` on PATH, or else a
    pyenv install ``$PYENV_ROOT/versions/X.Y.*/bin/pythonX.Y`` (under
    ``~/.pyenv`` when ``PYENV_ROOT`` is unset).  Skips when none of them
    runs as that version (a version manager's shim for a version it does
    not select, and no install behind it)."""
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    candidates = [shutil.which(name)]
    candidates += sorted(root.glob(f"versions/{name.removeprefix('python')}.*/bin/{name}"))
    for path in filter(None, candidates):
        probe = subprocess.run(
            [path, "-c", "import sys; print('python%d.%d' % sys.version_info[:2], sys.executable)"],
            capture_output=True, text=True,
        )
        version, _, executable = probe.stdout.strip().partition(" ")
        if probe.returncode == 0 and version == name:
            return executable
    pytest.skip(f"neither {name} on PATH nor one under {root}/versions runs as {name}")


@pytest.mark.parametrize("name", ["python3.10", "python3.12", "python3.13"])
def test_golden_bytes_on_other_interpreters(name, tmp_path):
    """Every golden command, simulate with its -o and --dump-events files
    and the cone case included, gives the same bytes and exit code on each
    supported interpreter found on PATH or as a pyenv install
    (requires-python is >= 3.10)."""
    src = str(Path(slittori.__file__).resolve().parent.parent)
    commands = {**CASES, **SIMULATE}
    run = subprocess.run(
        [_interpreter(name), "-c", CHILD, src, str(tmp_path), json.dumps(commands)],
        capture_output=True, text=True, env={"PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert run.returncode == 0, run.stderr
    results = json.loads(run.stdout)
    for golden in commands:
        code, out, err = results[golden]
        want = 1 if golden == "simulate_cone.json" else 0
        assert (code, err) == (want, ""), (golden, err)
        assert out.encode() == (GOLDEN / golden).read_bytes(), golden
    for golden in SIMULATE_FILES:
        assert (tmp_path / golden).read_bytes() == (GOLDEN / golden).read_bytes(), golden


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


def test_golden_simulate(tmp_path, monkeypatch, capsys):
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
    monkeypatch.chdir(tmp_path)  # -o and --dump-events write here
    assert main(SIMULATE["simulate_quarter.json"]) == 0
    out = capsys.readouterr()
    assert out.out.encode() == (GOLDEN / "simulate_quarter.json").read_bytes()
    assert out.err == ""
    for name in SIMULATE_FILES:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    # a cone-point hit terminates the orbit: stats still printed, exit 1
    assert main(SIMULATE["simulate_cone.json"]) == 1
    out = capsys.readouterr()
    assert out.out.encode() == (GOLDEN / "simulate_cone.json").read_bytes()
    assert '"termination_reason": "orbit hits a cone point"' in out.out
    assert out.err == ""
