"""The command line's one grammar and its process entry.

``parse_args`` reads a plain line from ``COMMANDS`` itself (``_plain``)
and hands every other line to the argparse parser built from the same
table.  These tests compare it with the argparse tree of
``tests/oracle_cli.py`` on generated argument lists, pin the lines that
``_plain`` must and must not decide, the help bytes and the spelling
``--flag=--``, and check that the process entry fails closed when its
output cannot be written.
"""

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from slittori.cli import COMMANDS, CliError, _plain, _positive_int, _usage, main, parse_args
from test_cli import CORPUS, ORACLE, SPELLINGS, SRC

HELP = Path(__file__).parent / "data" / "help.txt"


def _verdict(parse, argv: list[str]) -> tuple:
    """("ok", the fields of args), ("error", its text) or ("help", the
    text printed) for one parse of ``argv``."""
    printed = io.StringIO()
    try:
        with redirect_stdout(printed):
            args = parse(list(argv))
    except CliError as exc:
        return "error", str(exc)
    except SystemExit as exc:  # argparse after printing its help
        assert exc.code == 0
        args = None
    if args is None:
        return "help", printed.getvalue()
    return "ok", vars(args)


# values that fit a typed argument; any text fits the others
FITTING = {int: ("3", "-2", " 4 "), _positive_int: ("2", "7"), float: ("30", "-30", "1e1")}
# any value, fitting or not, with a dash or without
VALUES = (
    "1/4", "0,1/4", "1,1,2", "x.json", "h+:2,h-:1", "const:2", "5", "0", "-2", "-3/10",
    "-1,-1,3", "-.5", "-1:1:8:5", "-3e1", "north", "", "-", "a b", "-h+ 3", "x=y", "--x", "--",
)
# texts that are not a flag of the table
OTHERS = (
    "-h", "--help", "--he", "-hx", "-hh", "-ho", "-hox", "--help=x", "-h=", "--",
    "--foo", "-x", "--foo=1", "---lambda", "--=x", "-", "bogus", "x.json",
)


def _value(rng: random.Random, arg) -> str:
    if rng.random() < 0.75:
        return rng.choice(FITTING.get(arg.type, ("1/4", "0,1/4", "-3/10", "-1,-1,3", "x.json")))
    return rng.choice(VALUES)


def _flag(rng: random.Random, arg) -> list[str]:
    """One flag of the table with its value: spelled in full or as a
    prefix, the value next, after "=" or attached, or missing."""
    spelling = rng.choice(arg.spellings)
    if spelling[1] == "-" and rng.random() < 0.2:
        spelling = spelling[:rng.randint(3, len(spelling))]
    value, form = _value(rng, arg), rng.random()
    if form < 0.05:
        return [spelling]
    if value != "--" and form < 0.3:  # "=--" is pinned on its own below
        return [f"{spelling}={value}"]
    if value != "--" and form < 0.4 and spelling[1] != "-":
        return [spelling + value]
    return [spelling, value]


def generated_line(rng: random.Random) -> list[str]:
    """An argument list: mostly a command with its required arguments and
    one flag of each group, now and then a second flag of a group, a
    repeat or a missing one, some optional flags, and now and then a help
    flag, a "--", an unknown flag or a stray value put anywhere."""
    command = rng.choice([*COMMANDS] * 4 + ["bogus", "Verify", ""])
    table = COMMANDS[command][2] if command in COMMANDS else ()
    chosen = [arg for arg in table if arg.required and rng.random() < 0.95]
    for group in dict.fromkeys(arg.group for arg in table if arg.group):
        members = [arg for arg in table if arg.group == group]
        chosen += rng.sample(members, 2 if rng.random() < 0.1 else int(rng.random() < 0.95))
    chosen += [arg for arg in table if not (arg.required or arg.group) and rng.random() < 0.3]
    chosen += rng.sample(chosen, int(rng.random() < 0.1 and len(chosen) > 0))
    rng.shuffle(chosen)
    argv = [] if rng.random() < 0.03 else [command]
    for arg in chosen:
        argv += [_value(rng, arg)] if arg.name[0] != "-" else _flag(rng, arg)
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        argv.insert(rng.randint(0, len(argv)), rng.choice(OTHERS + VALUES))
    return argv


LINES = [generated_line(random.Random(seed)) for seed in range(6000)]


def test_generated_lines_parse_as_argparse_reads_them():
    """On 6,000 generated lines ``parse_args`` gives argparse's verdict on
    the running interpreter: the same fields and ``func``, the same error
    text, or help, which it prints from ``_usage`` for the command whose
    parser printed it."""
    verdicts, plain = [], 0
    for argv in LINES:
        ours, oracle = _verdict(parse_args, argv), _verdict(ORACLE.parse_args, argv)
        if oracle[0] == "help":
            words = oracle[1].split()  # "usage: slittori COMMAND ..." for a command's help
            oracle = "help", _usage(words[2] if words[2] in COMMANDS else None)
        assert ours == oracle, argv
        verdicts.append(ours[0])
        plain += _plain(argv) is not None
    counts = {kind: verdicts.count(kind) for kind in ("ok", "error", "help")}
    assert min(counts.values()) >= 200, counts
    assert plain >= 1000


def test_help_bytes_are_pinned(capsys):
    """``-h`` before a command and after each: the bytes of
    ``tests/data/help.txt``.  Regenerate it from the repository root with

        for c in "" action build verify dimension simulate billiard; do
            PYTHONPATH=src python -m slittori.cli $c -h; done > tests/data/help.txt
    """
    printed = ""
    for argv in (["-h"], *([command, "-h"] for command in COMMANDS)):
        assert main(argv) == 0
        out = capsys.readouterr()
        assert out.err == ""
        printed += out.out
    assert printed.encode() == HELP.read_bytes()


@pytest.mark.parametrize("argv, value", [
    (["dimension", "--block=--"], "--"),
    (["build", "--lambda", "1/4", "-o--"], "--"),
    (["build", "--lam", "1/4", "-o--"], "--"),
    (["build", "--lambda", "1/4", "--out=--"], "--"),
], ids=["plain-eq", "plain-attached", "argparse-attached", "argparse-eq"])
def test_attached_separator_goes_to_the_flag(argv, value):
    """``--flag=--`` and ``-o--`` give the flag the text ``--`` on both
    paths; argparse alone would drop the text."""
    args = parse_args(argv)
    assert (args.block if argv[0] == "dimension" else args.output) == value


def test_attached_separator_reaches_the_type():
    with pytest.raises(CliError) as err:
        parse_args(["verify", "--horizon=--", "--z"])
    assert str(err.value) == "slittori verify: argument --horizon: invalid int value: '--'"


# lines inside the plain grammar: each flag once and in full
PLAIN = {key: SPELLINGS[key] for key in (
    "eq-long", "eq-short", "eq-empty", "attached-short", "attached-short-eq", "eq-negative",
    "exact-before-prefix", "negative-after-space", "negative-point", "negative-decimal",
    "negative-quadratic", "negative-int", "type-int",
    "type-int-spaces", "type-float", "value-empty",
)}


@pytest.mark.parametrize("key", PLAIN)
def test_plain_reads_its_grammar(key):
    """``_plain`` decides these lines, as argparse reads them."""
    argv = PLAIN[key]
    assert _plain(argv) is not None
    assert _verdict(_plain, argv) == _verdict(ORACLE.parse_args, argv)


# lines outside the plain grammar, which argparse decides
NOT_PLAIN = {
    "prefix": ["build", "--lam", "1/4"],
    "repeat": ["dimension", "--block", "1,1,1", "--block", "1,2,1"],
    "dash-value": ["dimension", "--block", "1,1,1", "--prog", "-x"],
    "value-missing": ["dimension", "--block"],
    "dash-number": ["billiard", "--lambda", "1/4", "--x", "-3e1", "--y", "1"],
    "space-value": ["action", "--z", "0,1/4", "--word", "-h+ 3"],
    "separator": ["verify", "--", "x.json"],
    "help": ["verify", "x.json", "-h"],
    "unknown": ["verify", "x.json", "--foo"],
    "type": ["verify", "x.json", "--horizon", "x"],
    "required": ["billiard", "--x", "1", "--y", "1", "--vx", "1", "--vy", "1"],
    "group-none": ["action", "--z", "0,1/4"],
    "group-two": ["build", "--z-rational", "1,1,2", "--lambda", "1/4"],
    "positional-two": ["verify", "a.json", "b.json"],
    "positional-none": ["dimension", "--block", "1,1,1", "extra"],
    "no-command": ["--foo", "dimension", "--block", "1,1,1"],
}


@pytest.mark.parametrize("key", NOT_PLAIN)
def test_plain_declines_every_other_line(key):
    assert _plain(NOT_PLAIN[key]) is None


@pytest.mark.parametrize("argv, field, value", [
    (["build", "--z-rat", "-1,-1,3"], "z_rational", "-1,-1,3"),
    (["action", "--z", "-1/4,1/4", "--gz", "1,1,2", "--gz", "-3,5,7"], "gz", "-3,5,7"),
], ids=["prefix", "repeat"])
def test_argparse_reads_negative_values(argv, field, value):
    """On a line that is not plain a value that ``_NEGATIVE`` matches
    still follows its flag after a space."""
    assert _plain(argv) is None
    assert getattr(parse_args(argv), field) == value


# a child that parses each line of argv[1] (JSON) by _plain, then by
# parse_args, and prints whether argparse was imported
PLAIN_PROBE = """
import json, sys
from slittori.cli import _plain, parse_args
lines = json.loads(sys.argv[1])
print(sum(_plain(argv) is not None for argv in lines), len(lines))
for argv in lines:
    parse_args(argv)
print('argparse' in sys.modules)
"""


def test_benchmark_and_readme_lines_never_import_argparse():
    """Every ``bench-*`` and ``readme-*`` line of the corpus is plain, and
    a process that parses them all has not imported argparse."""
    lines = [argv for key, argv in CORPUS.items() if key.startswith(("bench-", "readme-"))]
    assert len(lines) >= 33
    out = subprocess.run(
        [sys.executable, "-c", PLAIN_PROBE, json.dumps(lines)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, check=True,
    )
    assert out.stdout.split("\n")[:2] == [f"{len(lines)} {len(lines)}", "False"]


def _entry(argv, **kwargs):
    """``python -m slittori.cli argv`` with block-buffered output."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, "-m", "slittori.cli", *argv], env=dict(env, PYTHONPATH=SRC),
        stderr=subprocess.PIPE, text=True, **kwargs,
    )


ACTION = ["action", "--z", "0,1/4", "--gz-lambda", "1/4"]
# about 25 kB of output, more than the stdout buffer holds: the write fails
# inside the command, which reports it, and leaves nothing to flush
BUILD = ["build", "--lambda", "1/4", "--blocks", "60"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [ACTION, BUILD], ids=["flush", "write"])
def test_full_disk_fails_closed(argv):
    """Output that meets a full disk: exit 2 and one JSON line, where the
    interpreter's own flush at exit would print a warning and exit 120."""
    with open("/dev/full", "w") as full:
        out = _entry(argv, stdout=full)
    assert out.returncode == 2
    assert out.stderr == '{"error": "OSError: [Errno 28] No space left on device"}\n'


def test_closed_pipe_fails_closed():
    read, write = os.pipe()
    os.close(read)
    try:
        out = _entry(ACTION, stdout=write)
    finally:
        os.close(write)
    assert out.returncode == 2
    assert out.stderr == '{"error": "BrokenPipeError: [Errno 32] Broken pipe"}\n'


@pytest.mark.parametrize("z, point", [("0,0", "(0, 0)"), ("1/2,0", "(-1/2, 0)")])
def test_puncture_is_printed_as_fractions(z, point):
    out = _entry(["action", "--z", z, "--gz-lambda", "1/4"], stdout=subprocess.PIPE)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == json.dumps({"error": f"ExcludedPointError: {point} is a puncture"}) + "\n"
