import ast
import importlib.util
import inspect
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stdout
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import oracle_torus as oracle
from oracle_cli import build_parser
from oracle_dimension import exact_sqrt_partial_sum
from slittori.cli import (
    COMMANDS,
    CliError,
    load_spec,
    main,
    parse_args,
    spec_from_provenance,
    spec_to_dict,
)
from slittori.criterion import verify
from slittori.dimension import DimensionProblem, dimension_certificate
from slittori.directions import DigitRule
from slittori.exact import ExactScalar, parse_scalar
from slittori.flow import OrbitStats, simulate, slope_from_spec
from slittori.irrational import SearchBudgetExceededError, direction_stream_irrational, find_block
from slittori.rational import RationalParam, direction_stream
from slittori.torus import trace_word

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "data" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_action_word(capsys):
    code, out, _ = run(capsys, "action", "--z", "0,1/4", "--word", "h+:3")
    assert code == 0
    doc = json.loads(out)
    assert doc["final_str"] == "(1/4, 1/4)"
    assert doc["action"] == [1, 1, 0, 1]
    assert not doc["fixes_beta"]


def test_action_fixing_word(capsys):
    code, out, _ = run(capsys, "action", "--z", "0,1/4", "--gz-lambda", "1/4")
    assert code == 0
    doc = json.loads(out)
    assert doc["final_str"] == "(0, 1/4)"
    assert doc["is_identity"]


def test_action_excluded_point_fails(capsys):
    code, out, err = run(capsys, "action", "--z", "0,0", "--word", "h+:1")
    assert code == 2
    assert "error" in json.loads(err)


# --word text -> (word_digits, final_str, action, orbit_length) at z = (0, 1/4)
ACTION_WORDS = {
    "h+": ([1], "(-1/4, 1/4)", [1, 1, 0, 1], 1),
    "h-:2,h+": ([2, 1], "(-1/4, 1/4)", [1, 1, 2, 3], 3),
    "h+:3, h-:1": ([3, 1], "(1/4, 0)", [2, 1, 1, 1], 4),
    "h+:2,h-:3": ([2, 3], "(-1/2, -1/4)", [1, -2, 1, -1], 5),  # traced as -1, 2, -1, 1
}
# --word text with one fault -> the error it exits 2 with
BAD_WORDS = {
    "h+:2,h+:1": "ValueError: syllables must alternate generators",
    "h-,h-": "ValueError: syllables must alternate generators",
    "x:1": "ValueError: unknown generator 'x'",
    "": "ValueError: unknown generator ''",
    "h+:0": "ValueError: exponent must be positive, got 0",
    "h+:": "ValueError: invalid literal for int() with base 10: ''",
    "h+:2:3": "ValueError: too many values to unpack (expected 2)",
}


@pytest.mark.parametrize("word", list(ACTION_WORDS) + list(BAD_WORDS))
def test_action_word_pinned(capsys, word):
    """``action --word`` traces each accepted word to its pinned output and
    refuses each single-fault word with exit 2, an empty stdout and one
    JSON line naming the fault."""
    code, out, err = run(capsys, "action", "--z", "0,1/4", f"--word={word}")
    if word in ACTION_WORDS:
        doc = json.loads(out)
        assert code == 0 and err == ""
        assert (doc["word_digits"], doc["final_str"], doc["action"], doc["orbit_length"]) == (
            ACTION_WORDS[word]
        )
    else:
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and json.loads(err) == {"error": BAD_WORDS[word]}


def test_build_verify_roundtrip(tmp_path, capsys):
    spec_path = tmp_path / "d.json"
    code, out, _ = run(
        capsys, "build", "--lambda", "1/4", "--nk", "const:1", "--blocks", "3",
        "-o", str(spec_path),
    )
    assert code == 0
    doc = json.loads(spec_path.read_text())
    assert doc["blocks"][0]["digits"] == [5, 1, 1, 7, 1, 1, 2, 1]

    code, out, _ = run(capsys, "verify", str(spec_path), "--horizon", "3")
    assert code == 0
    report = json.loads(out)
    assert report["overall"] is True
    assert report["precision_bits"] >= 256

    # file-loaded verification equals in-memory verification
    spec_mem = direction_stream(
        RationalParam.from_barrier_length(Fraction(1, 4)), DigitRule("const", (1,))
    )
    assert verify(load_spec(str(spec_path)), 3).as_json() == verify(spec_mem, 3).as_json()


@pytest.mark.parametrize("build", [
    lambda: direction_stream(RationalParam(1, 1, 3), DigitRule("const", (6,))),
    lambda: direction_stream(RationalParam(2, -1, 3), DigitRule("arith", (6, 12))),
    lambda: direction_stream(RationalParam(0, 2, 5), DigitRule("list", (1, 2, 3))),
    lambda: direction_stream_irrational(
        ExactScalar(0, 1, 4, 2), DigitRule("list", (2, 1)), budget=10**5
    ),
], ids=["rational-const", "rational-reduced-arith", "rational-list", "irrational-list"])
def test_library_built_streams_reload(tmp_path, build):
    """Every stream the library builds writes a spec file that the loader
    takes back and rebuilds to the same file."""
    written = spec_to_dict(build(), 2)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(written))
    assert spec_to_dict(load_spec(str(path)), 2) == written


def test_budget_round_trips_through_spec_file(tmp_path):
    # budget enough for blocks 1 and 2 of lambda = sqrt(2)/4, not for block 3
    lam = ExactScalar(0, 1, 4, 2)
    spec = direction_stream_irrational(lam)
    budget = oracle.find_block(spec.block(1).endpoint)[4]
    small = direction_stream_irrational(lam, budget=budget)
    path = tmp_path / "small.json"
    path.write_text(json.dumps(spec_to_dict(small, 2)))
    with pytest.raises(SearchBudgetExceededError):
        small.block(3)

    reloaded = load_spec(str(path))
    assert reloaded.provenance["budget"] == budget
    assert reloaded.block(2).endpoint == spec.block(2).endpoint
    with pytest.raises(SearchBudgetExceededError):
        reloaded.block(3)

    # files written before the budget was recorded load with the default
    prov = dict(reloaded.provenance)
    del prov["budget"]
    assert spec_from_provenance(prov).block(3).digits == spec.block(3).digits


# argument lists that exit 2 with a JSON error
BAD_ARGV = [
    ["verify", "x.json", "--horizon", "abc"],
    ["action", "--z", "0,1/4", "--gz-lambda", "1/4", "--precision", "256"],
    ["dimension"],
    ["dimension", "--block", "1,1,1", "--prog", "1"],
    ["build", "--lambda", "1/4", "--blocks", "0"],
    ["build", "--lambda", "1/4", "--blocks", "-1"],
    ["build", "--lambda", "1/4", "--budget", "-5"],
    ["build", "--lambda", "1/4", "--budget", "0"],
    ["action", "--z", "0,1/4", "--gz", "1,2"],
    ["build", "--z-rational", "1,2"],
    ["action", "--z", "0,1/4", "--gz", "--word", "h+"],
    ["action", "--z", "0,1/4", "--word", "h+", "-x"],
    [],
    ["billiard", "--lambda=3/4", "--x", "3/10", "--y", "1/10", "--vx", "1", "--vy", "1"],
    ["billiard", "--lambda", "0", "--x", "3/10", "--y", "1/10", "--vx", "1", "--vy", "1"],
    ["billiard", "--lambda", "-1/4", "--x", "3/10", "--y", "1/10", "--vx", "1", "--vy", "1"],
    ["billiard", "--lambda", "1:1:2:2", "--x", "3/10", "--y", "1/10", "--vx", "1", "--vy", "1"],
    # conflicting inputs: neither one is silently ignored
    ["action", "--z", "0,1/4", "--word", "h+:3", "--gz-lambda", "1/4"],
    ["simulate", str(GOLDEN / "build_quarter.json"), "--slope", "1/3", "--z", "0,1/5"],
    [
        "billiard", "--lambda", "1/4", "--x", "3/10", "--y", "1/10",
        "--vx", "1", "--vy", "1", "--theta-deg", "30",
    ],
    ["build", "--lambda", "1/4", "--z-rational", "0,1,4"],
]


# the flags of the enclosure precisions and the dimension truncations
REMOVED_FLAG_ARGV = [
    ["verify", str(GOLDEN / "build_quarter.json"), "--precision", "256"],
    ["simulate", "--slope", "1/3", "--z", "0,1/4", "--T", "10", "--precision", "32"],
    ["dimension", "--block", "1,1,1", "--u-cap", "10000"],
    ["dimension", "--block", "1,1,1", "--u-numeric", "1000000"],
]


def test_argument_errors_exit_two_with_json(capsys):
    for argv in BAD_ARGV:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "error" in json.loads(err), argv
    _, _, err = run(capsys, "dimension", "--block", "1,1,1", "--prog", "1")
    assert json.loads(err)["error"] == "--prog expects b,c got '1'"
    for blocks in ("0", "-1"):
        _, _, err = run(capsys, "build", "--lambda", "1/4", "--blocks", blocks)
        assert "expected a positive integer" in json.loads(err)["error"]
    for budget in ("0", "-5"):
        _, _, err = run(capsys, "build", "--lambda", "1/4", "--budget", budget)
        assert "expected a positive integer" in json.loads(err)["error"]
    _, _, err = run(capsys, "action", "--z", "0,1/4", "--gz", "1,2")
    assert json.loads(err)["error"] == "--gz expects r,s,q got '1,2'"
    _, _, err = run(capsys, "build", "--z-rational", "1,2")
    assert json.loads(err)["error"] == "--z-rational expects r,s,q got '1,2'"


# inputs beyond the float range, which a float conversion refuses; 2**1024
# is the least integer that float() refuses
HUGE = str(2**1024)
OVERFLOW_ARGV = {
    "simulate-slope": ["simulate", "--slope", "1e400", "--z", "0,1/4", "--T", "10"],
    "simulate-T": ["simulate", "--slope", "1/3", "--z", "0,1/4", "--T", "1e400"],
    "dimension-block": ["dimension", "--block", f"{HUGE},1,1"],
    "dimension-prog": ["dimension", "--block", "1,1,1", "--prog", f"{HUGE},0"],
}


@pytest.mark.parametrize("case", list(OVERFLOW_ARGV))
def test_overflow_exits_two_with_json(capsys, case):
    """An OverflowError fails closed like any other refused input: exit 2,
    an empty stdout and one JSON line on stderr."""
    code, out, err = run(capsys, *OVERFLOW_ARGV[case])
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"].startswith("OverflowError: ")


# every subcommand's options: flags by their spellings, positionals by name
CLI_OPTIONS = {
    "action": ["--z", "--word", "--gz", "--gz-lambda", "-o/--output"],
    "build": [
        "--lambda", "--z-rational", "--nk", "--d-choices", "--blocks", "--budget", "-o/--output",
    ],
    "verify": ["spec", "--horizon", "-o/--output"],
    "dimension": ["--block", "--prog", "-o/--output"],
    "simulate": [
        "spec", "--slope", "--z", "--T", "--grid", "--deck", "--start", "--dump-events",
        "-o/--output",
    ],
    "billiard": ["--lambda", "--x", "--y", "--vx", "--vy", "--theta-deg", "-o/--output"],
}


# far above exact.MAX_RADICAND: trial division up to its square root would run for years
HUGE_D = 1000000000000000000000000000057


def test_large_radicand_fails_closed(tmp_path, capsys):
    doc = json.loads((GOLDEN / "build_sqrt2.json").read_text())
    doc["provenance"]["lambda"] = [0, 1, 4, HUGE_D]
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps(doc))
    for argv in (
        ["action", "--z", f"0:1:4:{HUGE_D},0", "--word", "h+"],
        ["build", "--lambda", f"0:1:4:{HUGE_D}"],
        ["verify", str(spec)],
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and out == "", argv
        assert "radicand" in json.loads(err)["error"], argv


def test_cli_option_inventory():
    found = {name: [arg.name for arg in table] for name, (_, _, table) in COMMANDS.items()}
    assert found == CLI_OPTIONS
    flags = [o for opts in found.values() for o in opts if o.startswith("-")]
    assert (len(flags), sum(map(len, found.values())) - len(flags)) == (32, 2)


# the parameters of the library's entry points, in signature order
LIBRARY_OPTIONS = {
    find_block: ["z", "d_index", "budget"],
    direction_stream_irrational: ["lam", "d_choices", "budget"],
    direction_stream: ["param", "nk"],
    OrbitStats: ["grid", "deck_window", "slope", "start"],
    simulate: ["model", "slope", "T", "grid", "deck_window", "start", "event_log"],
    slope_from_spec: ["spec"],
    trace_word: ["z", "word"],
    verify: ["spec", "horizon"],
    dimension_certificate: ["problem"],
}


def test_library_option_inventory():
    found = {f: list(inspect.signature(f).parameters) for f in LIBRARY_OPTIONS}
    assert found == LIBRARY_OPTIONS


README = ROOT / "README.md"


def _readme_commands() -> list[list[str]]:
    """The arguments of every ``slittori`` line in README's sh blocks."""
    readme = README.read_text()
    lines = [
        line.strip()
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.splitlines()
        if line.startswith("slittori ")
    ]
    return [shlex.split(line, comments=True)[1:] for line in lines]


def test_readme_commands_parse():
    # every documented command line must still parse; nothing is executed
    lines = _readme_commands()
    assert len(lines) == 13
    for argv in lines:
        parse_args(argv)


def test_readme_prose_names_only_existing_flags():
    """Every flag that README.md names in inline code exists: among the
    named subcommand's flags for `<command> --flag`, among some
    subcommand's flags for a bare `--flag`."""
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    flags = {
        name: {"-h", "--help", *(s for arg in table for s in arg.spellings)}
        for name, (_, _, table) in COMMANDS.items()
    }
    every = set().union(*flags.values())
    named = 0
    for span in re.findall(r"`([^`\n]*--[^`\n]*)`", prose):
        known = flags.get(span.split()[0], every)
        for flag in re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", span):
            assert flag in known, span
            named += 1
    assert named >= 20  # the prose names flags; the pattern found them


def _bench_commands() -> dict:
    """id -> arguments of every CLI op in one round of each bench workload."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return {
        f"bench-{name}-{k}": op.argv
        for name, workload in module.WORKLOADS.items()
        if not workload.in_process
        for k, op in enumerate(workload(Path("work")).round(0, 0))
    }


# argument lists that spell the same thing differently, or nearly
SPELLINGS = {
    "eq-long": ["build", "--lambda=1/4", "--blocks=2", "--nk=const:2"],
    "eq-short": ["build", "--lambda", "1/4", "-o=x.json"],
    "eq-empty": ["action", "--z=", "--word="],
    "attached-short": ["build", "--lambda", "1/4", "-ox.json"],
    "attached-short-eq": ["build", "--lambda", "1/4", "-ox=y"],
    "eq-negative": ["billiard", "--lambda", "1/4", "--x=-3/10", "--y", "1/10", "--vx=-7/10",
                    "--vy", "2/5"],
    "prefix-unique": ["build", "--lam", "1/4", "--bl", "2", "--bu=50", "--out", "x.json"],
    "prefix-unique-eq": ["dimension", "--bl=1,1,1", "--pr=1,0"],
    "prefix-of-longer-flag": ["build", "--z", "1,1,2"],
    "exact-before-prefix": ["action", "--z", "0,1/4", "--gz", "1,1,2"],
    "prefix-ambiguous": ["build", "--b", "2", "--lambda", "1/4"],
    "prefix-ambiguous-eq": ["simulate", "--d=4", "--slope", "1/3", "--z", "0,1/4"],
    "prefix-ambiguous-help": ["verify", "x.json", "--h"],
    "prefix-ambiguous-late": ["build", "--blocks", "x", "--b", "2"],
    "prefix-dashes-only": ["build", "--=x"],
    "three-dashes": ["build", "---lambda", "1/4"],
    "repeat-last-wins": ["dimension", "--block", "1,1,1", "--block", "1,2,1", "--prog", "2,0",
                         "--prog", "1,0"],
    "repeat-group-flag": ["action", "--z", "0,1/4", "--word", "h+", "--word", "h-"],
    "negative-after-space": ["build", "--z-rational", "-1,-1,3", "--nk", "const:6"],
    "negative-point": ["simulate", "--slope", "1/3", "--z", "-1/4,1/4", "--start", "0,-1/2,1/8,0"],
    "negative-decimal": ["billiard", "--lambda", "1/4", "--x", "-.5", "--y", "-1.25",
                         "--theta-deg", "-30"],
    "negative-quadratic": ["build", "--lambda", "-1:1:8:5", "--d-choices", "const:1"],
    "negative-int": ["verify", "x.json", "--horizon", "-2"],
    "negative-not-a-number": ["billiard", "--lambda", "1/4", "--x", "-3e1", "--y", "1"],
    "value-with-space": ["action", "--z", "0,1/4", "--word", "-h+ 3"],
    "value-dash": ["verify", "-"],
    "value-empty": ["verify", ""],
    "type-int": ["verify", "x.json", "--horizon", "5"],
    "type-int-spaces": ["simulate", "--grid", " 4 ", "--slope", "1/3", "--z", "0,1/4"],
    "type-int-refused": ["simulate", "--grid", "four", "--slope", "1/3", "--z", "0,1/4"],
    "type-float": ["billiard", "--lambda", "1/4", "--x", "0", "--y", "1/8", "--theta-deg", "1e1"],
    "type-float-refused": ["billiard", "--lambda", "1/4", "--x", "0", "--y", "1", "--theta-deg",
                           "north"],
    "type-positive-int-refused": ["build", "--lambda", "1/4", "--budget", "x"],
    "conflict": ["build", "--z-rational", "1,1,2", "--lambda", "1/4"],
    "conflict-after-type-error": ["build", "--z-rational", "1,1,2", "--blocks", "0", "--lambda", "1"],
    "required-missing": ["billiard", "--x", "1"],
    "required-all-missing": ["billiard"],
    "required-group-missing": ["action", "--z", "0,1/4"],
    "required-before-group": ["action"],
    "required-positional-missing": ["verify", "--horizon", "2"],
    "value-missing": ["verify", "x.json", "--horizon"],
    "value-missing-before-flag": ["action", "--z", "--word", "h+"],
    "value-missing-before-short": ["build", "--lambda", "-o", "x.json"],
    "extra-positional": ["verify", "a.json", "b.json"],
    "extra-positional-simulate": ["simulate", "a.json", "b.json", "--T", "5"],
    "extra-positional-middle": ["verify", "--horizon", "2", "a.json", "b.json", "--output", "c"],
    "extra-positional-none-taken": ["dimension", "--block", "1,1,1", "extra"],
    "unknown-flags-in-order": ["verify", "a", "-x", "b", "--horizon", "3", "--y", "c"],
    "unknown-before-command": ["--foo", "dimension", "--block", "1,1,1"],
    "unknown-before-bad-command": ["--foo", "dimension"],
    "unknown-only": ["--foo"],
    "short-unknown-before-command": ["-x", "verify", "a.json"],
    "negative-as-command": ["-5", "verify"],
    "command-unknown": ["bogus"],
    "command-case": ["Verify", "a.json"],
    "command-empty": [""],
    "command-unknown-then-help": ["bogus", "-h"],
    "separator-only": ["--"],
    "separator-before-command": ["--", "verify", "a.json"],
    "separator-before-positional": ["verify", "--", "x.json"],
    "separator-after-positional": ["verify", "x.json", "--"],
    "separator-twice": ["verify", "--", "--", "x.json"],
    "separator-then-flag": ["verify", "a.json", "--", "--horizon", "3"],
    "separator-as-flag-value": ["verify", "x.json", "--horizon", "--", "3"],
    "separator-after-flag-value": ["verify", "x.json", "--horizon", "5", "--"],
    "separator-alone-after-flags": ["simulate", "--T", "1", "--"],
    "separator-no-positional": ["action", "--z", "0,1/4", "--word", "h+", "--"],
    "separator-no-value": ["verify", "--"],
    "separator-optional-positional": ["simulate", "--", "x.json"],
    "separator-after-optional-positional": ["simulate", "x.json", "--", "y.json"],
    "help": ["-h"],
    "help-long": ["--help"],
    "help-prefix": ["--he"],
    "help-after-unknown": ["--foo", "-h"],
    "help-attached-unknown": ["-hx"],
    "help-attached-help": ["-hh"],
    "help-command": ["simulate", "-h"],
    "help-command-prefix": ["simulate", "--he"],
    "help-command-long-eq": ["action", "--help=x"],
    "help-command-eq-empty": ["action", "-h="],
    "help-command-attached-unknown": ["action", "-hx"],
    "help-command-attached-help": ["action", "-hh"],
    "help-command-attached-flag": ["action", "-ho"],
    "help-command-attached-flag-value": ["action", "-ho", "x.json"],
    "help-command-attached-flag-attached": ["action", "-hox.json"],
    "help-after-type-error": ["verify", "x.json", "--horizon", "x", "-h"],
    "help-before-type-error": ["verify", "x.json", "-h", "--horizon", "x"],
    "help-before-missing": ["billiard", "--help"],
    **{f"help-{name}": [name, "-h"] for name in COMMANDS},
}


def _corpus() -> dict:
    """id -> arguments: README's commands, the bench workloads' commands,
    the refused argument lists above and the spellings."""
    corpus = {f"readme-{k}": argv for k, argv in enumerate(_readme_commands())}
    corpus.update(_bench_commands())
    corpus.update({f"bad-{k}": argv for k, argv in enumerate(BAD_ARGV)})
    corpus.update({f"removed-{k}": argv for k, argv in enumerate(REMOVED_FLAG_ARGV)})
    corpus.update({f"overflow-{case}": argv for case, argv in OVERFLOW_ARGV.items()})
    corpus.update(SPELLINGS)
    return corpus


CORPUS = _corpus()
ORACLE = build_parser()


def _verdict(parse, argv: list[str]) -> tuple:
    """("ok", the fields of args), ("error", its text) or ("help", whether
    it printed something) for one parse of ``argv``."""
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
        return "help", printed.getvalue() != ""
    return "ok", vars(args)


@pytest.mark.parametrize("argv", [pytest.param(argv, id=key) for key, argv in CORPUS.items()])
def test_table_parser_matches_argparse(argv):
    """The option table reads every argument list as the argparse tree of
    ``tests/oracle_cli.py`` does: the same fields and ``func``, the same
    error text, or help printed by both."""
    assert _verdict(parse_args, argv) == _verdict(ORACLE.parse_args, argv)


def test_attached_separator_is_a_value(capsys):
    """``--flag=--`` and ``-o--`` give the flag the text ``--``.  argparse
    dropped that text and set the field to an empty list, which the
    command then failed on with a traceback, so the oracle corpus leaves
    these spellings out."""
    assert parse_args(["dimension", "--block=--"]).block == "--"
    assert parse_args(["build", "--lambda", "1/4", "-o--"]).output == "--"
    code, out, err = run(capsys, "dimension", "--block=--")
    assert code == 2 and out == ""
    assert json.loads(err)["error"].startswith("ValueError: ")


def test_corpus_covers_every_verdict():
    verdicts = {_verdict(parse_args, argv)[0] for argv in CORPUS.values()}
    assert verdicts == {"ok", "error", "help"}
    assert sum(key.startswith("readme-") for key in CORPUS) == 13
    assert sum(key.startswith("bench-") for key in CORPUS) >= 20


def test_help_exits_zero_with_usage_on_stdout(capsys):
    for argv in (["-h"], *([name, "--help"] for name in COMMANDS)):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "", argv
        assert out.startswith("usage: slittori "), argv
    _, out, _ = run(capsys, "build", "-h")
    for arg in COMMANDS["build"][2]:
        assert arg.spellings[-1] in out


@pytest.mark.parametrize(
    "argv",
    [
        ["action", "--z", "1/4,1/4", "--gz", "-3,5,7"],
        ["action", "--z", "-1/4,1/4", "--word", "h+:3"],
        ["build", "--z-rational", "-1,1,3", "--nk", "const:6"],
        [
            "billiard", "--lambda", "1/4", "--x", "-3/10", "--y", "1/10",
            "--vx", "-7/10", "--vy", "2/5",
        ],
        ["build", "--z-rational", "-1,-1,3", "--nk", "const:6"],
    ],
)
def test_negative_value_after_flag(capsys, argv):
    joined = []  # the same command with each negative value attached by "="
    for arg in argv:
        if arg[0] == "-" and arg[1].isdigit():
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "", err
    assert run(capsys, *joined) == (code, out, err)


def test_import_path_loads_no_dataclasses_inspect_or_typing():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    # the modules that bench/tracer.py wraps, read from its source
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse((ROOT / "bench" / "tracer.py").read_text()).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "").endswith("_SPANS")
    }
    traced = sorted({entry[0] for entries in tables.values() for entry in entries})
    assert len(traced) >= 8
    probe = (
        "import sys, slittori.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing', 'argparse', 'gettext', 'locale'}"
        " & set(sys.modules))); "
        f"print(sorted(set({traced!r}) - set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split("\n")[:2] == ["[]", "[]"]


def test_import_does_not_load_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = "import sys, slittori.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_build_deterministic_bytes(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        code, *_ = run(
            capsys, "build", "--lambda", "0:1:4:2", "--blocks", "2", "-o", str(p)
        )
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_build_irrational_and_verify(tmp_path, capsys):
    spec_path = tmp_path / "irr.json"
    code, *_ = run(
        capsys, "build", "--lambda", "0:1:4:2", "--blocks", "2", "-o", str(spec_path)
    )
    assert code == 0
    code, out, _ = run(capsys, "verify", str(spec_path), "--horizon", "2")
    assert code == 0
    assert json.loads(out)["overall"] is True


def test_verify_failing_spec_exits_one(tmp_path, capsys):
    spec_path = tmp_path / "d.json"
    run(capsys, "build", "--z-rational", "1,1,2", "--nk", "const:4", "-o", str(spec_path))
    doc = json.loads(spec_path.read_text())
    doc["digit_prefix"][8] = 3  # corrupt a cached digit
    spec_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(spec_path))
    assert code == 2  # deterministic rebuild disagrees with the file
    assert "disagree" in json.loads(err)["error"]



@pytest.mark.parametrize(
    "golden, tamper",
    [
        ("build_sqrt2.json", lambda d: d["blocks"][1]["endpoint"][0].__setitem__(2, 8)),
        ("build_quarter.json", lambda d: d["blocks"][0]["meta"].__setitem__("n_k", 2)),
        ("build_quarter.json", lambda d: d["blocks"][2].__setitem__("index", 4)),
        ("build_quarter.json", lambda d: d["z0"][0].__setitem__(0, 1)),
        ("build_sqrt2.json", lambda d: d["y_bounds"][1].__setitem__(0, 2)),
        # compared as JSON text: 0 is not false, 7.0 is not 7
        ("build_quarter.json", lambda d: d["provenance"].__setitem__("reduced", "banana")),
        ("build_quarter.json", lambda d: d["provenance"].__setitem__("reduced", 0)),
        ("build_sqrt2.json", lambda d: d["provenance"].__setitem__("lambda", [0, 2, 8, 2])),
        ("build_sqrt2.json", lambda d: d["digit_prefix"].__setitem__(0, 7.0)),
    ],
)
def test_load_spec_refuses_tampered_fields(tmp_path, capsys, golden, tamper):
    doc = json.loads((GOLDEN / golden).read_text())
    tamper(doc)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path), "--horizon", "1")
    assert code == 2 and out == ""
    assert "disagree with deterministic rebuild" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "doc, error",
    [
        ({"format_version": 1}, "spec file lacks provenance"),
        ([1, 2], "spec file is not a JSON object"),
        (
            {
                "format_version": 1,
                "provenance": {
                    "type": "rational", "r": 0, "q": 2,
                    "nk_rule": {"kind": "const", "params": [1]},
                },
            },
            "rational provenance lacks s",
        ),
        (
            {
                "format_version": 1,
                "provenance": {
                    "type": "rational", "r": "0", "s": 1, "q": 2,
                    "nk_rule": {"kind": "const", "params": [1]},
                },
            },
            "rational provenance has a wrong type of r",
        ),
        (
            {
                "format_version": 1,
                "provenance": {
                    "type": "irrational", "lambda": 5,
                    "d_choices": {"kind": "default", "params": []},
                },
            },
            "irrational provenance has a wrong type of lambda",
        ),
        (
            {
                "format_version": 1,
                "provenance": {
                    "type": "irrational", "lambda": [0, 1, 4, 2, 1],
                    "d_choices": {"kind": "default", "params": []},
                },
            },
            "irrational provenance lambda is not [u, v, w, D]",
        ),
        (
            {
                "format_version": 1,
                "provenance": {
                    "type": "rational", "r": 0, "s": 1, "q": 2,
                    "nk_rule": {"kind": "const", "params": [1]},
                },
                "blocks": 5,
            },
            "spec file has a wrong type of blocks",
        ),
        (
            {
                "format_version": 1,
                "provenance": {
                    "type": "rational", "r": 0, "s": 1, "q": 2,
                    "nk_rule": {"kind": "const", "params": "1"},
                },
            },
            "nk_rule has a wrong type of params",
        ),
        (
            {
                "format_version": 1.0,  # equal to 1 in Python, not in the file
                "provenance": {
                    "type": "rational", "r": 0, "s": 1, "q": 2,
                    "nk_rule": {"kind": "const", "params": [1]},
                },
            },
            "spec file has a wrong type of format_version",
        ),
        (
            {
                "format_version": 1,
                "provenance": {
                    "type": "rational", "r": 0, "s": 1, "q": 2,
                    "nk_rule": {"kind": "const", "params": [1]}, "extra": 5,
                },
            },
            "spec file provenance has unknown keys extra",
        ),
        (
            {
                "format_version": 1,
                "provenance": {
                    "type": "rational", "r": 0, "s": 1, "q": 2,
                    "nk_rule": {"kind": "const", "params": [1]},
                },
                "extra": 5,
            },
            "spec file has unknown keys extra",
        ),
    ],
)
@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_malformed_spec_file_exits_two(tmp_path, capsys, command, doc, error):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("rule", ["const:0", "arith:0,0", "list:", "nope:1"])
@pytest.mark.parametrize(
    "flag, source",
    [
        ("--nk", ["--lambda", "1/4"]),
        ("--d-choices", ["--lambda", "0:1:4:2"]),
        # the flag of the builder that does not run is parsed too
        ("--d-choices", ["--lambda", "1/4"]),
        ("--nk", ["--lambda", "0:1:4:2"]),
    ],
)
def test_bad_digit_rule_exits_two(capsys, rule, flag, source):
    code, out, err = run(capsys, "build", *source, flag, rule, "--blocks", "1")
    assert code == 2 and out == ""
    assert "error" in json.loads(err)


def test_nk_multiple_checked_for_every_rule_kind(capsys):
    # n_2 = 5 is not a multiple of 2q = 4; block 1 alone (n_1 = 4) must not hide it
    code, out, err = run(
        capsys, "build", "--z-rational", "1,1,2", "--nk", "arith:1,3", "--blocks", "1"
    )
    assert code == 2 and out == ""
    assert "NkRuleError" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--lambda", "1/4", "--nk", "default"],
        ["--lambda", "0:1:4:2", "--d-choices", "arith:1,1"],
    ],
)
def test_digit_rule_kinds_build_and_reload(tmp_path, capsys, argv):
    path = tmp_path / "spec.json"
    code, out, _ = run(capsys, "build", *argv, "--blocks", "2", "-o", str(path))
    assert code == 0
    spec = load_spec(str(path))
    assert spec.digits_prefix(16) == tuple(json.loads(out)["digit_prefix"])


def test_load_spec_accepts_untampered_and_budgetless(tmp_path):
    for golden in ("build_quarter.json", "build_sqrt2.json"):
        load_spec(str(GOLDEN / golden))
    doc = json.loads((GOLDEN / "build_sqrt2.json").read_text())
    del doc["provenance"]["budget"]  # written before the budget was stored
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    assert load_spec(str(path)).block(2).digits == tuple(doc["blocks"][1]["digits"])


def test_load_spec_accepts_provenance_without_a_min(tmp_path):
    doc = json.loads((GOLDEN / "build_sqrt2.json").read_text())
    del doc["provenance"]["a_min"]
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    assert load_spec(str(path)).provenance["a_min"] == 6


@pytest.mark.parametrize(
    "key, value, error",
    [
        ("a_min", 0, "irrational provenance a_min must be 6"),
        ("a_min", -3, "irrational provenance a_min must be 6"),
        ("a_min", 25, "irrational provenance a_min must be 6"),
        ("budget", 0, "irrational provenance budget must be a positive integer"),
        ("budget", -5, "irrational provenance budget must be a positive integer"),
    ],
)
def test_spec_file_a_min_and_budget_fail_closed(tmp_path, capsys, key, value, error):
    doc = json.loads((GOLDEN / "build_sqrt2.json").read_text())
    doc["provenance"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": error}


def test_dimension_command(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys, "dimension", "--block", "1,1,1", "--prog", "1,0", "-o", str(out_path)
    )
    assert code == 0
    cert = json.loads(out_path.read_text())
    assert cert["route"] == "direct"
    assert cert["achieved_su"] > 0.5


@pytest.mark.parametrize(
    "block, route, u", [("11,3,5,12,3,5,1", "divergence", 10**6), ("1,1,1,1,1", "direct", 6390)]
)
def test_dimension_prints_sums_past_the_int_digit_limit(capsys, block, route, u):
    """Exact sums with more than 4300 digits (the interpreter's int-to-str
    cap) are printed in full and read back to the same Fraction."""

    def read_back(text):
        num, _, den = text.partition("/")
        return Fraction(int(Decimal(num)), int(Decimal(den or "1")))

    code, out, _ = run(capsys, "dimension", "--block", block)
    assert code == 0
    cert = json.loads(out)
    assert cert["route"] == route and cert["u_used"] == u
    problem = DimensionProblem(tuple(int(d) for d in block.split(",")), 1, 0)
    printed = {cert["exact_prefix"]["u"]: cert["exact_prefix"]["sum"]}
    if route == "direct":
        printed[u] = cert["sqrt_sum_at_u"]
    assert max(len(text) for text in printed.values()) > 4300
    for terms, text in printed.items():
        assert read_back(text) == exact_sqrt_partial_sum(problem, terms)


def test_simulate_command(tmp_path, capsys):
    spec_path = tmp_path / "d.json"
    run(capsys, "build", "--lambda", "1/4", "--nk", "const:1", "-o", str(spec_path))
    csv_path = tmp_path / "stats.csv"
    code, out, _ = run(
        capsys, "simulate", str(spec_path), "--T", "2000", "--grid", "8",
        "--deck", "16", "-o", str(csv_path),
    )
    assert code == 0
    rows = csv_path.read_text().strip().split("\n")
    assert len(rows) == 2 * 64 + 33
    summary = json.loads(out)
    assert summary["samples"] > 0
    assert summary["precision_bits"] == 32
    assert summary["deck_rule"]["deck_weights"] == [1, -1]


def test_simulate_slope_flag(capsys):
    code, out, _ = run(
        capsys, "simulate", "--slope", "1/3", "--z", "0,1/4", "--T", "500",
        "--start", "0,-1/2,1/8,0",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["slope"] == [1, 3]
    assert "precision_bits" not in summary  # an exact slope takes no enclosure


def test_simulate_T_parsed_exactly(capsys):
    base = ["simulate", "--slope", "1/3", "--z", "0,1/4"]
    code, out, _ = run(capsys, *base, "--T", "1.5")
    assert code == 0
    assert json.loads(out)["total_advance"] == "3/2"
    code, out, _ = run(capsys, *base, "--T", "1e3")
    assert code == 0
    assert json.loads(out)["total_advance"] == "1000"
    for bad in ("abc", "0", "-2", "inf"):
        code, out, err = run(capsys, *base, "--T", bad)
        assert code == 2 and out == "", bad
        assert "error" in json.loads(err)


def test_simulate_start_needs_four_fields(capsys):
    base = ["simulate", "--slope", "1/3", "--z", "0,1/4", "--T", "10"]
    for bad in ("0,-1/2,1/8", "0,-1/2,1/8,0,1"):
        code, out, err = run(capsys, *base, "--start", bad)
        assert code == 2 and out == "", bad
        assert "sheet,x,y,deck" in json.loads(err)["error"], bad


def test_removed_numeric_flags_exit_two(capsys):
    """The enclosure precisions and the dimension truncations are module
    constants; their former flags are unknown arguments."""
    for argv in REMOVED_FLAG_ARGV:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        error = json.loads(err)["error"]
        assert error.startswith("slittori: unrecognized arguments: " + argv[-2]), argv


def test_simulate_finite_stream_exits_two(tmp_path, capsys):
    # one block of [0; 5,1,1,7,1,1,2,1] leaves the enclosure wider than 2**-32
    path = tmp_path / "one.json"
    code, *_ = run(
        capsys, "build", "--lambda", "1/4", "--nk", "list:1", "--blocks", "1", "-o", str(path)
    )
    assert code == 0
    code, out, err = run(capsys, "simulate", str(path), "--T", "10")
    assert code == 2 and out == ""
    assert json.loads(err)["error"].startswith("DigitStreamExhaustedError: ")


def test_simulate_grid_and_deck_caps_exit_two(capsys):
    from slittori.flow import MAX_DECK_WINDOW, MAX_GRID

    base = ["simulate", "--slope", "1/3", "--z", "0,1/4", "--T", "10"]
    for flag, value in (("--grid", MAX_GRID + 1), ("--deck", MAX_DECK_WINDOW + 1)):
        code, out, err = run(capsys, *base, flag, str(value))
        assert code == 2 and out == "", flag
        assert json.loads(err)["error"].startswith("ValueError: grid above "), flag


def test_simulate_needs_rational_parameter(capsys):
    # build_sqrt2.json is the output of ``build --lambda 0:1:4:2 --blocks 2``
    code, out, err = run(capsys, "simulate", str(GOLDEN / "build_sqrt2.json"), "--T", "10")
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "ValueError: simulate needs a rational surface parameter"
    }


def test_lattice_exactness_error_exits_two(monkeypatch, capsys):
    from slittori import flow

    # an L without the factor p = 3 of the slope leaves the top-edge period
    # L q / p a fraction
    orig = flow._lattice_denominator
    monkeypatch.setattr(
        flow, "_lattice_denominator", lambda slope, *a: orig(slope, *a) // slope.numerator
    )
    code, out, err = run(
        capsys, "simulate", "--slope", "3/5", "--z", "0,1/4", "--T", "10",
        "--start", "0,-1/2,1/8,0",
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"].startswith("LatticeExactnessError: ")


def test_billiard_command(capsys):
    code, out, _ = run(
        capsys, "billiard", "--lambda", "1/4", "--x", "3/10", "--y", "1/10",
        "--vx=-7/10", "--vy", "2/5",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["round_trip_identical"] is True
    assert doc["cover"]["sheet"] == 1


def test_billiard_theta_degrees(capsys):
    code, out, _ = run(
        capsys, "billiard", "--lambda", "1/4", "--x", "3/10", "--y", "1/10",
        "--theta-deg", "30",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["round_trip_identical"] is True
    assert doc["cover"]["sheet"] == 0


def test_billiard_command_matches_billiard_oracle(capsys):
    """The ``billiard`` command's cover state is the billiard's own state,
    checked with the exact table of ``oracle_billiard``.

    The printed cover state is read by the table's unfolding rule: the
    point (deck + w x, |y|) and the velocity (w dx, +-dy), with w = 1 on
    sheet 0 and -1 on sheet 1 and the sign of vy from the cell height.
    That must give back the input state, which the command's round trip
    must print too, and call identical.  On a wall (y = 0 or 1/2) the cell
    height is half-open, so vy may come back flipped, which is the same
    billiard state, also called identical: the table run from both states
    must reach the same point at T = 3, or the same barrier tip.  The deck must be the barrier period
    that the table from the input state is in a time 1/100 later, also
    from the half-open cell edge of a half-integer x on either sheet.

    The states are seeded, plus the edge and wall cases written out, on
    lambda = 1/4 and on sqrt(2)/4, where the table runs on ExactScalar.
    """
    import oracle_billiard

    half, eps, T = Fraction(1, 2), Fraction(1, 100), 3
    weights = (1, -1)  # written out, not read from flow.DECK_WEIGHTS
    edges = [  # sheet 1 and sheet 0 on the cell edge, then the two walls
        (Fraction(5, 2), Fraction(1, 3), Fraction(-3), Fraction(2)),
        (Fraction(-3, 2), Fraction(1, 3), Fraction(3), Fraction(-2)),
        (Fraction(-7, 2), half, Fraction(-1), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(0), Fraction(2), Fraction(-1)),
    ]
    rng = random.Random(35)
    for lam_text in ("1/4", "0:1:4:2"):
        lam = parse_scalar(lam_text)
        num = Fraction if lam.is_rational else ExactScalar.from_fraction
        table_lam = lam.as_fraction() if lam.is_rational else lam
        states = list(edges)
        while len(states) < 24:
            x = Fraction(rng.randint(-40, 40), rng.choice((2, 3, 4, 6, 12)))
            y = Fraction(rng.randint(0, 12), 24)
            if x.denominator == 1 and y < lam:
                continue  # a point of a barrier
            vx = Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))
            states.append((x, y, vx, Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
        for x, y, vx, vy in states:
            case = (lam_text, x, y, vx, vy)
            code, out, _ = run(capsys, "billiard", f"--lambda={lam_text}", f"--x={x}",
                               f"--y={y}", f"--vx={vx}", f"--vy={vy}")
            assert code == 0, case
            doc = json.loads(out)
            cover = doc["cover"]
            w = weights[cover["sheet"]]
            cx, cy = Fraction(cover["x"]), Fraction(cover["y"])
            dx, dy = (Fraction(v) for v in cover["direction"])
            assert -half <= cx < half and -half <= cy < half, case
            read = (cover["deck"] + w * cx, abs(cy), w * dx, dy if cy >= 0 else -dy)
            on_wall = y in (0, half)
            assert read[:3] == (x, y, vx), case
            assert read[3] == vy or (on_wall and read[3] == -vy), case
            assert doc["billiard"] == dict(zip(("x", "y", "vx", "vy"), map(str, (x, y, vx, vy))))
            assert doc["round_trip"] == dict(zip(("x", "y", "vx", "vy"), map(str, read))), case
            assert doc["round_trip_identical"] is True, case

            tables = [oracle_billiard.Billiard(table_lam, num(px), num(py), num(pvx / abs(vx)),
                                               num(pvy / abs(vx)))
                      for px, py, pvx, pvy in ((x, y, vx, vy), read)]
            tables[0].run_to(num(eps))
            assert math.floor(tables[0].x + half) == cover["deck"], case
            ends = []
            for table in tables:
                try:
                    table.run_to(num(T))
                    ends.append((table.x, table.y, table.vx, table.vy))
                except oracle_billiard.TipHit as hit:
                    ends.append(("tip", hit.t))
            assert ends[0] == ends[1], case


def test_spec_file_shape(tmp_path, capsys):
    spec = direction_stream(
        RationalParam.from_barrier_length(Fraction(1, 6)), DigitRule("arith", (6, 0))
    )
    doc = spec_to_dict(spec, 2)
    assert doc["format_version"] == 1
    assert doc["provenance"]["nk_rule"] == {"kind": "arith", "params": [6, 0]}
    assert doc["digit_prefix"][:8] == [8, 1, 1, 11, 1, 1, 3, 6]
    assert doc["y_bounds"][0] == [1, 0, 6, 0]


def test_json_past_the_int_digit_cap(capsys, tmp_path):
    """Spec files and reports carry ints of any size: ``_emit`` prints a
    5000-digit int, and a spec file with one in z0 is parsed and compared
    with the rebuild, so it fails there (exit 2), not at the parse.  The
    caller's cap on int/str digits is the same after both."""
    from slittori import cli

    digits = "9" * 5000
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4321)
    try:
        cli._emit({"u": 10 ** 5000 - 1})
        assert capsys.readouterr().out == '{\n  "u": ' + digits + "\n}\n"
        assert sys.get_int_max_str_digits() == 4321

        path = tmp_path / "spec.json"
        assert main(["build", "--lambda", "1/4", "--nk", "const:1", "--blocks", "1",
                     "-o", str(path)]) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        assert doc["z0"][0] == [0, 0, 1, 0]
        doc["z0"] = "Z0"
        path.write_text(json.dumps(doc).replace('"Z0"', f"[[{digits}, 0, 1, 0], [1, 0, 4, 0]]"))
        code, out, err = run(capsys, "verify", str(path), "--horizon", "1")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "spec file z0 disagree with deterministic rebuild"}
        assert sys.get_int_max_str_digits() == 4321
    finally:
        sys.set_int_max_str_digits(before)
