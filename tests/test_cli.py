import argparse
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import oracle_torus as oracle
from slittori.cli import _build_parser, load_spec, main, spec_from_provenance, spec_to_dict
from slittori.criterion import verify
from slittori.dimension import DimensionProblem, exact_sqrt_partial_sum
from slittori.exact import ExactScalar
from slittori.irrational import SearchBudgetExceededError, direction_stream_irrational
from slittori.rational import NkRule, RationalParam, direction_stream


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
        RationalParam.from_barrier_length(Fraction(1, 4)), NkRule("const", (1,))
    )
    assert verify(load_spec(str(spec_path)), 3).as_dict() == verify(spec_mem, 3).as_dict()


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


def test_argument_errors_exit_two_with_json(capsys):
    for argv in (
        ["verify", "x.json", "--horizon", "abc"],
        ["action", "--z", "0,1/4", "--gz-lambda", "1/4", "--precision", "256"],
        ["dimension"],
        ["dimension", "--block", "1,1,1", "--prog", "1"],
        ["dimension", "--block", "1,1,1", "--u-cap", "-3"],
        ["build", "--lambda", "1/4", "--blocks", "0"],
        ["build", "--lambda", "1/4", "--blocks", "-1"],
        ["action", "--z", "0,1/4", "--gz", "1,2"],
        ["build", "--z-rational", "1,2"],
        ["action", "--z", "0,1/4", "--gz", "--word", "h+"],
        ["action", "--z", "0,1/4", "--word", "h+", "-x"],
        [],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "error" in json.loads(err), argv
    _, _, err = run(capsys, "dimension", "--block", "1,1,1", "--prog", "1")
    assert json.loads(err)["error"] == "--prog expects b,c got '1'"
    _, _, err = run(capsys, "dimension", "--block", "1,1,1", "--u-cap", "-3")
    assert "expected a nonnegative integer" in json.loads(err)["error"]
    for blocks in ("0", "-1"):
        _, _, err = run(capsys, "build", "--lambda", "1/4", "--blocks", blocks)
        assert "expected a positive integer" in json.loads(err)["error"]
    _, _, err = run(capsys, "action", "--z", "0,1/4", "--gz", "1,2")
    assert json.loads(err)["error"] == "--gz expects r,s,q got '1,2'"
    _, _, err = run(capsys, "build", "--z-rational", "1,2")
    assert json.loads(err)["error"] == "--z-rational expects r,s,q got '1,2'"


# every subcommand's options: flags by their spellings, positionals by name
CLI_OPTIONS = {
    "action": ["--z", "--word", "--gz", "--gz-lambda", "-o/--output"],
    "build": [
        "--lambda", "--z-rational", "--nk", "--d-choices", "--blocks", "--budget", "-o/--output",
    ],
    "verify": ["spec", "--horizon", "--precision", "-o/--output"],
    "dimension": ["--block", "--prog", "--u-cap", "--u-numeric", "-o/--output"],
    "simulate": [
        "spec", "--slope", "--z", "--T", "--grid", "--deck", "--precision", "--start",
        "--dump-events", "-o/--output",
    ],
    "billiard": ["--lambda", "--x", "--y", "--vx", "--vy", "--theta-deg", "-o/--output"],
}


def test_cli_option_inventory():
    parser = _build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {
        name: [
            "/".join(a.option_strings) or a.dest
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        for name, sub in commands.choices.items()
    }
    assert found == CLI_OPTIONS
    flags = [o for opts in found.values() for o in opts if o.startswith("-")]
    assert (len(flags), sum(map(len, found.values())) - len(flags)) == (36, 2)


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
    probe = (
        "import sys, slittori.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


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


GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize(
    "golden, tamper",
    [
        ("build_sqrt2.json", lambda d: d["blocks"][1]["endpoint"][0].__setitem__(2, 8)),
        ("build_quarter.json", lambda d: d["blocks"][0]["meta"].__setitem__("n_k", 2)),
        ("build_quarter.json", lambda d: d["blocks"][2].__setitem__("index", 4)),
        ("build_quarter.json", lambda d: d["z0"][0].__setitem__(0, 1)),
        ("build_sqrt2.json", lambda d: d["y_bounds"][1].__setitem__(0, 2)),
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
    assert json.loads(out)["slope"] == [1, 3]


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


def test_negative_precision_rejected(capsys):
    spec = str(GOLDEN / "build_quarter.json")
    for argv in (
        ["verify", spec, "--precision", "-1"],
        ["simulate", spec, "--T", "10", "--precision", "-1"],
        ["simulate", "--slope", "1/3", "--z", "0,1/4", "--T", "10", "--precision", "-1"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "nonnegative" in json.loads(err)["error"], argv


def test_simulate_needs_rational_parameter(capsys):
    # build_sqrt2.json is the output of ``build --lambda 0:1:4:2 --blocks 2``
    code, out, err = run(capsys, "simulate", str(GOLDEN / "build_sqrt2.json"), "--T", "10")
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "ValueError: simulate needs a rational surface parameter"
    }


def test_lattice_exactness_error_exits_two(monkeypatch, capsys):
    from slittori import flow

    orig = flow._lattice_denominator
    monkeypatch.setattr(flow, "_lattice_denominator", lambda *a: orig(*a) // 2)
    code, out, err = run(
        capsys, "simulate", "--slope", "2/3", "--z", "0,1/4", "--T", "10",
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


def test_spec_file_shape(tmp_path, capsys):
    spec = direction_stream(
        RationalParam.from_barrier_length(Fraction(1, 6)), NkRule("arith", (6, 0))
    )
    doc = spec_to_dict(spec, 2)
    assert doc["format_version"] == 1
    assert doc["provenance"]["nk_rule"] == {"kind": "arith", "params": [6, 0]}
    assert doc["digit_prefix"][:8] == [8, 1, 1, 11, 1, 1, 3, 6]
    assert doc["y_bounds"][0] == [1, 0, 6, 0]
