"""Command-line interface.

Commands
--------
action     trace a word at a torus point, print endpoint + homology action
build      construct a direction spec (rational or quadratic parameter)
verify     re-check every criterion hypothesis for a spec file
dimension  dimension lower-bound certificate for a block + progression
simulate   event-driven flow statistics on the two-sheet surface
billiard   unfold a billiard state to the cover and back

Scalars on the command line are either ``p/q`` strings or ``u:v:w:D``
(meaning ``(u + v*sqrt(D))/w``).  All outputs are JSON (stats are CSV)
with fixed field order, so identical flags reproduce identical bytes.
Exit codes: 0 success / check passed, 1 check failed, 2 bad input.

The command line has one grammar, the table ``COMMANDS``: for each
command its help line, its function and its arguments (spellings, dest,
type, default, whether required, exclusive group, help).  ``parse_args``
reads a plain line (the command, then each flag once and in full) from
the table itself; every other line goes to an argparse parser built from
the same table and imported only then, so a long flag may be shortened
to a unique prefix (``--lam``), a repeated flag keeps its last value and
``--`` makes every later argument a value.  Either way a flag takes its
value as the next argument, after ``=`` (``--lambda=1/4``) or, for a
one-letter flag, attached (``-oout.json``), and a value that starts with
``-`` and a digit (``-3/10``, ``-1,-1,3``) is a value, not a flag.
Errors carry argparse's text and exit 2; ``-h``/``--help`` prints the
usage from the same table and exits 0.

The process entry is ``run``: ``python -m slittori.cli`` and the
``slittori`` script call it.  It runs ``gc.freeze()`` once the imports are
done, before the command is parsed, so the collector's later passes (the
full ones at interpreter exit included) skip the objects the imports left,
which live until exit anyway.  ``main(argv)`` never freezes: tests and
library callers run it many times in one long-lived process, where a
freeze would keep any cyclic garbage of each call for good.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from .criterion import verify
from .dimension import DimensionProblem, dimension_certificate
from .directions import DigitRule, DirectionSpec
from .exact import ExactScalar, parse_scalar, to_json
from .flow import (
    DECK_RULE,
    SLOPE_PRECISION_BITS,
    BilliardState,
    CoverState,
    billiard_to_cover,
    build_surface,
    cover_to_billiard,
    simulate,
    slope_from_spec,
)
from .irrational import DEFAULT_A_MIN, DEFAULT_BUDGET, direction_stream_irrational
from .rational import RationalParam, direction_stream, fixing_word
from .torus import TorusPoint, canonical_entries, entries_are_identity, entries_fix_beta, trace_word
from .words import GenWord

FORMAT_VERSION = 1


class CliError(Exception):
    pass


def _any_digits(fn, *args, **kwargs):
    """fn(*args, **kwargs) with Python's cap on the digits of an int and
    str conversion lifted, and restored afterwards (spec files and reports
    carry orbit coordinates of any size; Python before 3.10.7 has no cap)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return fn(*args, **kwargs)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return fn(*args, **kwargs)
    finally:
        sys.set_int_max_str_digits(limit)


def _emit(obj: dict, path: str | None = None) -> None:
    text = _any_digits(json.dumps, obj, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _fail(message: str, code: int = 2) -> int:
    sys.stderr.write(json.dumps({"error": message}) + "\n")
    return code


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise CliError(f"expected a positive integer, got {text!r}")
    return value


def _parse_param(text: str, flag: str) -> RationalParam:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliError(f"{flag} expects r,s,q got {text!r}")
    return RationalParam(*(int(v) for v in parts))


def _parse_point(text: str) -> TorusPoint:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"expected x,y got {text!r}")
    return TorusPoint.of(parse_scalar(parts[0]), parse_scalar(parts[1]))


def _parse_word(text: str) -> GenWord:
    """``gen[:exp],...`` with generators h+ and h- that alternate."""
    gens, digits = [], []
    for chunk in text.split(","):
        gen, exp = chunk.split(":") if ":" in chunk else (chunk, 1)
        gen = gen.strip()
        if gen != "h+" and gen != "h-":
            raise ValueError(f"unknown generator {gen!r}")
        if gens and gen == gens[-1]:
            raise ValueError("syllables must alternate generators")
        gens.append(gen)
        digits.append(int(exp))
    return GenWord(gens[0], tuple(digits))


def _parse_rule(text: str) -> DigitRule:
    kind, _, rest = text.partition(":")
    return DigitRule(kind, (int(v) for v in rest.split(",") if v != ""))


# ---------------------------------------------------------------------------
# spec files


def _stored_fields(spec: DirectionSpec, n_blocks: int, n_digits: int) -> dict:
    """The fields a spec file stores for the stream's first ``n_blocks``
    blocks and ``n_digits`` digits, as JSON."""
    return to_json({
        "z0": spec.z0,
        "y_bounds": spec.y_bounds,
        "blocks": [spec.block(n) for n in range(1, n_blocks + 1)],
        "digit_prefix": spec.digits_prefix(n_digits),
    })


def spec_to_dict(spec: DirectionSpec, blocks: int) -> dict:
    spec.block(blocks)
    return {
        "format_version": FORMAT_VERSION,
        "provenance": spec.provenance,
        **_stored_fields(spec, blocks, len(spec.cached_digits)),
    }


def _is(value, typ) -> bool:
    """Whether a JSON value has the type ``typ``: ``object`` (any value),
    ``int`` (not a boolean), ``str``, ``list``, or ``[int]`` (a list of ints)."""
    if typ == [int]:
        return isinstance(value, list) and all(_is(v, int) for v in value)
    return isinstance(value, typ) and not isinstance(value, bool)


def _object(value, fields: dict, what: str, optional: tuple[str, ...] = ()) -> dict:
    """``value`` if it is a JSON object holding every key of ``fields`` but
    those in ``optional``, each with the type that ``fields`` gives it."""
    if not isinstance(value, dict):
        raise CliError(f"{what} is not a JSON object")
    missing = [key for key in fields if key not in value and key not in optional]
    if missing:
        raise CliError(f"{what} lacks {', '.join(missing)}")
    wrong = [key for key, typ in fields.items() if key in value and not _is(value[key], typ)]
    if wrong:
        raise CliError(f"{what} has a wrong type of {', '.join(wrong)}")
    return value


def _rule_from(prov: dict, key: str) -> DigitRule:
    return DigitRule.from_dict(_object(prov[key], {"kind": str, "params": [int]}, key))


def spec_from_provenance(prov: dict) -> DirectionSpec:
    kind = _object(prov, {"type": object}, "provenance")["type"]
    if kind == "rational":
        _object(prov, {"r": int, "s": int, "q": int, "nk_rule": object}, "rational provenance")
        param = RationalParam(prov["r"], prov["s"], prov["q"])
        return direction_stream(param, _rule_from(prov, "nk_rule"))
    if kind == "irrational":
        fields = {"lambda": [int], "d_choices": object, "a_min": int, "budget": int}
        _object(prov, fields, "irrational provenance", optional=("a_min", "budget"))
        if len(prov["lambda"]) != 4:
            raise CliError("irrational provenance lambda is not [u, v, w, D]")
        # the builder's search floor is a constant; a file may only repeat it
        if prov.get("a_min", DEFAULT_A_MIN) != DEFAULT_A_MIN:
            raise CliError(f"irrational provenance a_min must be {DEFAULT_A_MIN}")
        budget = prov.get("budget", DEFAULT_BUDGET)
        if budget < 1:
            raise CliError("irrational provenance budget must be a positive integer")
        return direction_stream_irrational(
            ExactScalar(*prov["lambda"]), _rule_from(prov, "d_choices"), budget=budget
        )
    raise CliError(f"unknown provenance type {kind!r}")


def _json_text(value) -> str:
    return _any_digits(json.dumps, value, sort_keys=True)


def load_spec(path: str) -> DirectionSpec:
    # the stored keys are format_version and the keys of the rebuild below
    optional = {"blocks": list, "digit_prefix": list, "z0": object, "y_bounds": object}
    fields = {"format_version": int, "provenance": object, **optional}
    with open(path) as fh:
        data = _object(_any_digits(json.load, fh), fields, "spec file", optional=tuple(optional))
    unknown = [key for key in data if key not in fields]
    if unknown:
        raise CliError(f"spec file has unknown keys {', '.join(unknown)}")
    if data["format_version"] != FORMAT_VERSION:
        raise CliError("unsupported spec file version")
    stored = data["provenance"]
    spec = spec_from_provenance(stored)
    unknown = [key for key in stored if key not in spec.provenance]
    if unknown:
        raise CliError(f"spec file provenance has unknown keys {', '.join(unknown)}")
    # determinism cross-check: the rebuilt stream must reproduce every
    # stored field, compared as JSON text, where 1.0 differs from 1 and 0
    # from false (the blocks are pulled anyway to rebuild the digits); a
    # provenance may leave out the keys that have defaults
    rebuilt = _stored_fields(spec, len(data.get("blocks", [])), len(data.get("digit_prefix", [])))
    rebuilt["provenance"] = {key: spec.provenance[key] for key in stored}
    for key in ("provenance", "digit_prefix", "blocks", "z0", "y_bounds"):
        if key in data and _json_text(rebuilt[key]) != _json_text(data[key]):
            name = {"digit_prefix": "digits", "provenance": "provenance fields"}.get(key, key)
            raise CliError(f"spec file {name} disagree with deterministic rebuild")
    return spec


# ---------------------------------------------------------------------------
# commands


def cmd_action(args) -> int:
    z = _parse_point(args.z)
    if args.word is not None:
        word = _parse_word(args.word)
    elif args.gz is not None:
        word = fixing_word(_parse_param(args.gz, "--gz"))
    else:
        word = fixing_word(RationalParam.from_barrier_length(Fraction(args.gz_lambda)))
    final, entries = trace_word(z, word)
    a, b, c, d = canonical_entries(*entries)
    _emit(
        {
            "z": z.as_json(),
            "word_digits": list(word.digits),
            "final": final.as_json(),
            "final_str": str(final),
            "action": [a, b, c, d],
            "action_str": f"+-[[{a},{b}],[{c},{d}]]",
            "is_identity": entries_are_identity(a, b, c, d),
            "fixes_beta": entries_fix_beta(a, b, c, d),
            "orbit_length": word.step_count,
        },
        args.output,
    )
    return 0


def cmd_build(args) -> int:
    # both rule flags are parsed, so a malformed one fails whichever builder runs
    nk, d_choices = _parse_rule(args.nk), _parse_rule(args.d_choices)
    if args.z_rational is not None:
        param = _parse_param(args.z_rational, "--z-rational")
        spec = direction_stream(param, nk)
    else:
        lam = parse_scalar(args.lam)
        if lam.is_rational:
            param = RationalParam.from_barrier_length(lam.as_fraction())
            spec = direction_stream(param, nk)
        else:
            spec = direction_stream_irrational(lam, d_choices, budget=args.budget)
    _emit(spec_to_dict(spec, args.blocks), args.output)
    return 0


def cmd_verify(args) -> int:
    spec = load_spec(args.spec)
    report = verify(spec, args.horizon)
    _emit(report.as_json(), args.output)
    return 0 if report.overall else 1


def cmd_dimension(args) -> int:
    block = tuple(int(v) for v in args.block.split(","))
    prog = args.prog.split(",")
    if len(prog) != 2:
        raise CliError(f"--prog expects b,c got {args.prog!r}")
    b, c = (int(v) for v in prog)
    problem = DimensionProblem(block, b, c)
    cert = dimension_certificate(problem)
    _emit(cert.as_json(), args.output)
    return 0 if cert.exceeds_target else 1


def cmd_simulate(args) -> int:
    flags = (args.slope is not None, args.z is not None)
    if args.spec is not None and flags == (False, False):
        spec = load_spec(args.spec)
        slope = slope_from_spec(spec)
        model = build_surface(spec.z0)
    elif args.spec is None and flags == (True, True):
        slope = Fraction(args.slope)
        model = build_surface(_parse_point(args.z))
    else:
        raise CliError("need a spec file alone, or --slope together with --z")
    start = None
    if args.start:
        parts = args.start.split(",")
        if len(parts) != 4:
            raise CliError(f"--start expects sheet,x,y,deck got {args.start!r}")
        sheet, xs, ys, deck = parts
        start = CoverState(int(sheet), Fraction(xs), Fraction(ys), int(deck))
    log_fh = open(args.dump_events, "w") if args.dump_events else None
    try:
        stats = simulate(
            model,
            slope,
            Fraction(args.T),
            grid=args.grid,
            deck_window=args.deck,
            start=start,
            event_log=log_fh,
        )
    finally:
        if log_fh:
            log_fh.close()
    if args.output:
        with open(args.output, "w") as fh:
            stats.write_csv(fh)
    summary = stats.as_json()
    if args.spec is not None:  # the slope is the spec's convergent within 2**-bits
        summary["precision_bits"] = SLOPE_PRECISION_BITS
    summary["deck_rule"] = DECK_RULE
    _emit(summary)
    return 0 if not stats.terminated_early else 1


def cmd_billiard(args) -> int:
    lam = parse_scalar(args.lam)
    given = (args.vx is not None, args.vy is not None, args.theta_deg is not None)
    if given == (True, True, False):
        vx, vy = Fraction(args.vx), Fraction(args.vy)
    elif given == (False, False, True):
        import math as _m

        theta = _m.radians(args.theta_deg)
        vx = Fraction(_m.cos(theta)).limit_denominator(10**12)
        vy = Fraction(_m.sin(theta)).limit_denominator(10**12)
    else:
        raise CliError("need --vx with --vy, or --theta-deg alone")
    b = BilliardState(Fraction(args.x), Fraction(args.y), vx, vy)
    lam_frac = lam.as_fraction() if lam.is_rational else lam
    state, direction = billiard_to_cover(b, lam_frac)
    back = cover_to_billiard(state, direction)
    # on a wall the state and its reflection, vy flipped, are one billiard state
    reflected = BilliardState(b.x, b.y, b.vx, -b.vy) if b.y in (0, Fraction(1, 2)) else b
    _emit(
        {
            "billiard": b.as_json(),
            "cover": {**state.as_json(), "direction": to_json(direction)},
            "round_trip": back.as_json(),
            "round_trip_identical": back in (b, reflected),
        },
        args.output,
    )
    return 0


# ---------------------------------------------------------------------------
# the command line


class _Arg:
    """One argument of a command: a positional (one spelling, no dash) or a
    flag (its spellings joined by ``/``, as ``-o/--output``).  ``dest`` is
    the field of ``args`` it sets: the last spelling, its dashes turned into
    underscores, unless given.  ``type`` converts the text (None keeps it).
    A required positional takes exactly one value, an optional one at most
    one.  Of the flags that share a ``group``, exactly one must be given."""

    __slots__ = ("name", "spellings", "dest", "type", "default", "required", "group", "help")

    def __init__(self, name, help, *, type=None, default=None, required=False, group=None,
                 dest=None):
        self.name, self.spellings, self.help = name, name.split("/"), help
        self.dest = dest or self.spellings[-1].lstrip("-").replace("-", "_")
        self.type, self.default, self.required, self.group = type, default, required, group


def _output(help="output JSON path (stdout too)"):
    return _Arg("-o/--output", help)


# command -> (help line, function, arguments in usage order)
COMMANDS = {
    "action": ("trace a word at a point", cmd_action, (
        _Arg("--z", "point as x,y", required=True),
        _Arg("--word", "word as h+:5,h-:1,...", group="word"),
        _Arg("--gz", "fixing word of r,s,q", group="word"),
        _Arg("--gz-lambda", "fixing word of lambda=p/q", group="word"),
        _output(),
    )),
    "build": ("build a direction spec", cmd_build, (
        _Arg("--lambda", "barrier ratio: p/q or u:v:w:D", group="param", dest="lam"),
        _Arg("--z-rational", "parameter as r,s,q", group="param"),
        _Arg("--nk", "free digits: const:M | arith:B,C | list:...", default="const:1"),
        _Arg("--d-choices", "final digits of irrational blocks, same forms", default="default"),
        _Arg("--blocks", "blocks to write", type=_positive_int, default=3),
        _Arg("--budget", "search steps per irrational block", type=_positive_int,
             default=DEFAULT_BUDGET),
        _output(),
    )),
    "verify": ("verify criterion hypotheses", cmd_verify, (
        _Arg("spec", "spec file", required=True),
        _Arg("--horizon", "checkpoints to verify", type=int, default=3),
        _output(),
    )),
    "dimension": ("dimension lower-bound certificate", cmd_dimension, (
        _Arg("--block", "digits, e.g. 1,1,1", required=True),
        _Arg("--prog", "progression b,c", default="1,0"),
        _output(),
    )),
    "simulate": ("flow statistics", cmd_simulate, (
        _Arg("spec", "spec file (or --slope with --z)"),
        _Arg("--slope", "rational slope p/q (with --z)"),
        _Arg("--z", "surface parameter x,y (with --slope)"),
        _Arg("--T", "flow time, an exact rational", default="1e6"),
        _Arg("--grid", "cells per side", type=int, default=8),
        _Arg("--deck", "deck bins", type=int, default=16),
        _Arg("--start", "sheet,x,y,deck"),
        _Arg("--dump-events", "event-point CSV path"),
        _output("stats CSV path"),
    )),
    "billiard": ("billiard <-> cover correspondence", cmd_billiard, (
        _Arg("--lambda", "barrier length p/q or u:v:w:D", required=True, dest="lam"),
        _Arg("--x", "position x", required=True),
        _Arg("--y", "position y", required=True),
        _Arg("--vx", "velocity x (with --vy)"),
        _Arg("--vy", "velocity y (with --vx)"),
        _Arg("--theta-deg", "direction angle in degrees", type=float),
        _output(),
    )),
}

# a value that starts like a flag but reads as an argument: -3/10, -1,-1,3
_NEGATIVE = re.compile(r"-\.?\d[\d,/:.-]*\Z")


def _usage(command: str | None) -> str:
    if command is None:
        lines = [f"usage: slittori {{{','.join(COMMANDS)}}} ...", "", "commands:"]
        lines += [f"  {name:<10} {helpline}" for name, (helpline, _, _) in COMMANDS.items()]
        return "\n".join(lines + ["", "slittori <command> -h lists the command's options."]) + "\n"
    helpline, _, table = COMMANDS[command]
    words, rows, done = [], [], set()
    for arg in table:
        value = "" if arg.name[0] != "-" else f" {arg.dest.upper()}"
        shown = arg.spellings[-1] + value
        rows.append(f"  {arg.name + value:<28} {arg.help}"
                    + (f" (default: {arg.default})" if arg.default is not None else ""))
        if arg.group is None:
            words.append(shown if arg.required else f"[{shown}]")
        elif arg.group not in done:
            done.add(arg.group)
            members = [f"{a.spellings[-1]} {a.dest.upper()}" for a in table if a.group == arg.group]
            words.append(f"({' | '.join(members)})")
    rows.append(f"  {'-h/--help':<28} print this help and exit")
    return "\n".join([f"usage: slittori {command} {' '.join(words)}", "", helpline, "", *rows]) + "\n"


def _is_value(text: str) -> bool:
    """Whether ``text`` reads as a value: it does not start with ``-``, or
    ``_NEGATIVE`` matches it."""
    return text[:1] != "-" or _NEGATIVE.match(text) is not None


def _plain(argv: list[str]):
    """``args`` for a plain line, None for any other line.  A plain line is
    a command, then flags spelled in full (``--flag value``,
    ``--flag=value``, ``-ovalue``), each given once, and at most one
    positional value; each value converts by its flag's type, every
    required argument is given and exactly one flag of each group."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, table = COMMANDS[argv[0]]
    flags = {spelling: arg for arg in table if arg.name[0] == "-" for spelling in arg.spellings}
    positional = [arg for arg in table if arg.name[0] != "-"]
    given = {}
    rest = iter(argv[1:])
    for text in rest:
        flag, eq, value = text.partition("=")
        if _is_value(text):
            if not positional:
                return None
            arg, value = positional.pop(), text
        elif text in flags:
            arg, value = flags[text], next(rest, "-")  # "-", no value, when none is left
            if not _is_value(value):
                return None
        elif eq and flag in flags:
            arg = flags[flag]
        elif text[:2] in flags:  # a one-letter flag with its value attached
            arg, value = flags[text[:2]], text[2:]
        else:
            return None
        if arg in given:
            return None
        try:
            given[arg] = value if arg.type is None else arg.type(value)
        except (CliError, TypeError, ValueError):
            return None
    for arg in table:
        if arg.required and arg not in given:
            return None
        if arg.group is not None and sum(a.group == arg.group for a in given) != 1:
            return None
    fields = {arg.dest: given.get(arg, arg.default) for arg in table}
    return SimpleNamespace(command=argv[0], **fields, func=func)


@functools.cache
def _argparse():
    """The argparse parser of ``COMMANDS``, built once per process, which
    reads every line that is not plain.  Its errors raise CliError, ``-h`` prints ``_usage``, a text
    that ``_NEGATIVE`` matches is a value, ``--flag=--`` and ``-o--`` give
    the flag the text ``--`` (argparse itself drops it) and a type's
    CliError names its flag, as an ArgumentTypeError would."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def __init__(self, *args, command=None, **kwargs):
            super().__init__(*args, **kwargs)
            self.command = command
            self._negative_number_matcher = _NEGATIVE

        def error(self, message):
            raise CliError(f"{self.prog}: {message}")

        def print_help(self, file=None):
            sys.stdout.write(_usage(self.command))

        def _get_values(self, action, arg_strings):
            if action.option_strings and arg_strings == ["--"]:
                return self._get_value(action, "--")
            return super()._get_values(action, arg_strings)

        def _get_value(self, action, text):
            try:
                return super()._get_value(action, text)
            except CliError as exc:
                raise argparse.ArgumentError(action, str(exc)) from None

    top = Parser(prog="slittori")
    commands = top.add_subparsers(dest="command", required=True, prog="slittori")
    for command, (_, func, table) in COMMANDS.items():
        parser = commands.add_parser(command, command=command)
        parser.set_defaults(func=func)
        groups = {}
        for arg in table:
            if arg.name[0] != "-":
                parser.add_argument(arg.name, nargs=None if arg.required else "?")
                continue
            if arg.group is not None and arg.group not in groups:
                groups[arg.group] = parser.add_mutually_exclusive_group(required=True)
            groups.get(arg.group, parser).add_argument(
                *arg.spellings, dest=arg.dest, type=arg.type, default=arg.default,
                required=arg.required,
            )
    return top


def parse_args(argv: list[str]):
    """``args`` for ``argv`` (``command``, one field per argument of the
    command and ``func``), or None once ``-h`` has printed the help."""
    args = _plain(argv)
    if args is not None:
        return args
    try:
        return _argparse().parse_args(argv)
    except SystemExit:  # -h has printed the help
        return None


def run() -> None:
    """Freeze the import-time heap, run the command line, exit with its code.
    Output that cannot be flushed (a full disk, a closed pipe) fails closed
    with exit 2 and one JSON line."""
    gc.freeze()
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        # the interpreter flushes again at exit, and exits 120 if that fails
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        code = _fail(f"{type(exc).__name__}: {exc}")
    sys.exit(code)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        return 0 if args is None else args.func(args)
    except CliError as exc:
        return _fail(str(exc), 2)
    except (ValueError, ArithmeticError, OSError, RuntimeError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}", 2)


if __name__ == "__main__":
    run()
