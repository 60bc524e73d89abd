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
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .criterion import DEFAULT_PRECISION_BITS, verify
from .dimension import DimensionProblem, dimension_certificate
from .directions import DigitRule, DirectionSpec
from .exact import ExactScalar, parse_scalar
from .flow import (
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
from .torus import TorusPoint, trace_word
from .words import GenWord

FORMAT_VERSION = 1


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument errors raise CliError, so they exit 2 with a JSON message
    like every other bad input (subparsers inherit this class).

    A value that starts with a minus sign and a digit, such as ``-3,5,7``,
    ``-1/4,1/4``, ``-1:1:4:2`` or ``-3/10``, is read as an argument, not as
    an option, so it may follow its flag after a space.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d[\d,/:.]*\Z")

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _emit(obj: dict, path: str | None = None) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _fail(message: str, code: int = 2) -> int:
    sys.stderr.write(json.dumps({"error": message}) + "\n")
    return code


def _int_at_least(low: int, kind: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
        return value

    return parse


_nonnegative_int = _int_at_least(0, "nonnegative")
_positive_int = _int_at_least(1, "positive")


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
    syllables = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ":" in chunk:
            gen, exp = chunk.split(":")
            syllables.append((gen.strip(), int(exp)))
        else:
            syllables.append((chunk, 1))
    return GenWord(tuple(syllables))


def _parse_rule(text: str) -> DigitRule:
    kind, _, rest = text.partition(":")
    return DigitRule(kind, (int(v) for v in rest.split(",") if v != ""))


def _scalar_json(s: ExactScalar) -> list[int]:
    return list(s.as_tuple())


def _point_json(p: TorusPoint) -> list[list[int]]:
    return [_scalar_json(p.x), _scalar_json(p.y)]


# ---------------------------------------------------------------------------
# spec files


def _block_json(rec) -> dict:
    return {
        "index": rec.index,
        "digits": list(rec.digits),
        "endpoint": _point_json(rec.endpoint),
        "meta": rec.meta,
    }


def spec_to_dict(spec: DirectionSpec, blocks: int) -> dict:
    spec.block(blocks)
    return {
        "format_version": FORMAT_VERSION,
        "provenance": spec.provenance,
        "z0": _point_json(spec.z0),
        "y_bounds": [_scalar_json(spec.y_bounds[0]), _scalar_json(spec.y_bounds[1])],
        "blocks": [_block_json(spec.block(n)) for n in range(1, blocks + 1)],
        "digit_prefix": list(spec.cached_digits),
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
        return direction_stream_irrational(
            ExactScalar(*prov["lambda"]),
            _rule_from(prov, "d_choices"),
            a_min=prov.get("a_min", DEFAULT_A_MIN),
            budget=prov.get("budget", DEFAULT_BUDGET),
        )
    raise CliError(f"unknown provenance type {kind!r}")


def load_spec(path: str) -> DirectionSpec:
    fields = {"format_version": object, "provenance": object, "blocks": list, "digit_prefix": list}
    with open(path) as fh:
        data = _object(json.load(fh), fields, "spec file", optional=("blocks", "digit_prefix"))
    if data["format_version"] != FORMAT_VERSION:
        raise CliError("unsupported spec file version")
    spec = spec_from_provenance(data["provenance"])
    # determinism cross-check: the rebuilt stream must reproduce every
    # stored field (the blocks are pulled anyway to rebuild the digits)
    n_digits = len(data.get("digit_prefix", []))
    n_blocks = len(data.get("blocks", []))
    rebuilt = {
        "digit_prefix": list(spec.digits_prefix(n_digits)),
        "blocks": [_block_json(spec.block(n)) for n in range(1, n_blocks + 1)],
        "z0": _point_json(spec.z0),
        "y_bounds": [_scalar_json(b) for b in spec.y_bounds],
    }
    for key, value in rebuilt.items():
        if key in data and json.loads(json.dumps(value)) != data[key]:
            name = "digits" if key == "digit_prefix" else key
            raise CliError(f"spec file {name} disagree with deterministic rebuild")
    return spec


# ---------------------------------------------------------------------------
# commands


def cmd_action(args) -> int:
    z = _parse_point(args.z)
    if args.word:
        word = _parse_word(args.word)
    elif args.gz:
        word = fixing_word(_parse_param(args.gz, "--gz"))
    elif args.gz_lambda:
        word = fixing_word(RationalParam.from_barrier_length(Fraction(args.gz_lambda)))
    else:
        raise CliError("one of --word / --gz / --gz-lambda is required")
    tr = trace_word(z, word, record_points=False)
    _emit(
        {
            "z": _point_json(z),
            "word_digits": list(word.digits()),
            "final": _point_json(tr.final),
            "final_str": str(tr.final),
            "action": list(tr.action.m.entries()),
            "action_str": str(tr.action),
            "is_identity": tr.action.is_identity,
            "fixes_beta": tr.action.fixes_beta,
            "orbit_length": word.step_count,
        },
        args.output,
    )
    return 0


def cmd_build(args) -> int:
    # both rule flags are parsed, so a malformed one fails whichever builder runs
    nk, d_choices = _parse_rule(args.nk), _parse_rule(args.d_choices)
    if args.z_rational:
        param = _parse_param(args.z_rational, "--z-rational")
        spec = direction_stream(param, nk)
    elif args.lam:
        lam = parse_scalar(args.lam)
        if lam.is_rational:
            param = RationalParam.from_barrier_length(lam.as_fraction())
            spec = direction_stream(param, nk)
        else:
            spec = direction_stream_irrational(lam, d_choices, budget=args.budget)
    else:
        raise CliError("one of --lambda / --z-rational is required")
    _emit(spec_to_dict(spec, args.blocks), args.output)
    return 0


def cmd_verify(args) -> int:
    spec = load_spec(args.spec)
    report = verify(spec, args.horizon, precision_bits=args.precision)
    _emit(report.as_dict(), args.output)
    return 0 if report.overall else 1


def cmd_dimension(args) -> int:
    block = tuple(int(v) for v in args.block.split(","))
    prog = args.prog.split(",")
    if len(prog) != 2:
        raise CliError(f"--prog expects b,c got {args.prog!r}")
    b, c = (int(v) for v in prog)
    problem = DimensionProblem(block, b, c)
    cert = dimension_certificate(
        problem, u_direct_cap=args.u_cap, u_numeric=args.u_numeric
    )
    _emit(cert.as_dict(), args.output)
    return 0 if cert.exceeds_target else 1


def cmd_simulate(args) -> int:
    if args.spec:
        spec = load_spec(args.spec)
        slope = slope_from_spec(spec, precision_bits=args.precision)
        model = build_surface(spec.z0)
    elif args.slope and args.z:
        slope = Fraction(args.slope)
        model = build_surface(_parse_point(args.z))
    else:
        raise CliError("need a spec file, or --slope together with --z")
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
    summary = stats.summary()
    summary["precision_bits"] = args.precision
    summary["deck_rule"] = model.validation.as_dict()
    _emit(summary)
    return 0 if not stats.terminated_early else 1


def cmd_billiard(args) -> int:
    lam = parse_scalar(args.lam)
    if args.vx is not None and args.vy is not None:
        vx, vy = Fraction(args.vx), Fraction(args.vy)
    elif args.theta_deg is not None:
        import math as _m

        theta = _m.radians(args.theta_deg)
        vx = Fraction(_m.cos(theta)).limit_denominator(10**12)
        vy = Fraction(_m.sin(theta)).limit_denominator(10**12)
    else:
        raise CliError("need --vx/--vy or --theta-deg")
    b = BilliardState(Fraction(args.x), Fraction(args.y), vx, vy)
    lam_frac = lam.as_fraction() if lam.is_rational else lam
    state, direction = billiard_to_cover(b, lam_frac)
    back = cover_to_billiard(state, direction)
    _emit(
        {
            "billiard": {"x": str(b.x), "y": str(b.y), "vx": str(b.vx), "vy": str(b.vy)},
            "cover": {
                "sheet": state.sheet,
                "x": str(state.x),
                "y": str(state.y),
                "deck": state.deck,
                "direction": [str(direction[0]), str(direction[1])],
            },
            "round_trip": {
                "x": str(back.x),
                "y": str(back.y),
                "vx": str(back.vx),
                "vy": str(back.vy),
            },
            "round_trip_identical": (
                back.x == b.x and back.y == b.y and back.vx == b.vx and back.vy == b.vy
            ),
        },
        args.output,
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="slittori", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("action", help="trace a word at a point")
    pa.add_argument("--z", required=True, help="point as x,y")
    pa.add_argument("--word", help="word as h+:5,h-:1,...")
    pa.add_argument("--gz", help="fixing word of r,s,q")
    pa.add_argument("--gz-lambda", dest="gz_lambda", help="fixing word of lambda=p/q")
    pa.add_argument("-o", "--output")
    pa.set_defaults(func=cmd_action)

    pb = sub.add_parser("build", help="build a direction spec")
    pb.add_argument("--lambda", dest="lam", help="barrier ratio: p/q or u:v:w:D")
    pb.add_argument("--z-rational", dest="z_rational", help="parameter as r,s,q")
    pb.add_argument("--nk", default="const:1", help="free digits: const:M | arith:B,C | list:...")
    pb.add_argument("--d-choices", dest="d_choices", default="default")
    pb.add_argument("--blocks", type=_positive_int, default=3)
    pb.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    pb.add_argument("-o", "--output")
    pb.set_defaults(func=cmd_build)

    pv = sub.add_parser("verify", help="verify criterion hypotheses")
    pv.add_argument("spec")
    pv.add_argument("--horizon", type=int, default=3)
    pv.add_argument("--precision", type=_nonnegative_int, default=DEFAULT_PRECISION_BITS)
    pv.add_argument("-o", "--output")
    pv.set_defaults(func=cmd_verify)

    pd = sub.add_parser("dimension", help="dimension lower-bound certificate")
    pd.add_argument("--block", required=True, help="digits, e.g. 1,1,1")
    pd.add_argument("--prog", default="1,0", help="progression b,c")
    pd.add_argument("--u-cap", dest="u_cap", type=_nonnegative_int, default=10**4)
    pd.add_argument("--u-numeric", dest="u_numeric", type=int, default=10**6)
    pd.add_argument("-o", "--output")
    pd.set_defaults(func=cmd_dimension)

    ps = sub.add_parser("simulate", help="flow statistics")
    ps.add_argument("spec", nargs="?")
    ps.add_argument("--slope", help="rational slope p/q (with --z)")
    ps.add_argument("--z", help="surface parameter x,y (with --slope)")
    ps.add_argument("--T", default="1e6")
    ps.add_argument("--grid", type=int, default=8)
    ps.add_argument("--deck", type=int, default=16)
    ps.add_argument("--precision", type=_nonnegative_int, default=32)
    ps.add_argument("--start", help="sheet,x,y,deck")
    ps.add_argument("--dump-events", dest="dump_events", help="event-point CSV path")
    ps.add_argument("-o", "--output", help="stats CSV path")
    ps.set_defaults(func=cmd_simulate)

    pq = sub.add_parser("billiard", help="billiard <-> cover correspondence")
    pq.add_argument("--lambda", dest="lam", required=True)
    pq.add_argument("--x", required=True)
    pq.add_argument("--y", required=True)
    pq.add_argument("--vx")
    pq.add_argument("--vy")
    pq.add_argument("--theta-deg", dest="theta_deg", type=float)
    pq.add_argument("-o", "--output")
    pq.set_defaults(func=cmd_billiard)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        return _fail(str(exc), 2)
    except (ValueError, ZeroDivisionError, OSError, RuntimeError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}", 2)


if __name__ == "__main__":
    sys.exit(main())
