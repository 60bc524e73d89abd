"""The argparse command line that ``slittori.cli`` replaced, kept as an oracle.

``build_parser()`` is the argparse tree the CLI parsed with before its
option table: the same commands, flags, types, defaults, required flags
and exclusive groups.  Its errors raise ``CliError`` with the parser's
``prog`` in front, as the CLI reported them, and ``-h`` prints argparse's
help and raises ``SystemExit(0)``.  ``tests/test_cli.py`` parses one
corpus with both and compares the verdicts, the parsed fields and the
error texts.
"""

import argparse
import re

from slittori.cli import (
    CliError,
    cmd_action,
    cmd_billiard,
    cmd_build,
    cmd_dimension,
    cmd_simulate,
    cmd_verify,
)
from slittori.irrational import DEFAULT_BUDGET


class _Parser(argparse.ArgumentParser):
    """Argument errors raise CliError (subparsers inherit this class).

    A value that starts with a minus sign and a digit, such as ``-3,5,7``,
    ``-1,-1,3``, ``-1/4,1/4``, ``-1:1:4:2`` or ``-3/10``, is read as an
    argument, not as an option, so it may follow its flag after a space.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d[\d,/:.-]*\Z")

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="slittori")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("action", help="trace a word at a point")
    pa.add_argument("--z", required=True, help="point as x,y")
    word = pa.add_mutually_exclusive_group(required=True)
    word.add_argument("--word", help="word as h+:5,h-:1,...")
    word.add_argument("--gz", help="fixing word of r,s,q")
    word.add_argument("--gz-lambda", dest="gz_lambda", help="fixing word of lambda=p/q")
    pa.add_argument("-o", "--output")
    pa.set_defaults(func=cmd_action)

    pb = sub.add_parser("build", help="build a direction spec")
    param = pb.add_mutually_exclusive_group(required=True)
    param.add_argument("--lambda", dest="lam", help="barrier ratio: p/q or u:v:w:D")
    param.add_argument("--z-rational", dest="z_rational", help="parameter as r,s,q")
    pb.add_argument("--nk", default="const:1", help="free digits: const:M | arith:B,C | list:...")
    pb.add_argument("--d-choices", dest="d_choices", default="default")
    pb.add_argument("--blocks", type=_positive_int, default=3)
    pb.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    pb.add_argument("-o", "--output")
    pb.set_defaults(func=cmd_build)

    pv = sub.add_parser("verify", help="verify criterion hypotheses")
    pv.add_argument("spec")
    pv.add_argument("--horizon", type=int, default=3)
    pv.add_argument("-o", "--output")
    pv.set_defaults(func=cmd_verify)

    pd = sub.add_parser("dimension", help="dimension lower-bound certificate")
    pd.add_argument("--block", required=True, help="digits, e.g. 1,1,1")
    pd.add_argument("--prog", default="1,0", help="progression b,c")
    pd.add_argument("-o", "--output")
    pd.set_defaults(func=cmd_dimension)

    ps = sub.add_parser("simulate", help="flow statistics")
    ps.add_argument("spec", nargs="?")
    ps.add_argument("--slope", help="rational slope p/q (with --z)")
    ps.add_argument("--z", help="surface parameter x,y (with --slope)")
    ps.add_argument("--T", default="1e6")
    ps.add_argument("--grid", type=int, default=8)
    ps.add_argument("--deck", type=int, default=16)
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
