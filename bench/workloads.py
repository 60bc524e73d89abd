"""The benchmark's four workloads: seeded op lists and semantic output checks.

Every workload is a closed loop of rounds.  A round is a list of ops whose
mix is fixed by the workload; the seed picks the concrete inputs inside
that mix (parameters, start states, billiard states) and the order.  Keeping
the mix fixed is what makes runs with different seeds comparable.

An op either calls the library in-process (``rational-sweep``) or runs one
``slittori`` command line (the three CLI workloads).  Each op carries a
check that reads the program's output semantically -- verdicts, counts and
named fields, never a byte hash -- and returns ``None`` when the output is
right or a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable

# Sample spacing of ``slittori simulate`` (flow.DEFAULT_SAMPLE_SPACING); the
# expected sample count of a run of length T is floor(T / spacing) + 1.
SAMPLE_SPACING = Fraction(1009, 1024)

# (lambda, J, H) rows of irrational-cli: a quadratic irrational (u + v sqrt(D))/w
# in (0, 1/2) as u:v:w:D, the d-choice index J and the verify horizon H.  Every D
# appears once; small H exposes the 2^-256 enclosure over-pull, large H the
# O(H^2) re-trace of the verifier.
IRRATIONAL_GRID = (
    ("0:1:4:2", 1, 16),  # sqrt2/4
    ("0:1:6:3", 2, 4),  # sqrt3/6
    ("-1:1:8:5", 1, 8),  # (sqrt5 - 1)/8
    ("0:1:10:6", 2, 8),  # sqrt6/10
    ("0:1:8:7", 1, 4),  # sqrt7/8
)
IRRATIONAL_GRID_SMALL = (("0:1:4:2", 1, 3), ("0:1:6:3", 2, 2))
FLOW_LAMBDAS = ("1/4", "1/6", "1/3", "3/10")
FLOW_T_BASE = 8000
# Flow starts sit on the left edge at a height with this prime denominator.
# It divides no simulated slope's denominator, so an orbit from there never
# meets a cone point (the slit endpoints have small denominators).
FLOW_START_DENOMINATOR = 1_000_003
QUARTER_BLOCK = [5, 1, 1, 7, 1, 1, 2, 1]  # B(1/4) followed by n_1 = 1
BUILD_BLOCKS = 3  # blocks written by ``slittori build`` by default

Check = Callable[[int, str, str], "str | None"]


@dataclass
class Op:
    """One operation of a round.

    ``kind`` groups ops for per-kind reporting.  ``shape`` names what sets the
    op's cost; every round of a workload holds the same shapes, and the seed
    varies only the inputs within a shape.  CLI ops carry ``argv`` (without
    the program name); library ops carry ``param``.
    """

    kind: str
    check: Check
    shape: str = ""
    argv: list[str] = field(default_factory=list)
    param: tuple[int, int, int] | None = None

    def __post_init__(self):
        self.shape = self.shape or self.kind


def _json(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def expect_json(expected_rc: int, predicate: Callable[[dict], "str | None"]) -> Check:
    """A check: exit code ``expected_rc`` and ``predicate`` passes on stdout JSON."""

    def check(rc: int, out: str, err: str) -> str | None:
        if rc != expected_rc:
            return f"exit code {rc}, expected {expected_rc}: {err.strip()[:200]}"
        doc = _json(out)
        if not isinstance(doc, dict):
            return "stdout is not a JSON object"
        return predicate(doc)

    return check


def expect_error_json(rc_expected: int) -> Check:
    """A fail-closed check: exit ``rc_expected``, a JSON ``error`` on stderr."""

    def check(rc: int, out: str, err: str) -> str | None:
        if rc != rc_expected:
            return f"exit code {rc}, expected {rc_expected}"
        lines = err.strip().splitlines()
        doc = _json(lines[-1]) if lines else None
        if not (isinstance(doc, dict) and isinstance(doc.get("error"), str)):
            return "stderr carries no JSON error"
        return None

    return check


def _verify_report_ok(horizon: int) -> Callable[[dict], "str | None"]:
    def pred(doc: dict) -> str | None:
        cps = doc.get("checkpoints", [])
        if doc.get("overall") is not True:
            return "verify overall is not true"
        if len(cps) != horizon:
            return f"{len(cps)} checkpoints for horizon {horizon}"
        if not all(cp.get("endpoint_consistent") is True for cp in cps):
            return "a checkpoint endpoint is inconsistent"
        return None

    return pred


def _spec_ok(kind: str, blocks: int, first_digits: list[int] | None = None):
    def pred(doc: dict) -> str | None:
        recs = doc.get("blocks", [])
        if doc.get("provenance", {}).get("type") != kind:
            return f"provenance type is not {kind}"
        if len(recs) != blocks:
            return f"{len(recs)} blocks, expected {blocks}"
        if any(len(b["digits"]) != 8 or min(b["digits"]) < 1 for b in recs):
            return "a block is not eight positive digits"
        if len(doc.get("digit_prefix", [])) != 8 * blocks:
            return "digit prefix length differs from the block count"
        if first_digits is not None and recs[0]["digits"] != first_digits:
            return f"first block {recs[0]['digits']}, expected {first_digits}"
        return None

    return pred


def _simulate_ok(T: int) -> Callable[[dict], "str | None"]:
    expected_samples = math.floor(Fraction(T) / SAMPLE_SPACING) + 1

    def pred(doc: dict) -> str | None:
        if doc.get("total_advance") != str(T):
            return f"total_advance {doc.get('total_advance')} != {T}"
        if doc.get("terminated_early") is not False:
            return f"terminated early: {doc.get('termination_reason')}"
        if doc.get("samples") != expected_samples:
            return f"{doc.get('samples')} samples, expected {expected_samples}"
        return None

    return pred


def _check_cert(cert) -> str | None:
    return None if cert.ok else f"fixing certificate failed: {cert}"


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A named op mix.  Why each workload exists is recorded in BENCHMARK.json."""

    name = ""
    op_unit = ""
    in_process = False
    # rounds replayed by the traced run; fixed so its counts repeat exactly
    trace_rounds = 1

    def __init__(self, work: Path, small: bool = False):
        self.work = work
        self.small = small

    def prepare(self, run_cli) -> None:
        """Set-up before the timed loop; ``run_cli(argv)`` runs a command."""
        self.work.mkdir(parents=True, exist_ok=True)

    def round(self, seed: int, index: int) -> list[Op]:
        raise NotImplementedError

    def rng(self, seed: int, index: int) -> random.Random:
        return random.Random(f"{self.name}/{seed}/{index}")


class RationalSweep(Workload):
    """``certify_fixing(RationalParam(r, s, q))`` in-process, q <= 50."""

    name = "rational-sweep"
    op_unit = "certificate"
    in_process = True
    trace_rounds = 20

    def round(self, seed: int, index: int) -> list[Op]:
        """For every q, one parameter with r = 0 and one with r != 0."""
        rng = self.rng(seed, index)
        ops = []
        for q in range(2, 13 if self.small else 51):
            units = [s for s in range(-q + 1, q) if s != 0 and gcd(s, q) == 1]
            nonzero_r = [r for r in range(-q + 1, q) if r != 0]
            for r in (0, rng.choice(nonzero_r)):
                shape = f"q={q} r{'=' if r == 0 else '!='}0"
                ops.append(Op("certify", _check_cert, shape=shape,
                              param=(r, rng.choice(units), q)))
        rng.shuffle(ops)
        return ops


class IrrationalCli(Workload):
    """``slittori build`` on a quadratic lambda, then ``slittori verify`` of it.

    Each round builds and verifies every grid row once, in seeded order.  The
    grid is fixed rather than drawn, and builds keep the CLI's default block
    count: verify time grows as H^2, and a row's cost changes by up to 4x
    with J or the block count, so drawing them would tie a run's cost to its
    seed.
    """

    name = "irrational-cli"
    op_unit = "subprocess"

    def round(self, seed: int, index: int) -> list[Op]:
        rng = self.rng(seed, index)
        grid = IRRATIONAL_GRID_SMALL if self.small else IRRATIONAL_GRID
        pairs = []
        for i, (lam, J, H) in enumerate(grid):
            path = str(self.work / f"irr{i}.json")
            build = ["build", f"--lambda={lam}", "--d-choices", f"const:{J}", "-o", path]
            pairs.append([
                Op("build", expect_json(0, _spec_ok("irrational", BUILD_BLOCKS)),
                   shape=f"build {lam} J={J}", argv=build),
                Op("verify", expect_json(0, _verify_report_ok(H)),
                   shape=f"verify {lam} J={J} H={H}", argv=["verify", path, "--horizon", str(H)]),
            ])
        rng.shuffle(pairs)
        return [op for pair in pairs for op in pair]


class FlowCli(Workload):
    """``slittori simulate`` of rational specs built in set-up.

    T is passed as an integer string because ``--T`` is parsed through float.
    """

    name = "flow-cli"
    op_unit = "subprocess"

    def spec_path(self, lam: str) -> Path:
        return self.work / f"flow_{lam.replace('/', '_')}.json"

    def prepare(self, run_cli) -> None:
        super().prepare(run_cli)
        for lam in FLOW_LAMBDAS:
            rc, out, err = run_cli(["build", "--lambda", lam, "-o", str(self.spec_path(lam))])
            reason = expect_json(0, _spec_ok("rational", BUILD_BLOCKS))(rc, out, err)
            if reason:
                raise RuntimeError(f"set-up build of lambda={lam} failed: {reason}")

    def round(self, seed: int, index: int) -> list[Op]:
        rng = self.rng(seed, index)
        ops = []
        base = 400 if self.small else FLOW_T_BASE
        for lam in FLOW_LAMBDAS:
            T = base + rng.randrange(0, base // 40)
            height = Fraction(rng.randrange(1, FLOW_START_DENOMINATOR),
                              FLOW_START_DENOMINATOR) - Fraction(1, 2)
            start = f"{rng.randrange(2)},-1/2,{height},{rng.randrange(-3, 4)}"
            ops.append(Op("simulate", expect_json(0, _simulate_ok(T)), shape=f"simulate {lam}",
                          argv=["simulate", str(self.spec_path(lam)), "--T", str(T),
                                "--start", start]))
        rng.shuffle(ops)
        return ops


class CliShort(Workload):
    """A seeded shuffle of short commands, one of each per round."""

    name = "cli-short"
    op_unit = "subprocess"

    @property
    def quarter_spec(self) -> Path:
        return self.work / "quarter.json"

    def prepare(self, run_cli) -> None:
        super().prepare(run_cli)
        rc, out, err = run_cli(["build", "--lambda", "1/4", "-o", str(self.quarter_spec)])
        reason = expect_json(0, _spec_ok("rational", BUILD_BLOCKS, QUARTER_BLOCK))(rc, out, err)
        if reason:
            raise RuntimeError(f"set-up build of lambda=1/4 failed: {reason}")

    def round(self, seed: int, index: int) -> list[Op]:
        rng = self.rng(seed, index)
        # off the barriers, which stand at integer x
        bx = rng.randrange(-50, 50) + Fraction(rng.randrange(1, 97), 97)
        by = Fraction(rng.randrange(1, 48), 97)  # 0 < y < 1/2
        vx, vy = rng.randrange(1, 9), rng.randrange(1, 9)

        def action_ok(doc):
            if doc.get("word_digits") != QUARTER_BLOCK[:7]:
                return f"B(1/4) digits {doc.get('word_digits')}"
            return None if doc.get("is_identity") is True else "action is not the identity"

        def dimension_ok(route):
            def pred(doc):
                if doc.get("route") != route:
                    return f"route {doc.get('route')}, expected {route}"
                return None if doc.get("exceeds_target") is True else "target not exceeded"
            return pred

        def billiard_ok(doc):
            return None if doc.get("round_trip_identical") is True else "round trip differs"

        horizon = 4 if self.small else 8
        ops = [
            Op("action", expect_json(0, action_ok),
               argv=["action", "--z", "0,1/4", "--gz-lambda", "1/4"]),
            Op("build", expect_json(0, _spec_ok("rational", BUILD_BLOCKS, QUARTER_BLOCK)),
               argv=["build", "--lambda", "1/4", "-o", str(self.work / "built.json")]),
            Op("verify", expect_json(0, _verify_report_ok(horizon)),
               argv=["verify", str(self.quarter_spec), "--horizon", str(horizon)]),
            Op("dimension-direct", expect_json(0, dimension_ok("direct")),
               argv=["dimension", "--block", "1,1,1"]),
            Op("billiard", expect_json(0, billiard_ok),
               argv=["billiard", "--lambda", "1/4", f"--x={bx}", f"--y={by}",
                     "--vx", str(vx), "--vy", str(vy)]),
            Op("puncture", expect_error_json(2),
               argv=["action", "--z", "0,0", "--gz-lambda", "1/4"]),
        ]
        if not self.small:
            ops.append(Op("dimension-divergence", expect_json(0, dimension_ok("divergence")),
                          argv=["dimension", "--block", "5,1,1,7,1,1,2"]))
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (RationalSweep, IrrationalCli, FlowCli, CliShort)}
