"""slittori benchmark: one workload, one closed-loop client, checked outputs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are described in ``bench/workloads.py`` and ``BENCHMARK.json``.

``--trace 0`` measures end to end.  Set-up (a fresh-interpreter import of
``slittori.cli``, warming ``__pycache__`` and preparing the inputs) runs five
times and its median is ``setup_s``.  The timed loop then runs whole rounds of
ops, one after another, until the next round would end past ``--seconds``
(and at least 20 ops have run).  CLI workloads time ``python -m slittori.cli``
subprocesses with ``PYTHONPATH=src``; ``rational-sweep`` calls the library.
The benchmark and its children are pinned to one CPU, and times are scaled
to reference machine speed (see ``SpeedProbe``); the raw figures are printed
beside them.  ``ops_per_s`` is one round's ops over the sum
of each op shape's median latency, ``op_p50_s`` the median latency of all ops.

Human-readable lines go first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Work files and span
dumps go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import io
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
from array import array
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS, Op, Workload  # noqa: E402

SETUP_REPEATS = 5
MIN_OPS = 20
PROBE_INTERVAL_S = 0.1
# reference_time() on an idle core of a 2-vCPU x86-64 machine, CPython 3.11
REFERENCE_S = 1.35e-3
LATENCY_CAPACITY = 1_000_000
OP_TIMEOUT_S = 120.0
PROBE_REPEATS = 3
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10
# The end-to-end metrics in the result line.  The others are printed only:
# wall_s is set by --seconds; error_rate is 0 on a correct run (its counts are
# the result line's "attempted" and "failed"); op_tail_s did not repeat within
# a tenth on sub-millisecond certificates, and on the CLI workloads a run has
# too few ops for any percentile above p50.
END_TO_END = ("setup_s", "ops_per_s", "op_p50_s", "peak_rss_mb")
# ROADMAP baseline figures, printed beside the measured ones as a sanity check.
BASELINE = {"import_s": 0.26, "events_per_s": 24000.0, "dimension_divergence_s": 1.3}
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import slittori.cli; "
    "print(time.perf_counter() - t)"
)


def say(line: str = "") -> None:
    print(line, flush=True)


def run_child(args: list[str]) -> tuple[int, str, str, float]:
    """Run ``python <args>`` in ``WORK`` with ``PYTHONPATH=src``.

    Returns (exit code, stdout, stderr, peak RSS in MB).  Output goes through
    files, so a large stdout cannot block the child.  A watchdog kills a child
    that outlives ``OP_TIMEOUT_S``.
    """
    out_path, err_path = WORK / f".child-{os.getpid()}.out", WORK / f".child-{os.getpid()}.err"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with open(out_path, "w") as out_fh, open(err_path, "w") as err_fh:
        proc = subprocess.Popen([sys.executable, *args], stdout=out_fh, stderr=err_fh,
                                stdin=subprocess.DEVNULL, cwd=WORK, env=env)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: do not leave the child running
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text(), err_path.read_text(),
            usage.ru_maxrss / 1024.0)


def run_cli_subprocess(argv: list[str]) -> tuple[int, str, str, float]:
    return run_child(["-m", "slittori.cli", *argv])


def run_cli_inprocess(argv: list[str]) -> tuple[int, str, str]:
    import slittori.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def run_library_op(op: Op) -> str | None:
    # looked up on the module at call time, so the traced run sees its wrapper
    import slittori.rational as rational

    return op.check(rational.certify_fixing(rational.RationalParam(*op.param)))


def percentile(sorted_values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def tail(sorted_values: list[float]) -> tuple[float, int, float] | None:
    """The highest ladder percentile that leaves at least ten samples beyond it."""
    best = None
    for p in TAIL_LADDER:
        value, beyond = percentile(sorted_values, p)
        if beyond >= TAIL_MIN_BEYOND:
            best = (p, beyond, value)
    return best


def reference_time() -> float:
    """Seconds for a fixed pure-Python computation that never touches slittori.

    It does Fraction and integer arithmetic, as slittori does, and probes how
    fast this machine runs Python at the moment.  ``REFERENCE_S`` over its
    result is the machine's speed, relative to an idle core.
    """
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i % 7 + 1, i % 13 + 2)
        if acc > 100:
            acc *= Fraction(3, 4)
    x = 0
    for i in range(10000):
        x = (x * 31 + i) % 1000003
    return perf_counter() - t0


class SpeedProbe:
    """Machine speed, probed with ``reference_time`` between timed pieces of work.

    A piece of work that ran between two probes is scaled by the mean of the
    speeds they read, so that every reported time is "at reference speed".
    Other tenants of a shared machine change its speed by up to 2x from one
    minute to the next; the scaling removes most of that from run-to-run
    spreads, and raw figures are printed beside the scaled ones.
    """

    def __init__(self):
        self.speeds: list[float] = []
        self.at: list[int] = []  # index of the first piece timed after each probe
        self.last = -PROBE_INTERVAL_S

    def probe(self, index: int, force: bool = False) -> None:
        if force or perf_counter() - self.last >= PROBE_INTERVAL_S:
            self.speeds.append(REFERENCE_S / min(reference_time(), reference_time()))
            self.at.append(index)
            self.last = perf_counter()

    def scaled(self, times) -> list[float]:
        """``times[i] * speed`` for the pieces indexed 0 .. len(times) - 1."""
        out = []
        bounds = self.at[1:] + [len(times)]
        for k, (first, end) in enumerate(zip(self.at, bounds)):
            speed = (self.speeds[k] + self.speeds[min(k + 1, len(self.speeds) - 1)]) / 2
            out.extend(t * speed for t in times[first:end])
        return out


# ---------------------------------------------------------------------------
# environment


def git_commit() -> str:
    """The commit of a git checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def loadavg() -> str:
    return " ".join(f"{v:.2f}" for v in os.getloadavg())


# ---------------------------------------------------------------------------
# set-up


def setup(workload: Workload, seed: int, rounds: int) -> tuple[float, float, list[list[Op]]]:
    """Run set-up ``SETUP_REPEATS`` times.

    Returns the median set-up time at reference speed, the raw median, and
    the first ``rounds`` rounds of the workload.
    """
    plan: list[list[Op]] = []
    speed = SpeedProbe()
    times = []
    for repeat in range(SETUP_REPEATS):
        speed.probe(repeat, force=True)
        t0 = perf_counter()
        compileall.compile_dir(str(SRC / "slittori"), quiet=1)
        rc, _, err, _ = run_child(["-c", "import slittori.cli"])
        if rc != 0:
            raise RuntimeError(f"importing slittori.cli failed: {err.strip()[-300:]}")
        workload.prepare(lambda argv: run_cli_subprocess(argv)[:3])
        if workload.in_process:
            import slittori.rational  # noqa: F401
        plan = [workload.round(seed, i) for i in range(rounds)]
        times.append(perf_counter() - t0)
    speed.probe(SETUP_REPEATS, force=True)
    return statistics.median(speed.scaled(times)), statistics.median(times), plan


# ---------------------------------------------------------------------------
# end-to-end run


class Samples(NamedTuple):
    ops: list[Op]  # CLI ops in the order run; empty for in-process workloads
    latencies: array  # seconds, one per op
    scaled: list[float]  # the latencies at reference speed
    rounds: list[tuple[int, int]]  # (first op, end op)
    peak_rss_mb: float
    failures: list[str]
    wall_s: float


def measure(workload: Workload, plan: list[list[Op]], seconds: float) -> Samples:
    """Closed loop over whole rounds, until the next round would end past
    ``seconds`` and at least ``MIN_OPS`` ops have run.

    In-process latencies go into storage allocated up front, so the peak RSS
    of the benchmark process does not grow with the number of ops run.
    """
    import resource

    ops_run: list[Op] = []
    latencies = array("d", bytes(8 * LATENCY_CAPACITY if workload.in_process else 0))
    speed = SpeedProbe()
    child_rss = [0.0]
    rounds: list[tuple[int, int]] = []
    failures: list[str] = []
    n = 0
    t0 = perf_counter()
    while True:
        first = n
        for op in plan[len(rounds) % len(plan)]:
            speed.probe(n)
            start = perf_counter()
            if workload.in_process:
                try:
                    reason = run_library_op(op)
                except Exception as exc:  # a crash is a failed op, not a stop
                    reason = f"{type(exc).__name__}: {exc}"
                latency = perf_counter() - start
            else:
                rc, stdout, stderr, rss = run_cli_subprocess(op.argv)
                latency = perf_counter() - start
                child_rss.append(rss)
                ops_run.append(op)
                reason = op.check(rc, stdout, stderr)
            if n < len(latencies):
                latencies[n] = latency
            else:
                latencies.append(latency)
            n += 1
            if reason:
                failures.append(f"{op.kind} {op.argv or op.param}: {reason}")
        rounds.append((first, n))
        elapsed = perf_counter() - t0
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds and n >= MIN_OPS:
            break
    if workload.in_process:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        peak = max(child_rss)
    speed.probe(n, force=True)
    latencies = latencies[:n]
    return Samples(ops_run, latencies, speed.scaled(latencies), rounds, peak, failures, elapsed)


def round_rate(run: Samples, plan: list[list[Op]]) -> float:
    """Ops per second of one round, each op taking its shape's median scaled latency.

    Every round runs the same op shapes, so this is the closed loop's
    throughput with the slow outliers of each shape set aside.
    """
    by_shape: dict[str, list[float]] = {}
    for i, (first, end) in enumerate(run.rounds):
        for op, lat in zip(plan[i % len(plan)], run.scaled[first:end]):
            by_shape.setdefault(op.shape, []).append(lat)
    mix = [statistics.median(by_shape[op.shape]) for op in plan[0]]
    return len(mix) / sum(mix)


def end_to_end(workload: Workload, seed: int, seconds: float) -> int:
    setup_s, setup_raw, plan = setup(workload, seed, 64 if workload.in_process else 8)
    run = measure(workload, plan, seconds)
    raw = sorted(run.latencies)
    scaled = sorted(run.scaled)
    attempted, failed = len(raw), len(run.failures)
    rss_note = "benchmark process" if workload.in_process else "largest child"
    tail_p, tail_beyond, tail_s = tail(scaled)

    say(f"workload {workload.name}: op = one {workload.op_unit}; closed loop, 1 client; "
        f"{len(run.rounds)} rounds of {len(plan[0])} ops; times at reference speed")
    rows = [
        ("setup_s", setup_s, "s", f"median of {SETUP_REPEATS} set-ups; raw {setup_raw:.4g} s"),
        ("wall_s", run.wall_s, "s", "timed loop, raw"),
        ("ops_per_s", round_rate(run, plan), "op/s",
         f"shape medians; raw, all ops: {attempted / run.wall_s:.4g} op/s"),
        ("op_p50_s", statistics.median(scaled), "s",
         f"n = {attempted}; raw {statistics.median(raw):.4g} s"),
        ("op_tail_s", tail_s, "s", f"p{tail_p:g}, {tail_beyond} samples beyond"),
        ("error_rate", failed / attempted, "ratio", f"{failed} failed / {attempted} attempted"),
        ("peak_rss_mb", run.peak_rss_mb, "MB", rss_note),
    ]
    for name, value, unit, note in rows:
        say(f"  {name:<12} {value:>14.6g} {unit:<6} ({note})")
    by_kind: dict[str, list[float]] = {}
    for op, lat in zip(run.ops, run.latencies):
        by_kind.setdefault(op.kind, []).append(lat)
    if len(by_kind) > 1:
        for kind, lats in sorted(by_kind.items()):
            say(f"  kind {kind:<22} n = {len(lats):<4} raw p50 = {statistics.median(lats):.4f} s")
    if "dimension-divergence" in by_kind:
        crosscheck("dimension divergence op, raw",
                   statistics.median(by_kind["dimension-divergence"]),
                   BASELINE["dimension_divergence_s"], "s")
    for line in run.failures[:10]:
        sys.stderr.write(f"FAILED {line}\n")

    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _ in rows if name in END_TO_END}
    return finish(failed == 0, attempted, failed, metrics)


# ---------------------------------------------------------------------------
# traced run


def replay(workload: Workload, ops: list[Op], tracer=None) -> tuple[float, list[str]]:
    failures = []
    t0 = perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        try:
            if workload.in_process:
                reason = run_library_op(op)
            else:
                reason = op.check(*run_cli_inprocess(op.argv))
        except Exception as exc:  # a crash is a failed op, not a stop
            reason = f"{type(exc).__name__}: {exc}"
        if reason:
            failures.append(f"{op.kind} {op.argv or op.param}: {reason}")
    return perf_counter() - t0, failures


class TracedRun(NamedTuple):
    metrics: dict
    tracer: object
    ops: int
    failures: list[str]
    untraced_s: float
    traced_s: float


def run_traced(workload: Workload, seed: int, probes: dict | None = None) -> TracedRun:
    """Replay the traced op list untraced, then traced, in-process.

    ``probes`` supplies the interpreter-start and import times; they are
    measured in fresh interpreters when omitted.
    """
    from tracer import Tracer

    workload.prepare(run_cli_inprocess)
    ops = [op for i in range(workload.trace_rounds) for op in workload.round(seed, i)]
    untraced_s, failures = replay(workload, ops)
    with Tracer() as tracer:
        traced_s, traced_failures = replay(workload, ops, tracer)
    if probes is None:
        probes = cli_probes()
    metrics = tracer.metrics(probes, traced_s - untraced_s, untraced_s)
    return TracedRun(metrics, tracer, len(ops), failures + traced_failures,
                     untraced_s, traced_s)


def cli_probes() -> dict:
    """Median wall time of ``python -c pass`` and median in-child import time."""
    starts, imports = [], []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        run_child(["-c", "pass"])
        starts.append(perf_counter() - t0)
        rc, out, err, _ = run_child(["-c", IMPORT_PROBE])
        if rc != 0:
            raise RuntimeError(f"import probe failed: {err.strip()[-300:]}")
        imports.append(float(out.strip()))
    return {"interp_start_s": statistics.median(starts), "import_s": statistics.median(imports)}


def traced(workload: Workload, seed: int) -> int:
    from tracer import PER_LAYER

    compileall.compile_dir(str(SRC / "slittori"), quiet=1)
    run = run_traced(workload, seed)
    metrics, tracer, failures = run.metrics, run.tracer, run.failures
    spans_path = WORK / "trace" / f"{workload.name}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)

    say(f"workload {workload.name}: {run.ops} ops replayed in-process, untraced then traced")
    say(f"  untraced {run.untraced_s:.4f} s, traced {run.traced_s:.4f} s, "
        f"{len(tracer.spans)} spans -> {spans_path.relative_to(ROOT)}")
    wrapped = sorted(tracer.bindings.items())
    say("  bindings wrapped: " + ", ".join(f"{name} x{sites}" for name, sites in wrapped))
    units = dict(PER_LAYER)
    for name, _ in PER_LAYER:
        say(f"  {name:<28} {metrics[name]:>14.6g} {units[name]}")
    crosscheck("import slittori.cli", metrics["cli.import_s"], BASELINE["import_s"], "s")
    if metrics["flow.events"]:
        crosscheck("simulate events/s (traced, counting sink)", metrics["flow.events_per_s"],
                   BASELINE["events_per_s"], "1/s")
    for line in failures[:10]:
        sys.stderr.write(f"FAILED {line}\n")

    result = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER}
    return finish(not failures, 2 * run.ops, len(failures), result)


# ---------------------------------------------------------------------------


def crosscheck(what: str, measured: float, baseline: float, unit: str) -> None:
    ratio = measured / baseline
    flag = "" if 1 / 3 <= ratio <= 3 else "  <-- far from the baseline, check the harness"
    say(f"  crosscheck {what}: {measured:.4g} {unit} vs ROADMAP baseline {baseline:g} {unit} "
        f"(x{ratio:.2f}, not gating){flag}")


def finish(correct: bool, attempted: int, failed: int, metrics: dict) -> int:
    say(f"  loadavg at end: {loadavg()}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds through run_child, which stops its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "slittori" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no slittori sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](WORK / args.workload)

    say(f"slittori benchmark: workload {args.workload}, seed {args.seed}, "
        f"seconds {args.seconds:g}, trace {args.trace}")
    say("  environment: " + json.dumps(environment()) + f"; loadavg at start: {loadavg()}")
    # One CPU for this process and its children: the speed probe then reads
    # the CPU the measured work runs on, since co-tenants load CPUs unevenly.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    say(f"  pinned to CPU {cpu}")
    if args.trace:
        return traced(workload, args.seed)
    return end_to_end(workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
