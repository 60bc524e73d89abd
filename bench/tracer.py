"""Outside-in tracing of the slittori layers for the traced benchmark run.

The tracer never edits the library.  It wraps public functions and methods
at every place they are bound -- ``trace_word`` is imported by name into
``criterion``, ``rational``, ``irrational`` and ``cli``, so wrapping only
``slittori.torus.trace_word`` would miss most calls -- and restores the
originals on exit.

Each wrapped call records a span ``[name, start, end, parent, op,
outermost]`` in memory; ``outermost`` is true when no span of the same
layer encloses it.  Counters are kept at the same boundaries.  Self time of
a span is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (module, function) pairs wrapped in a span at every binding.
FUNCTION_SPANS = (
    ("slittori.torus", "trace_word"),
    ("slittori.rational", "certify_fixing"),
    ("slittori.rational", "solve_congruences"),
    ("slittori.irrational", "find_block"),
    ("slittori.criterion", "verify"),
    ("slittori.dimension", "dimension_certificate"),
    ("slittori.dimension", "solve_su"),
    ("slittori.flow", "build_surface"),
    ("slittori.flow", "simulate"),
    ("slittori.cli", "load_spec"),
    ("slittori.cli", "main"),
)
# (module, class, method) triples wrapped in a span.
METHOD_SPANS = (
    ("slittori.words", "GenWord", "from_digits"),
    ("slittori.words", "GenWord", "matrix"),
    ("slittori.words", "Convergents", "extend"),
    ("slittori.directions", "DirectionSpec", "alpha_enclosure"),
)
INTERVAL_COMPARISONS = ("certified_le", "certified_ge", "certified_abs_le")
EDGE_EVENTS = ("right_edge", "top_edge", "corner")

# Per-layer metric names and units, in report order.
PER_LAYER = (
    ("exact.scalars_created", "count"),
    ("words.busy_s", "s"),
    ("torus.trace_calls", "count"),
    ("torus.steps_rational", "count"),
    ("torus.steps_quadratic", "count"),
    ("torus.busy_s", "s"),
    ("torus.steps_per_s", "1/s"),
    ("rational.certs", "count"),
    ("rational.self_s", "s"),
    ("rational.congruence_s", "s"),
    ("irrational.blocks", "count"),
    ("irrational.search_steps", "count"),
    ("irrational.self_s", "s"),
    ("irrational.blocks_per_s", "1/s"),
    ("directions.blocks_pulled", "count"),
    ("directions.blocks_needed", "count"),
    ("directions.pull_ratio", "ratio"),
    ("directions.enclosure_s", "s"),
    ("intervals.comparisons", "count"),
    ("intervals.inconclusive", "count"),
    ("criterion.checkpoints", "count"),
    ("criterion.trace_steps", "count"),
    ("criterion.self_s", "s"),
    ("criterion.checkpoints_per_s", "1/s"),
    ("dimension.busy_s", "s"),
    ("dimension.solve_su_s", "s"),
    ("dimension.solve_su_calls", "count"),
    ("flow.events", "count"),
    ("flow.events_slit", "count"),
    ("flow.events_edge", "count"),
    ("flow.samples", "count"),
    ("flow.busy_s", "s"),
    ("flow.events_per_s", "1/s"),
    ("flow.surface_s", "s"),
    ("cli.interp_start_s", "s"),
    ("cli.import_s", "s"),
    ("cli.spec_load_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)
# Counts that depend only on the op list, never on timing.
DETERMINISTIC = tuple(
    name for name, unit in PER_LAYER if unit == "count" and not name.startswith("cli.")
)


class EventCounter:
    """An ``event_log`` sink for ``simulate`` that counts events by kind,
    forwarding each line to ``forward`` when one was requested."""

    def __init__(self, counts: Counter, forward=None):
        self.counts = counts
        self.forward = forward

    def write(self, line: str) -> None:
        kind = line.split(",", 2)[1]
        self.counts["flow.events"] += 1
        if kind == "slit":
            self.counts["flow.events_slit"] += 1
        elif kind in EDGE_EVENTS:
            self.counts["flow.events_edge"] += 1
        if self.forward is not None:
            self.forward.write(line)


class Tracer:
    """Install with ``with Tracer() as t:``; set ``t.op`` before each op."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.bindings: dict[str, int] = {}
        self._stack: list[int] = []
        self._open_layers: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, kwargs, result)`` runs on return."""
        spans, stack, open_layers = self.spans, self._stack, self._open_layers
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   open_layers[layer] == 0]
            stack.append(len(spans))
            spans.append(rec)
            open_layers[layer] += 1
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                open_layers[layer] -= 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _bind_everywhere(self, name: str, orig, repl) -> None:
        """Replace every binding of ``orig`` in the loaded slittori modules."""
        sites = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "slittori" or modname.startswith("slittori.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, repl)
                    sites += 1
        self.bindings[name] = sites

    def install(self) -> None:
        import slittori.cli  # noqa: F401  -- loads every module that binds a target
        from slittori.exact import ExactScalar
        from slittori.intervals import InconclusiveIntervalError, RatInterval

        hooks = {
            "torus.trace_word": self._after_trace,
            "irrational.find_block": self._after_block,
            "criterion.verify": self._after_verify,
            "dimension.solve_su": self._count("dimension.solve_su_calls"),
        }
        for modname, fname in FUNCTION_SPANS:
            mod = sys.modules[modname]
            if not hasattr(mod, fname):
                sys.stderr.write(f"tracer: {modname}.{fname} not found, not traced\n")
                continue
            orig = getattr(mod, fname)
            name = f"{modname.split('.')[1]}.{fname}"
            fn = self._with_event_counter(orig) if name == "flow.simulate" else orig
            self._bind_everywhere(name, orig, self.span(name, fn, hooks.get(name)))

        for modname, clsname, meth in METHOD_SPANS:
            cls = getattr(sys.modules[modname], clsname)
            raw = cls.__dict__[meth]
            name = f"{modname.split('.')[1]}.{meth}"
            if isinstance(raw, classmethod):
                self._set(cls, meth, classmethod(self.span(name, raw.__func__)))
            else:
                self._set(cls, meth, self.span(name, raw))

        counts = self.counts
        orig_init = ExactScalar.__init__

        def counted_init(obj, *args, **kwargs):
            counts["exact.scalars_created"] += 1
            orig_init(obj, *args, **kwargs)

        self._set(ExactScalar, "__init__", counted_init)

        depth = [0]

        def comparison(fn):
            def compare(*args, **kwargs):
                outermost = depth[0] == 0
                if outermost:
                    counts["intervals.comparisons"] += 1
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                except InconclusiveIntervalError:
                    if outermost:
                        counts["intervals.inconclusive"] += 1
                    raise
                finally:
                    depth[0] -= 1

            return compare

        for meth in INTERVAL_COMPARISONS:
            self._set(RatInterval, meth, comparison(RatInterval.__dict__[meth]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- counting hooks ------------------------------------------------

    def _count(self, key: str):
        def hook(args, kwargs, result):
            self.counts[key] += 1

        return hook

    def _after_trace(self, args, kwargs, result) -> None:
        z, word = args[0], args[1]
        steps = word.step_count
        self.counts["torus.steps_rational" if z.is_rational else "torus.steps_quadratic"] += steps
        if self._open_layers["criterion"]:
            self.counts["criterion.trace_steps"] += steps

    def _after_block(self, args, kwargs, blk) -> None:
        self.counts["irrational.search_steps"] += blk.a + blk.b + blk.c + blk.d

    def _after_verify(self, args, kwargs, report) -> None:
        spec = args[0]
        horizon = args[1] if len(args) > 1 else kwargs["horizon"]
        self.counts["criterion.checkpoints"] += len(report.records)
        self.counts["directions.blocks_pulled"] += spec.cached_blocks
        self.counts["directions.blocks_needed"] += horizon + 1

    def _with_event_counter(self, simulate):
        counts = self.counts

        def counted(*args, event_log=None, **kwargs):
            stats = simulate(*args, event_log=EventCounter(counts, event_log), **kwargs)
            counts["flow.samples"] += stats.samples
            return stats

        return counted

    # -- results -------------------------------------------------------

    def span_times(self) -> tuple[dict, dict, dict, Counter]:
        """Per span name: total time, self time, outermost-in-layer time, calls."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _outer in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, self_t, outer = defaultdict(float), defaultdict(float), defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _parent, _op, outermost) in enumerate(self.spans):
            dur = end - start
            total[name] += dur
            self_t[name] += dur - child[i]
            calls[name] += 1
            if outermost:
                outer[name] += dur
        return total, self_t, outer, calls

    def metrics(self, probes: dict, overhead_s: float, untraced_s: float) -> dict:
        total, self_t, outer, calls = self.span_times()
        c = self.counts

        def rate(n, t):
            return n / t if t > 0 else 0.0

        def layer_busy(layer):
            return sum(v for k, v in outer.items() if k.startswith(layer + "."))

        steps = c["torus.steps_rational"] + c["torus.steps_quadratic"]
        m = {
            "exact.scalars_created": c["exact.scalars_created"],
            "words.busy_s": layer_busy("words"),
            "torus.trace_calls": calls["torus.trace_word"],
            "torus.steps_rational": c["torus.steps_rational"],
            "torus.steps_quadratic": c["torus.steps_quadratic"],
            "torus.busy_s": total["torus.trace_word"],
            "torus.steps_per_s": rate(steps, total["torus.trace_word"]),
            "rational.certs": calls["rational.certify_fixing"],
            "rational.self_s": self_t["rational.certify_fixing"],
            "rational.congruence_s": total["rational.solve_congruences"],
            "irrational.blocks": calls["irrational.find_block"],
            "irrational.search_steps": c["irrational.search_steps"],
            "irrational.self_s": self_t["irrational.find_block"],
            "irrational.blocks_per_s": rate(
                calls["irrational.find_block"], total["irrational.find_block"]
            ),
            "directions.blocks_pulled": c["directions.blocks_pulled"],
            "directions.blocks_needed": c["directions.blocks_needed"],
            "directions.pull_ratio": rate(
                c["directions.blocks_needed"], c["directions.blocks_pulled"]
            ),
            "directions.enclosure_s": total["directions.alpha_enclosure"],
            "intervals.comparisons": c["intervals.comparisons"],
            "intervals.inconclusive": c["intervals.inconclusive"],
            "criterion.checkpoints": c["criterion.checkpoints"],
            "criterion.trace_steps": c["criterion.trace_steps"],
            "criterion.self_s": self_t["criterion.verify"],
            "criterion.checkpoints_per_s": rate(
                c["criterion.checkpoints"], total["criterion.verify"]
            ),
            "dimension.busy_s": layer_busy("dimension"),
            "dimension.solve_su_s": total["dimension.solve_su"],
            "dimension.solve_su_calls": c["dimension.solve_su_calls"],
            "flow.events": c["flow.events"],
            "flow.events_slit": c["flow.events_slit"],
            "flow.events_edge": c["flow.events_edge"],
            "flow.samples": c["flow.samples"],
            "flow.busy_s": layer_busy("flow"),
            "flow.events_per_s": rate(c["flow.events"], total["flow.simulate"]),
            "flow.surface_s": total["flow.build_surface"],
            "cli.interp_start_s": probes["interp_start_s"],
            "cli.import_s": probes["import_s"],
            "cli.spec_load_s": total["cli.load_spec"],
            "cli.self_s": self_t["cli.main"],
            "trace.overhead_s": overhead_s,
            "trace.overhead_ratio": rate(overhead_s, untraced_s),
        }
        return m

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, _outer) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
