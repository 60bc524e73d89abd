"""Self-tests of the benchmark: deterministic traced counts, seeded inputs,
complete wrapping, and agreement with BENCHMARK.json.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys

import pytest

import run
from tracer import DETERMINISTIC, PER_LAYER, Tracer
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))

NO_PROBES = {"interp_start_s": 0.0, "import_s": 0.0}
# The counts each workload exists to exercise; they must not read zero.
EXERCISED = {
    "rational-sweep": ("torus.steps_rational", "rational.certs", "exact.scalars_created"),
    "irrational-cli": ("torus.steps_quadratic", "irrational.search_steps",
                       "criterion.trace_steps", "directions.blocks_pulled"),
    "flow-cli": ("flow.events", "flow.events_slit", "flow.events_edge", "flow.samples"),
    "cli-short": ("dimension.solve_su_calls", "criterion.checkpoints"),
}


def _ops(name, seed, tmp_path):
    """The first round of a full-size run; building it runs nothing."""
    return [(op.kind, op.argv, op.param) for op in WORKLOADS[name](tmp_path).round(seed, 0)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    passes = []
    for _ in range(2):
        result = run.run_traced(WORKLOADS[name](tmp_path, small=True), 7, NO_PROBES)
        assert result.failures == []
        passes.append({k: result.metrics[k] for k in DETERMINISTIC})
    assert passes[0] == passes[1]
    for key in EXERCISED[name]:
        assert passes[0][key] > 0, key


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_determines_inputs(name, tmp_path):
    assert _ops(name, 7, tmp_path) == _ops(name, 7, tmp_path)
    assert _ops(name, 7, tmp_path) != _ops(name, 8, tmp_path)


def test_every_trace_word_binding_is_wrapped():
    import slittori.torus

    orig = slittori.torus.trace_word
    with Tracer():
        for modname in ("torus", "rational", "irrational", "criterion", "cli"):
            module = sys.modules[f"slittori.{modname}"]
            assert module.trace_word is not orig, modname
    assert slittori.torus.trace_word is orig
    assert sys.modules["slittori.cli"].trace_word is orig


def test_benchmark_json_names_match_the_harness():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(PER_LAYER)
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
