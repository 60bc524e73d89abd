"""The names ``bench/tracer.py`` wraps must exist in the package.

The tracer reads ``cls.__dict__[meth]`` for each ``METHOD_SPANS`` entry, so
a deleted or inherited method raises ``KeyError`` and breaks every traced
run, while a missing ``FUNCTION_SPANS`` function is only skipped with a
warning and its counters read 0.  The tables are read from the source with
``ast``, without importing the tracer.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tables() -> dict:
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("FUNCTION_SPANS", "METHOD_SPANS", "INTERVAL_COMPARISONS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_tracer_targets_resolve():
    tables = _tables()
    assert set(tables) == {"FUNCTION_SPANS", "METHOD_SPANS", "INTERVAL_COMPARISONS"}
    for modname, fname in tables["FUNCTION_SPANS"]:
        assert callable(getattr(importlib.import_module(modname), fname, None)), (modname, fname)
    for modname, clsname, meth in tables["METHOD_SPANS"]:
        cls = getattr(importlib.import_module(modname), clsname)
        assert meth in vars(cls), (modname, clsname, meth)
    rat_interval = importlib.import_module("slittori.intervals").RatInterval
    for meth in tables["INTERVAL_COMPARISONS"]:
        assert meth in vars(rat_interval), meth
