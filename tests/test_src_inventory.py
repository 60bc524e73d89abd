"""Every public name of ``src/`` that no package code uses has a reason to stay.

The inventory reads ``src/slittori/*.py`` with ``ast``, leaving out
``__init__.py``: the public functions and classes of each module, and the
public methods and properties of each public class.  A name counts as used
when an ``ast.Name`` or ``ast.Attribute`` node anywhere in the package
carries it.  The names nothing carries must be exactly ``KEEP``, and each
reason is checked:

* ``exported``: ``slittori/__init__.py`` imports the name;
* ``acceptance``: ``tests/test_acceptance.py`` names it;
* ``bench``: a ``bench/*.py`` file names it.

Code that only tests call fails here, so it moves into the tests or goes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "slittori"

KEEP = {
    "dimension.contraction_bound": "exported",
    "torus.m_sequence": "exported",
    "dimension.divergence_minorant": "acceptance",
    "torus.in_region_E": "acceptance",
    "torus.involution_theta": "acceptance",
    "torus.involution_minus_id": "acceptance",
    "words.check_relations": "acceptance",
    "words.GenWord.theta_conjugate": "acceptance",
    "intervals.RatInterval.certified_ge": "bench",
    "intervals.RatInterval.certified_abs_le": "bench",
    "directions.DirectionSpec.cached_blocks": "bench",
}


def _trees() -> dict:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def _public_names(trees: dict) -> dict:
    """Qualified name -> bare name of every public definition outside __init__."""
    names = {}
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                names[f"{module}.{node.name}"] = node.name
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                            names[f"{module}.{node.name}.{item.name}"] = item.name
    return names


def _used_names(trees: dict) -> set:
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _mentions(path: Path) -> set:
    """Every identifier, attribute and imported name in a Python file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_uncalled_names_are_exactly_the_kept_ones():
    trees = _trees()
    used = _used_names(trees)
    uncalled = {q for q, name in _public_names(trees).items() if name not in used}
    assert uncalled == set(KEEP)


def test_each_kept_name_has_its_reason():
    exported = {a.name for node in ast.walk(_trees()["__init__"])
                if isinstance(node, ast.ImportFrom) for a in node.names}
    acceptance = _mentions(ROOT / "tests" / "test_acceptance.py")
    bench = set().union(*(_mentions(p) for p in sorted((ROOT / "bench").glob("*.py"))))
    # bench/tracer.py names most of its targets in string tables
    bench |= {c.value for p in sorted((ROOT / "bench").glob("*.py"))
              for c in ast.walk(ast.parse(p.read_text()))
              if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    sources = {"exported": exported, "acceptance": acceptance, "bench": bench}
    for qualified, reason in KEEP.items():
        assert qualified.rsplit(".", 1)[1] in sources[reason], (qualified, reason)
