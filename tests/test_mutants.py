"""The mutation catalogue of ``tests/mutants.py`` stays applicable: every
entry's old text occurs exactly once in its file, an entry listed as
equivalent among them, and every test it names is a test function of the
file it names.  Nothing is mutated or run here; ``python tests/mutants.py``
runs the catalogue itself."""

import ast

from mutants import CATALOGUE, ROOT


def test_catalogue_matches_the_source_and_the_tests():
    assert len({m.name for m in CATALOGUE}) == len(CATALOGUE)
    functions, stale = {}, []
    for m in CATALOGUE:
        count = (ROOT / "src" / "slittori" / m.file).read_text().count(m.old)
        if count != 1:
            stale.append(f"{m.name}: old text occurs {count} times in {m.file}")
        for test in m.tests:
            path, _, name = test.partition("::")
            if path not in functions:
                tree = ast.parse((ROOT / path).read_text())
                functions[path] = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
            if name.split("[")[0] not in functions[path]:
                stale.append(f"{m.name}: {path} has no test {name}")
    assert stale == []
