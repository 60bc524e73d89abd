"""Forged spec files fail closed.

Four spec files written by ``build``, three rational and one for the
quadratic lambda = sqrt(2)/4, are edited one structured change at a time:
a digit or an endpoint coefficient moved by one, a block dropped,
duplicated or swapped, a provenance field changed, a JSON value given
another type, or the text truncated.  Each edited file goes through
``verify --horizon 2`` in-process.  The run must either exit 2 with a
one-line JSON error and nothing on stdout, or exit 0 or 1 on a file that
loads to the original provenance and digit stream and stores only digits
of that stream.  Nothing may raise out of ``cli.main``.  The edits are drawn with a fixed seed.
"""

import json
import random

from slittori.cli import load_spec, main

SEEDS = {
    "quarter": ["--lambda", "1/4", "--nk", "const:1", "--blocks", "3"],
    "arith": ["--z-rational", "-3,5,7", "--nk", "arith:14,0", "--blocks", "2"],
    "sixth-list": ["--lambda", "1/6", "--nk", "list:1,2,3", "--blocks", "3"],
    "sqrt2-quarter": ["--lambda=0:1:4:2", "--blocks", "2"],
}
PER_KIND = 34  # of each of the six kinds of edit, about 200 files in all


def _leaves(value, path=()):
    """Every (path, value) below ``value``, containers included."""
    yield path, value
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _leaves(item, path + (key,))


def _replaced(doc, path, new):
    doc = json.loads(json.dumps(doc))
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = new
    return doc


def _retyped(value):
    """Values of another JSON type that a careless writer might store."""
    if isinstance(value, bool):
        return [int(value), str(value).lower()]
    if isinstance(value, int):
        return [float(value), str(value), [value]]
    if isinstance(value, str):
        return [[value], 0]
    if isinstance(value, list):
        return [{str(i): v for i, v in enumerate(value)}, len(value)]
    return [list(value.values()), None]


def _reordered(items):
    """The list with one item dropped, one doubled, or two swapped."""
    for i in range(len(items)):
        yield f"{i} dropped", items[:i] + items[i + 1:]
        yield f"{i} doubled", items[:i + 1] + items[i:]
        for j in range(i + 1, len(items)):
            swapped = list(items)
            swapped[i], swapped[j] = items[j], items[i]
            yield f"{i}, {j} swapped", swapped


def _provenance_changes(prov, blocks):
    for key, value in prov.items():
        if isinstance(value, bool):
            yield (key,), not value
        elif key == "budget":
            # any budget that covers every block's digit sum a + b + c + d
            # is a true build input of the same stream; one below the
            # largest sum is not
            yield (key,), max(sum(b["digits"]) - 4 for b in blocks) - 1
        elif isinstance(value, int):
            yield (key,), value + 1
            yield (key,), value - 1
        elif isinstance(value, str):
            yield (key,), "irrational" if value == "rational" else "rational"
        elif isinstance(value, list):  # the coefficients of an irrational lambda
            for i, v in enumerate(value):
                yield (key, i), v + 1
                yield (key, i), v - 1
        else:  # a digit rule, nk_rule or d_choices
            for kind in ("default", "const", "arith", "list"):
                if kind != value["kind"]:
                    yield (key, "kind"), kind
            for i, v in enumerate(value["params"]):
                yield (key, "params", i), v + 1
                yield (key, "params", i), v - 1


def _edits(doc, text):
    """Every edit of one file: kind -> [(description, edited text)]."""
    out = {kind: [] for kind in ("digit", "endpoint", "block", "provenance", "type", "truncate")}

    def add(kind, what, new_doc):
        out[kind].append((what, json.dumps(new_doc, indent=2) + "\n"))

    for path, value in _leaves(doc):
        if not path or isinstance(value, bool) or not isinstance(value, int):
            continue
        if path[0] == "digit_prefix" or path[-2:-1] == ("digits",):
            kind = "digit"
        elif path[0] in ("z0", "y_bounds") or "endpoint" in path:
            kind = "endpoint"
        else:
            continue
        for step in (1, -1):
            add(kind, f"{path} {step:+d}", _replaced(doc, path, value + step))
    # whole blocks, as block records or as eight-digit runs of the prefix
    for what, blocks in _reordered(doc["blocks"]):
        add("block", f"blocks {what}", {**doc, "blocks": blocks})
    prefix = doc["digit_prefix"]
    for what, runs in _reordered([prefix[i:i + 8] for i in range(0, len(prefix), 8)]):
        add("block", f"digit_prefix runs {what}", {**doc, "digit_prefix": sum(runs, [])})
    for path, new in _provenance_changes(doc["provenance"], doc["blocks"]):
        add("provenance", f"provenance {path} = {new!r}", _replaced(doc, ("provenance",) + path, new))
    for path, value in _leaves(doc):
        if path:
            for new in _retyped(value):
                add("type", f"{path} = {new!r}", _replaced(doc, path, new))
    for cut in range(0, len(text), 7):
        out["truncate"].append((f"cut at {cut}", text[:cut]))
    return out


def test_forged_rational_specs_fail_closed(tmp_path, capsys):
    rng = random.Random(22)
    cases, originals = [], {}
    for name, argv in SEEDS.items():
        path = tmp_path / f"{name}.json"
        assert main(["build", *argv, "-o", str(path)]) == 0
        assert main(["verify", str(path), "--horizon", "2"]) == 0
        text = path.read_text()
        spec = load_spec(str(path))
        doc = json.loads(text)
        originals[name] = (spec.provenance, spec.digits_prefix(len(doc["digit_prefix"])))
        for kind, edits in _edits(doc, text).items():
            cases += [(name, kind, what, new) for what, new in edits if new != text]
    capsys.readouterr()
    by_kind = {}
    for case in cases:
        by_kind.setdefault(case[1], []).append(case)
    chosen = [c for kind in sorted(by_kind) for c in rng.sample(by_kind[kind], PER_KIND)]

    faults, refused = [], 0
    forged = tmp_path / "forged.json"
    for name, kind, what, new in chosen:
        forged.write_text(new)
        label = f"{name}: {kind} {what}"
        try:
            code = main(["verify", str(forged), "--horizon", "2"])
        except Exception as exc:  # a traceback on the command line
            faults.append(f"{label}: raised {type(exc).__name__}: {exc}")
            continue
        out, err = capsys.readouterr()
        if code == 2:
            refused += 1
            lines = err.splitlines()
            if out or len(lines) != 1 or list(json.loads(lines[0])) != ["error"]:
                faults.append(f"{label}: exit 2 with stdout {out!r}, stderr {err!r}")
        elif code in (0, 1):
            provenance, digits = originals[name]
            spec, doc = load_spec(str(forged)), json.loads(new)
            stored = [tuple(doc["digit_prefix"])] + [tuple(b["digits"]) for b in doc["blocks"]]
            rebuilt = [spec.digits_prefix(len(doc["digit_prefix"]))]
            rebuilt += [spec.block(n).digits for n in range(1, len(doc["blocks"]) + 1)]
            if (spec.provenance, spec.digits_prefix(len(digits))) != (provenance, digits):
                faults.append(f"{label}: exit {code} on a changed stream")
            elif stored != rebuilt:
                faults.append(f"{label}: exit {code} on digits its stream does not have")
            json.loads(out)
        else:
            faults.append(f"{label}: exit {code}")
    assert faults == []
    # most single edits change the stream and are refused; those that are
    # not (a trailing block or the final newline cut) reload to the original
    assert refused > 0.8 * len(chosen)
