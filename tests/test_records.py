"""Record semantics of the package's plain value classes.

Every record subclasses ``exact.Record``, whose one constructor binds the
``__slots__`` in order from positional or keyword values and requires
each of them.  Only the classes in ``OWN_INIT`` write their own
``__init__``, to check or normalise fields, to give a default, to
start counters at zero or to stay cheap on a hot path; their field order
and keyword names are those of the dataclasses they replaced.  The
frozen records refuse assignment and deletion, compare and hash by their
fields and print as the dataclass did; mutable defaults are new lists
for every instance.
"""

import importlib
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import slittori
from slittori.criterion import CheckpointRecord, CylinderStrip, VerificationReport
from slittori.dimension import DimensionCertificate, DimensionProblem
from slittori.directions import BlockRecord, DigitRule
from slittori.exact import ExactScalar, Frozen, Record
from slittori.flow import (
    BilliardState,
    CoverState,
    OrbitStats,
    SurfaceModel,
)
from slittori.intervals import RatInterval
from slittori.irrational import IrrationalBlockParams
from slittori.rational import FixingCertificate, RationalParam
from slittori.torus import TorusPoint
from slittori.words import GenWord, IntMat2

P = TorusPoint(ExactScalar(1, 0, 4), ExactScalar(1, 0, 3))

# class -> (field names in constructor order, a function giving fresh field values)
FROZEN = {
    IntMat2: (("a", "b", "c", "d"), lambda: (1, 2, 3, 5)),
    GenWord: (("leading", "digits"), lambda: ("h+", (2, 1))),
    TorusPoint: (("x", "y"), lambda: (ExactScalar(1, 0, 4), ExactScalar(1, 0, 3))),
    BlockRecord: (("index", "digits", "endpoint", "meta"), lambda: (1, (1,) * 8, P, {"n_k": 1})),
    RatInterval: (("lo", "hi"), lambda: (Fraction(1, 3), Fraction(1, 2))),
    RationalParam: (("r", "s", "q"), lambda: (1, 3, 4)),
    FixingCertificate: (
        ("fixes_point", "action_is_identity", "h_minus_period"),
        lambda: (True, False, 6),
    ),
    DigitRule: (("kind", "params"), lambda: ("arith", (2, 1))),
    IrrationalBlockParams: (("a", "b", "c", "d", "z_out"), lambda: (7, 3, 2, 5, P)),
    CylinderStrip: (("k", "v", "area"), lambda: (1, (2, 3), ExactScalar(1, 0, 2))),
    DimensionProblem: (("block", "b", "c"), lambda: ((1, 2, 1), 2, 1)),
    CoverState: (("sheet", "x", "y", "deck"), lambda: (1, Fraction(1, 4), Fraction(-1, 8), 2)),
    SurfaceModel: (("zx", "zy"), lambda: (Fraction(0), Fraction(1, 4))),
    BilliardState: (
        ("x", "y", "vx", "vy"),
        lambda: (Fraction(3, 2), Fraction(1, 10), Fraction(-7, 10), Fraction(2, 5)),
    ),
}
MUTABLE = {
    CheckpointRecord: (
        (
            "n", "k", "z", "endpoint_consistent", "homology_fixes_beta", "y_in_bounds",
            "digit_inequality", "sigma_bounded", "sigma_route", "wedge_bounded",
            "wedge_route", "strip", "wedge_ratio", "notes",
        ),
        lambda: (
            1, 8, P, True, True, True, True, True, "interval", False, "inconclusive",
            None, RatInterval(Fraction(1, 3), Fraction(1, 2)), ["a note"],
        ),
    ),
    VerificationReport: (
        ("horizon", "precision_bits", "records", "provenance"),
        lambda: (3, 256, [], {"type": "explicit"}),
    ),
    DimensionCertificate: (
        (
            "problem", "target", "route", "achieved_su", "u_used", "exceeds_target",
            "sqrt_sum_at_u", "exact_prefix_u", "exact_prefix_sum", "minorant_verified_terms",
            "su_monotone_samples", "image_disjointness_checked", "divergence_note", "witness",
        ),
        lambda: (
            DimensionProblem((1, 1, 1)), Fraction(1, 2), "divergence", 0.55, 10**6, True,
            None, 100, Fraction(3, 2), 100, [(10, 0.4)], 32, "note", {"base": 3},
        ),
    ),
    OrbitStats: (
        ("grid", "deck_window", "slope", "start"),
        lambda: (1, 1, (1, 2), (0, "-1/2", "0", 0)),
    ),
}
RECORDS = {**FROZEN, **MUTABLE}
# frozen record -> field values differing from FROZEN's in the last field
VALUES = {
    IntMat2: (1, 2, 3, 6),
    GenWord: ("h+", (2, 2)),
    TorusPoint: (ExactScalar(1, 0, 4), ExactScalar(-1, 0, 3)),
    BlockRecord: (1, (1,) * 8, P, {"n_k": 2}),
    RatInterval: (Fraction(1, 3), Fraction(2, 3)),
    RationalParam: (1, 3, 5),
    FixingCertificate: (True, False, 1),
    DigitRule: ("arith", (2, 2)),
    IrrationalBlockParams: (7, 3, 2, 5, TorusPoint(ExactScalar(1, 0, 4), ExactScalar(-1, 0, 3))),
    CylinderStrip: (1, (2, 3), ExactScalar(1, 0, 3)),
    DimensionProblem: ((1, 2, 1), 2, 2),
    CoverState: (1, Fraction(1, 4), Fraction(-1, 8), 3),
    SurfaceModel: (Fraction(0), Fraction(1, 3)),
    BilliardState: (Fraction(3, 2), Fraction(1, 10), Fraction(-7, 10), Fraction(1, 5)),
}


def ids(classes):
    return [c.__name__ for c in classes]


def test_every_record_is_covered():
    assert len(RECORDS) == 18
    assert set(VALUES) == set(FROZEN)


@pytest.mark.parametrize("cls", list(RECORDS), ids=ids(RECORDS))
def test_positional_and_keyword_construction_agree(cls):
    fields, values = RECORDS[cls]
    args = values()
    assert len(args) == len(fields)
    for obj in (cls(*args), cls(**dict(zip(fields, args)))):
        for name, value in zip(fields, args):
            assert getattr(obj, name) == value, name


# frozen records with their own __init__ that FROZEN does not list
OWN_INIT_CASES = {
    ExactScalar: (("u", "v", "w", "D"), lambda: (1, 2, 3, 5)),
}
FROZEN_CASES = {**FROZEN, **OWN_INIT_CASES}


@pytest.mark.parametrize("cls", list(FROZEN_CASES), ids=ids(FROZEN_CASES))
def test_frozen_record_refuses_assignment_and_deletion(cls):
    fields, values = FROZEN_CASES[cls]
    args = values()
    obj = cls(*args)
    for name, value in zip(fields, args):
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == value
    with pytest.raises(AttributeError):
        obj.extra = 1


@pytest.mark.parametrize("cls", list(MUTABLE), ids=ids(MUTABLE))
def test_mutable_record_accepts_assignment(cls):
    fields, values = MUTABLE[cls]
    obj = cls(*values())
    for name in fields:
        setattr(obj, name, None)
        assert getattr(obj, name) is None


@pytest.mark.parametrize("cls", list(VALUES), ids=ids(VALUES))
def test_value_record_compares_and_hashes_by_fields(cls):
    values = FROZEN[cls][1]
    a, b = cls(*values()), cls(*values())
    assert a == b and not a != b
    if cls is BlockRecord:  # its meta is a dict, as in the frozen dataclass
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert a != values() and a != object()
    assert a != cls(*VALUES[cls])


def test_defaults():
    problem = DimensionProblem((1, 1, 1))
    assert (problem.b, problem.c) == (1, 0)
    assert DimensionProblem(block=(1, 1, 1), b=1, c=0).continuant_table == problem.continuant_table
    with pytest.raises(TypeError):  # witness has no default
        DimensionCertificate(*MUTABLE[DimensionCertificate][1]()[:-1])
    assert CoverState(0, Fraction(0), Fraction(1, 8)).deck == 0
    with pytest.raises(TypeError):  # notes has no default
        CheckpointRecord(*MUTABLE[CheckpointRecord][1]()[:-1])
    stats = OrbitStats(grid=2, deck_window=1, slope=(1, 2), start=(0, "-1/2", "0", 0))
    assert stats.cell_counts == [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    assert stats.deck_counts == [0, 0, 0]
    assert (stats.samples, stats.deck_overflow, stats.deck_zero_returns) == (0, 0, 0)
    assert (stats.discrepancy, stats.snapshot_samples) == ([], [])
    assert (stats.total_advance, stats.terminated_early, stats.termination_reason) == (
        "0", False, ""
    )


def test_mutable_defaults_are_not_shared():
    fields, values = MUTABLE[CheckpointRecord]
    with pytest.raises(TypeError):  # no shared default list: notes is required
        CheckpointRecord(**dict(zip(fields[:-1], values())))
    s1, s2 = (OrbitStats(2, 1, (1, 2), (0, "-1/2", "0", 0)) for _ in range(2))
    for name in ("cell_counts", "deck_counts", "discrepancy", "snapshot_samples"):
        assert getattr(s1, name) is not getattr(s2, name), name
    s1.cell_counts[0][0][0] += 1
    s1.deck_counts[0] += 1
    assert s2.cell_counts[0][0][0] == 0 and s2.deck_counts[0] == 0
    assert s1.cell_counts[0][0] is not s1.cell_counts[0][1]


def test_reprs_keep_the_dataclass_format():
    assert repr(RationalParam(1, 3, 4)) == "RationalParam(r=1, s=3, q=4)"
    cert = FixingCertificate(fixes_point=True, action_is_identity=False, h_minus_period=6)
    assert repr(cert) == (
        "FixingCertificate(fixes_point=True, action_is_identity=False, h_minus_period=6)"
    )
    assert repr(IntMat2(1, -1, 0, 1)) == "IntMat2(a=1, b=-1, c=0, d=1)"
    assert repr(DigitRule("arith", (2, 1))) == "DigitRule(kind='arith', params=(2, 1))"
    assert repr(RatInterval(Fraction(1, 3), Fraction(1, 2))) == (
        "RatInterval(lo=Fraction(1, 3), hi=Fraction(1, 2))"
    )


# records that write their own __init__ -- to check or normalise fields, to
# give a default that the package uses, to zero counters, or
# (FixingCertificate on every rational certificate) to stay cheap on a hot
# path; every other record binds its __slots__ through Record.__init__
OWN_INIT = {
    "ExactScalar", "TorusPoint", "GenWord", "RationalParam",
    "BlockRecord", "DigitRule", "DimensionProblem", "RatInterval",
    "CoverState", "OrbitStats", "FixingCertificate",
}
BOUND_BY_RECORD = {
    "IntMat2", "IrrationalBlockParams", "CylinderStrip",
    "SurfaceModel", "BilliardState",
    "CheckpointRecord", "VerificationReport", "DimensionCertificate",
}


def _record_classes():
    for info in pkgutil.iter_modules(slittori.__path__):
        importlib.import_module(f"slittori.{info.name}")
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("slittori.") and sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


def test_own_init_inventory():
    classes = _record_classes() - {Frozen}
    own = {c.__name__ for c in classes if "__init__" in vars(c)}
    assert own == OWN_INIT
    assert len(OWN_INIT) == 11
    assert {c.__name__ for c in classes} - own == BOUND_BY_RECORD
    assert set(RECORDS) <= classes


BOUND = [BilliardState, VerificationReport]  # one frozen, one mutable


@pytest.mark.parametrize("cls", BOUND, ids=ids(BOUND))
def test_record_constructor_refuses_bad_arguments(cls):
    fields, values = RECORDS[cls]
    args = values()
    with pytest.raises(TypeError, match="positional"):
        cls(*args, None)
    with pytest.raises(TypeError, match="'nope' as an unknown field"):
        cls(*args, nope=1)
    with pytest.raises(TypeError, match=f"'{fields[0]}' twice"):
        cls(*args[:1], **dict(zip(fields, args)))
    with pytest.raises(TypeError, match=f"missing field\\(s\\) '{fields[-1]}'"):
        cls(*args[:-1])
    with pytest.raises(TypeError, match=f"missing field\\(s\\) '{fields[0]}'"):
        cls(**dict(zip(fields[1:], args[1:])))


def test_package_sets_no_field_through_object_setattr():
    """Own constructors set their fields through the slot setters in
    ``cls._setters``; no module calls ``object.__setattr__``."""
    sources = sorted(Path(slittori.__file__).parent.rglob("*.py"))
    assert len(sources) > 10
    assert [p.name for p in sources if "object.__setattr__" in p.read_text()] == []


def test_every_own_init_frozen_record_is_checked_for_immutability():
    """Own constructors set their fields through the slot setters, which
    bypass Frozen.__setattr__; every frozen one is a case of
    test_frozen_record_refuses_assignment_and_deletion.  OrbitStats is the
    one mutable record with its own __init__."""
    frozen = {c.__name__ for c in _record_classes() if issubclass(c, Frozen)}
    assert OWN_INIT - frozen == {"OrbitStats"}
    assert OWN_INIT & frozen <= {c.__name__ for c in FROZEN_CASES}
