"""Record semantics of the package's plain value classes.

Each class keeps the constructor of the dataclass it replaced (field order,
keyword names and defaults).  The frozen ones refuse assignment and
deletion, compare and hash by their fields and print as the dataclass did;
mutable defaults are new lists for every instance.
"""

from fractions import Fraction

import pytest

from slittori.criterion import CheckpointRecord, CylinderStrip, VerificationReport
from slittori.dimension import DimensionCertificate, DimensionProblem
from slittori.directions import BlockRecord
from slittori.exact import ExactScalar
from slittori.flow import (
    BilliardState,
    CoverState,
    OrbitStats,
    StepResult,
    SurfaceModel,
    ValidationReport,
)
from slittori.intervals import RatInterval
from slittori.irrational import IrrationalBlockParams
from slittori.rational import Block, CongruencePair, FixingCertificate, NkRule, RationalParam
from slittori.torus import ActionTrace, HomologyAction, TorusPoint
from slittori.words import GenWord, IntMat2

P = TorusPoint(ExactScalar(1, 0, 4), ExactScalar(1, 0, 3))
WORD = GenWord((("h+", 2), ("h-", 1)))
TRACE = ActionTrace(P, WORD, (), P, HomologyAction(IntMat2(1, 0, 0, 1)))
VALIDATION = ValidationReport((1, 1), (0, 0), (1, 1), 1, True, (1, 1), 1)

# class -> (field names in constructor order, a function giving fresh field values)
FROZEN = {
    IntMat2: (("a", "b", "c", "d"), lambda: (1, 2, 3, 5)),
    GenWord: (("syllables",), lambda: ((("h+", 2), ("h-", 1)),)),
    TorusPoint: (("x", "y"), lambda: (ExactScalar(1, 0, 4), ExactScalar(1, 0, 3))),
    ActionTrace: (
        ("start", "word", "points", "final", "action"),
        lambda: (P, WORD, (P,), P, HomologyAction(IntMat2(1, 0, 2, 1))),
    ),
    BlockRecord: (("index", "digits", "endpoint", "meta"), lambda: (1, (1,) * 8, P, {"n_k": 1})),
    RatInterval: (("lo", "hi"), lambda: (Fraction(1, 3), Fraction(1, 2))),
    RationalParam: (("r", "s", "q"), lambda: (1, 3, 4)),
    CongruencePair: (("a", "b", "parity_case", "a2"), lambda: (1, 2, "even", 3)),
    Block: (("digits",), lambda: ((2, 1, 1, 3, 1, 1, 2),)),
    FixingCertificate: (
        ("fixes_point", "action_is_identity", "h_minus_period"),
        lambda: (True, False, 6),
    ),
    NkRule: (("kind", "params"), lambda: ("arith", (2, 1))),
    IrrationalBlockParams: (
        ("a", "b", "c", "d", "trace", "z_out", "eps1", "eps2"),
        lambda: (7, 3, 2, 5, TRACE, P, ExactScalar(1, 0, 10), ExactScalar(1, 0, 20)),
    ),
    CylinderStrip: (("k", "v", "area"), lambda: (1, (2, 3), ExactScalar(1, 0, 2))),
    DimensionProblem: (("block", "b", "c"), lambda: ((1, 2, 1), 2, 1)),
    CoverState: (("sheet", "x", "y", "deck"), lambda: (1, Fraction(1, 4), Fraction(-1, 8), 2)),
    ValidationReport: (
        (
            "deck_weights", "horizontal_core_shifts", "vertical_shifts",
            "crossing_loop_shift", "geometric_agreement", "cone_turns", "area",
        ),
        lambda: ((1, -1), (1, 0), (0, 1), 2, True, (3, 3), 2),
    ),
    SurfaceModel: (
        ("zx", "zy", "deck_weights", "beta_x", "validation"),
        lambda: (Fraction(0), Fraction(1, 4), (1, -1), Fraction(0), VALIDATION),
    ),
    StepResult: (
        ("state", "advance", "event"),
        lambda: (CoverState(0, Fraction(0), Fraction(1, 8)), Fraction(1, 2), "slit"),
    ),
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
        (
            "grid", "deck_window", "slope", "start", "samples", "cell_counts", "deck_counts",
            "deck_overflow", "deck_zero_returns", "discrepancy", "snapshot_samples",
            "total_advance", "terminated_early", "termination_reason",
        ),
        lambda: (
            1, 1, (1, 2), (0, "-1/2", "0", 0), 5, [[[3]], [[2]]], [1, 3, 1], 1, 2,
            [0.5], [5], "7/2", True, "slit endpoint",
        ),
    ),
}
RECORDS = {**FROZEN, **MUTABLE}
# frozen record -> field values differing from FROZEN's in the last field
VALUES = {
    IntMat2: (1, 2, 3, 6),
    GenWord: ((("h+", 2), ("h-", 2)),),
    TorusPoint: (ExactScalar(1, 0, 4), ExactScalar(-1, 0, 3)),
    ActionTrace: (P, WORD, (P,), P, HomologyAction(IntMat2(1, 0, 3, 1))),
    BlockRecord: (1, (1,) * 8, P, {"n_k": 2}),
    RatInterval: (Fraction(1, 3), Fraction(2, 3)),
    RationalParam: (1, 3, 5),
    CongruencePair: (1, 2, "even", None),
    Block: ((2, 1, 1, 3, 1, 1, 3),),
    FixingCertificate: (True, False, 1),
    NkRule: ("arith", (2, 2)),
    IrrationalBlockParams: (
        7, 3, 2, 5, TRACE, P, ExactScalar(1, 0, 10), ExactScalar(1, 0, 30)
    ),
    CylinderStrip: (1, (2, 3), ExactScalar(1, 0, 3)),
    DimensionProblem: ((1, 2, 1), 2, 2),
    CoverState: (1, Fraction(1, 4), Fraction(-1, 8), 3),
    ValidationReport: ((1, -1), (1, 0), (0, 1), 2, True, (3, 3), 3),
    SurfaceModel: (
        Fraction(0), Fraction(1, 4), (1, -1), Fraction(0),
        ValidationReport((1, 1), (0, 0), (1, 1), 1, True, (1, 1), 2),
    ),
    StepResult: (CoverState(0, Fraction(0), Fraction(1, 8)), Fraction(1, 2), "edge"),
    BilliardState: (Fraction(3, 2), Fraction(1, 10), Fraction(-7, 10), Fraction(1, 5)),
}


# NkRule is now a second name of directions.DigitRule; its cases keep the
# name under which the rational digit rule has always been checked.
CASE_NAMES = {NkRule: "NkRule"}


def ids(classes):
    return [CASE_NAMES.get(c, c.__name__) for c in classes]


def test_every_record_is_covered():
    assert len(RECORDS) == 23
    assert set(VALUES) == set(FROZEN)


@pytest.mark.parametrize("cls", list(RECORDS), ids=ids(RECORDS))
def test_positional_and_keyword_construction_agree(cls):
    fields, values = RECORDS[cls]
    args = values()
    assert len(args) == len(fields)
    for obj in (cls(*args), cls(**dict(zip(fields, args)))):
        for name, value in zip(fields, args):
            assert getattr(obj, name) == value, name


@pytest.mark.parametrize("cls", list(FROZEN), ids=ids(FROZEN))
def test_frozen_record_refuses_assignment_and_deletion(cls):
    fields, values = FROZEN[cls]
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
    assert CongruencePair(1, 2, "odd").a2 is None
    assert CongruencePair(a=1, b=2, parity_case="even", a2=None) == CongruencePair(1, 2, "even")
    problem = DimensionProblem((1, 1, 1))
    assert (problem.b, problem.c) == (1, 0)
    assert DimensionProblem(block=(1, 1, 1), b=1, c=0).continuant_table == problem.continuant_table
    args = MUTABLE[DimensionCertificate][1]()[:-1]
    assert DimensionCertificate(*args).witness is None
    assert CoverState(0, Fraction(0), Fraction(1, 8)).deck == 0
    args = MUTABLE[CheckpointRecord][1]()[:-1]
    assert CheckpointRecord(*args).notes == []
    stats = OrbitStats(grid=2, deck_window=1, slope=(1, 2), start=(0, "-1/2", "0", 0))
    assert stats.cell_counts == [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    assert stats.deck_counts == [0, 0, 0]
    assert (stats.samples, stats.deck_overflow, stats.deck_zero_returns) == (0, 0, 0)
    assert (stats.discrepancy, stats.snapshot_samples) == ([], [])
    assert (stats.total_advance, stats.terminated_early, stats.termination_reason) == (
        "0", False, ""
    )
    # an empty count list is filled like an omitted one
    assert OrbitStats(2, 1, (1, 2), (0, "-1/2", "0", 0), cell_counts=[]).cell_counts == (
        stats.cell_counts
    )


def test_mutable_defaults_are_not_shared():
    args = MUTABLE[CheckpointRecord][1]()[:-1]
    r1, r2 = CheckpointRecord(*args), CheckpointRecord(*args)
    r1.notes.append("only in r1")
    assert r2.notes == []
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
    assert repr(HomologyAction(IntMat2(1, 0, 2, 1))) == (
        "HomologyAction(IntMat2(a=1, b=0, c=2, d=1))"
    )
    assert repr(NkRule("arith", (2, 1))) == "DigitRule(kind='arith', params=(2, 1))"
    assert repr(RatInterval(Fraction(1, 3), Fraction(1, 2))) == (
        "RatInterval(lo=Fraction(1, 3), hi=Fraction(1, 2))"
    )
