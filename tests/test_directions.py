from fractions import Fraction

import pytest

from slittori.directions import BlockRecord, DigitRule, DigitStreamExhaustedError, DirectionSpec
from slittori.irrational import DChoiceRule
from slittori.rational import NkRule, RationalParam, direction_stream
from slittori.torus import TorusPoint


def test_block_record_validation():
    z = TorusPoint.of(0, Fraction(1, 4))
    with pytest.raises(ValueError):
        BlockRecord(1, (1, 2, 3), z, {})  # wrong length
    with pytest.raises(ValueError):
        BlockRecord(1, (1, 1, 1, 1, 1, 1, 1, 0), z, {})


def test_y_bounds_validation():
    z = TorusPoint.of(0, Fraction(1, 4))
    with pytest.raises(ValueError):
        DirectionSpec(z, (Fraction(0), Fraction(1, 4)), {}, iter(()))
    with pytest.raises(ValueError):
        DirectionSpec(z, (Fraction(1, 3), Fraction(1, 6)), {}, iter(()))


def test_digit_indexing_and_caching():
    spec = direction_stream(
        RationalParam.from_barrier_length(Fraction(1, 4)), NkRule("const", (2,))
    )
    assert spec.digit(8) == 2
    assert spec.cached_blocks == 1
    assert spec.digit(9) == 5
    assert spec.cached_blocks == 2
    with pytest.raises(IndexError):
        spec.digit(0)
    assert spec.checkpoint_index(3) == 24


def test_alpha_enclosure_tightens():
    spec = direction_stream(
        RationalParam.from_barrier_length(Fraction(1, 4)), NkRule("const", (1,))
    )
    wide = spec.alpha_enclosure(16)
    tight = spec.alpha_enclosure(256)
    assert tight.width <= Fraction(1, 2**256)
    assert wide.lo <= tight.lo and tight.hi <= wide.hi


def test_one_digit_rule_for_both_builders():
    assert NkRule is DChoiceRule is DigitRule
    rules = [
        (DigitRule(), [1, 1, 1]),
        (DigitRule("const", (4,)), [4, 4, 4]),
        (DigitRule("arith", (2, 1)), [3, 5, 7]),
        (DigitRule("list", (2, 1, 6)), [2, 1, 6]),
    ]
    for rule, values in rules:
        assert [rule.value(n) for n in (1, 2, 3)] == values
        again = DigitRule.from_dict(rule.as_dict())
        assert (again.kind, again.params) == (rule.kind, rule.params)
    assert DigitRule().as_dict() == {"kind": "default", "params": []}
    with pytest.raises(DigitStreamExhaustedError):
        DigitRule("list", (2, 1, 6)).value(4)
    for kind, params in [
        ("default", (1,)), ("const", ()), ("const", (1, 2)), ("arith", (1,)),
        ("arith", (1, -1)), ("list", ()), ("list", (1, 0)), ("nope", (1,)),
    ]:
        with pytest.raises(ValueError):
            DigitRule(kind, params)
