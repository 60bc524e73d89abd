from fractions import Fraction

import pytest

from slittori.directions import BlockRecord, DigitRule, DigitStreamExhaustedError, DirectionSpec
from slittori.rational import RationalParam, direction_stream
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
        RationalParam.from_barrier_length(Fraction(1, 4)), DigitRule("const", (2,))
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
        RationalParam.from_barrier_length(Fraction(1, 4)), DigitRule("const", (1,))
    )
    wide = spec.alpha_enclosure(16)
    tight = spec.alpha_enclosure(256)
    assert tight.hi - tight.lo <= Fraction(1, 2**256)
    assert wide.lo <= tight.lo and tight.hi <= wide.hi


def test_one_digit_rule_for_both_builders():
    rules = [
        (DigitRule(), [1, 1, 1]),
        (DigitRule("const", (4,)), [4, 4, 4]),
        (DigitRule("arith", (2, 1)), [3, 5, 7]),
        (DigitRule("list", (2, 1, 6)), [2, 1, 6]),
    ]
    for rule, values in rules:
        assert [rule.value(n) for n in (1, 2, 3)] == values
        again = DigitRule.from_dict(rule.as_json())
        assert (again.kind, again.params) == (rule.kind, rule.params)
    assert DigitRule().as_json() == {"kind": "default", "params": []}
    with pytest.raises(DigitStreamExhaustedError):
        DigitRule("list", (2, 1, 6)).value(4)
    for kind, params in [
        ("default", (1,)), ("const", ()), ("const", (1, 2)), ("arith", (1,)),
        ("arith", (1, -1)), ("list", ()), ("list", (1, 0)), ("nope", (1,)),
    ]:
        with pytest.raises(ValueError):
            DigitRule(kind, params)


@pytest.mark.parametrize("params", [(True,), (1, False), (2.0,), ("3",)])
def test_digit_rule_parameters_must_be_ints(params):
    """A bool parameter raises TypeError like any other non-int: a
    const rule of (True,) used to write a JSON true that the spec loader
    refuses."""
    kind = "const" if len(params) == 1 else "arith"
    with pytest.raises(TypeError, match="^digit rule parameter must be an int, got "):
        DigitRule(kind, params)



def test_alpha_enclosure_matches_oracle():
    """The integer stopping test q_{k-1} q_k >= 2**bits picks the same
    bracket as the earlier loop over Fraction widths (``oracle_directions``),
    on seeded rational streams, the sqrt2/4 stream, bit counts from 0 to
    300, several ``min_digits``, and streams truncated after a few blocks,
    which return their last bracket or raise the same error."""
    import random

    import oracle_directions as oracle
    from slittori.exact import ExactScalar
    from slittori.irrational import direction_stream_irrational

    rng = random.Random(32)
    makers = [lambda: direction_stream_irrational(ExactScalar(0, 1, 4, 2))]
    for _ in range(10):
        q = rng.randint(3, 40)
        lam = Fraction(rng.randint(1, (q - 1) // 2), q)
        rule = rng.choice((DigitRule(), DigitRule("const", (rng.randint(1, 9),)),
                           DigitRule("arith", (rng.randint(1, 3), rng.randint(0, 4)))))
        makers.append(lambda lam=lam, rule=rule: direction_stream(
            RationalParam.from_barrier_length(lam), rule))

    def truncated(make, blocks):
        spec = make()
        records = [spec.block(n) for n in range(1, blocks + 1)]
        return lambda: DirectionSpec(spec.z0, spec.y_bounds, {}, iter(records))

    def outcome(enclose, spec, bits, min_digits):
        try:
            return enclose(spec, bits, min_digits)
        except DigitStreamExhaustedError as exc:
            return str(exc)

    seen = set()
    for make in makers:
        for fresh in (make, truncated(make, rng.randint(1, 4))):
            for bits in (0, 1, 2, *rng.sample(range(3, 301), 5)):
                min_digits = rng.choice((0, 1, 2, 9, 16, 30))
                got = outcome(DirectionSpec.alpha_enclosure, fresh(), bits, min_digits)
                want = outcome(oracle.alpha_enclosure, fresh(), bits, min_digits)
                assert got == want, (fresh is make, bits, min_digits)
                if fresh is make:
                    seen.add("full")
                elif isinstance(got, str):
                    seen.add("raised")
                else:  # the last bracket of a truncated stream may be wider
                    seen.add("wide" if got.hi - got.lo > Fraction(1, 1 << bits) else "narrow")
    assert seen == {"full", "raised", "wide", "narrow"}, seen
