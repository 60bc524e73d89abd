from fractions import Fraction

import pytest

from slittori.directions import BlockRecord, DigitRule, DirectionSpec
from slittori.exact import ExactScalar
from slittori.rational import RationalParam, direction_stream


def explicit_spec(z0, y_bounds, block_digit_lists, endpoints=None):
    """DirectionSpec over literal blocks, for fault injection."""
    endpoints = endpoints or [z0] * len(block_digit_lists)
    records = [
        BlockRecord(index=i + 1, digits=tuple(d), endpoint=e, meta={})
        for i, (d, e) in enumerate(zip(block_digit_lists, endpoints))
    ]
    return DirectionSpec(
        z0=z0,
        y_bounds=y_bounds,
        provenance={"type": "explicit"},
        block_source=iter(records),
    )


@pytest.fixture
def quarter_spec():
    return direction_stream(
        RationalParam.from_barrier_length(Fraction(1, 4)), DigitRule("const", (1,))
    )


@pytest.fixture
def sqrt2_spec():
    from slittori.irrational import direction_stream_irrational

    return direction_stream_irrational(ExactScalar(0, 1, 4, 2))
