import random
from decimal import Decimal
from fractions import Fraction

import pytest

from slittori.exact import ExactScalar
from slittori.intervals import InconclusiveIntervalError, RatInterval


def iv(a, b):
    return RatInterval(Fraction(a), Fraction(b))


def test_arithmetic_contains_true_value():
    a, b = iv("1/3", "1/2"), iv("-2", "-1")
    for result, value in (
        (a * b, Fraction(1, 2) * -1), (a - b, Fraction(1, 2) + 1), (a / b, Fraction(1, 3) / -2),
    ):
        assert result.lo <= value <= result.hi


def test_mul_sign_cases():
    prod = iv(-2, 3) * iv(-5, 7)
    assert (prod.lo, prod.hi) == (-15, 21)  # min/max of {10, -14, -15, 21}


def test_abs():
    assert abs(iv(-3, -1)) == iv(1, 3)
    assert abs(iv(-2, 5)) == iv(0, 5)
    assert abs(iv(1, 2)) == iv(1, 2)


def test_reciprocal_zero():
    with pytest.raises(ZeroDivisionError):
        iv(-1, 1).reciprocal()
    assert iv(2, 4).reciprocal() == iv("1/4", "1/2")


def test_reciprocal_of_int_endpoints_is_exact():
    """Int endpoints divide to Fraction endpoints, not floats."""
    inv = RatInterval(1, 2).reciprocal()
    assert (type(inv.lo), type(inv.hi)) == (Fraction, Fraction)
    assert (inv.lo, inv.hi) == (Fraction(1, 2), Fraction(1))


def test_certified_comparisons():
    assert iv(0, 1).certified_le(1)
    assert not iv(2, 3).certified_le(1)
    with pytest.raises(InconclusiveIntervalError):
        iv("1/2", "3/2").certified_le(1)
    assert iv("-1/2", "1/2").certified_abs_le(1)
    with pytest.raises(InconclusiveIntervalError):
        iv("1/2", "3/2").certified_abs_le(1)


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        iv(2, 1)


def _point(k):
    return RatInterval(Fraction(k), Fraction(k))


def _four_product(a, b):
    """The reference product of two intervals: min and max of the four
    endpoint products."""
    cands = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return RatInterval(min(cands), max(cands))


def test_scalar_operands_match_point_intervals():
    """A scalar operand enters the endpoints directly; on seeded intervals
    and negative, zero and positive int and Fraction scalars every result
    equals the one of the scalar's point interval, endpoint for endpoint."""
    rng = random.Random(20)
    scalars = [0, 1, -1, Fraction(0), Fraction(-3, 7), Fraction(5, 2)]
    scalars += [rng.randint(-10**30, 10**30) for _ in range(20)]
    scalars += [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(20)]
    for k in scalars:
        p = _point(k)
        for _ in range(10):
            lo = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
            a = RatInterval(lo, lo + Fraction(rng.randint(0, 10**9), rng.randint(1, 10**9)))
            for got, want in (
                (a * k, _four_product(a, p)), (a - k, a - p),
            ):
                assert (got.lo, got.hi) == (want.lo, want.hi), (a, k)
                assert type(got.lo) is type(got.hi) is Fraction
            if k:
                got, want = a / k, _four_product(a, _point(1 / Fraction(k)))
                assert (got.lo, got.hi) == (want.lo, want.hi), (a, k)
    assert iv(-2, 3) * 0 == iv(0, 0)
    assert iv(-2, 3) * -2 == iv(-6, 4)


def test_scalar_operand_types():
    with pytest.raises(TypeError):
        iv(0, 1) * 0.5
    with pytest.raises(TypeError):
        0.5 - iv(0, 1)
    with pytest.raises(ZeroDivisionError):
        iv(0, 1) / 0


@pytest.mark.parametrize(
    "lo, hi",
    [(0.5, 1), (Fraction(1, 3), 0.5), (Decimal(0), 1), (ExactScalar(0), 1)],
    ids=["float-lo", "float-hi", "decimal", "exact-scalar"],
)
def test_endpoints_must_be_int_or_fraction(lo, hi):
    """An endpoint of another type is refused, not compared and stored."""
    with pytest.raises(TypeError):
        RatInterval(lo, hi)


def test_int_and_fraction_endpoints_build():
    pairs = ((0, 1), (Fraction(1, 3), 1), (-1, Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 2)))
    for lo, hi in pairs:
        built = RatInterval(lo, hi)
        assert (built.lo, built.hi) == (lo, hi)
