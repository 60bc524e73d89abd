"""Certified interval arithmetic over exact rational endpoints.

Endpoints are ``fractions.Fraction``, so every operation here is exact
and the outward-rounding contract is satisfied trivially: the true
value of any expression is contained in the computed interval, with no
rounding step that could lose containment.  "Precision" enters only
when an interval is first created by truncating a digit stream, to
2**-``flow.SLOPE_PRECISION_BITS`` in ``flow``; ``criterion`` encloses
nothing, its wedge lemma reading the complete quotient's tail digits.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import Frozen, exact_str


class InconclusiveIntervalError(ArithmeticError):
    """The interval is too wide to certify the requested comparison."""


class RatInterval(Frozen):
    """The closed interval [lo, hi] with int or Fraction endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int | Fraction, hi: int | Fraction):
        if not (isinstance(lo, (int, Fraction)) and isinstance(hi, (int, Fraction))):
            raise TypeError(f"interval endpoints must be int or Fraction, got {lo!r}, {hi!r}")
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        _set_lo(self, lo)
        _set_hi(self, hi)

    def as_json(self) -> list[str]:
        return [exact_str(self.lo), exact_str(self.hi)]

    # A scalar operand (int or Fraction) enters each endpoint directly; a
    # product by k takes two products, in the order the sign of k gives.

    def __neg__(self):
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        if isinstance(other, RatInterval):
            return RatInterval(self.lo - other.hi, self.hi - other.lo)
        k = _scalar(other)
        return RatInterval(self.lo - k, self.hi - k)

    def __mul__(self, other):
        if isinstance(other, RatInterval):
            cands = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
            return RatInterval(min(cands), max(cands))
        k = _scalar(other)
        if k < 0:
            return RatInterval(self.hi * k, self.lo * k)
        return RatInterval(self.lo * k, self.hi * k)

    def reciprocal(self) -> "RatInterval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval contains zero")
        one = Fraction(1)  # 1 / an int endpoint would be a float
        return RatInterval(one / self.hi, one / self.lo)

    def __truediv__(self, other):
        if isinstance(other, RatInterval):
            return self * other.reciprocal()
        return self * Fraction(1, _scalar(other))

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RatInterval(Fraction(0), max(-self.lo, self.hi))

    # -- certified comparisons ---------------------------------------
    # Three-way answers: True / False are certain; an interval that
    # straddles the threshold raises, so callers can retry with a
    # tighter enclosure instead of silently guessing.

    def certified_le(self, bound) -> bool:
        if self.hi <= bound:
            return True
        if self.lo > bound:
            return False
        raise InconclusiveIntervalError(
            f"[{self.lo}, {self.hi}] straddles bound {bound}"
        )

    def certified_ge(self, bound) -> bool:
        if self.lo >= bound:
            return True
        if self.hi < bound:
            return False
        raise InconclusiveIntervalError(
            f"[{self.lo}, {self.hi}] straddles bound {bound}"
        )

    def certified_abs_le(self, bound) -> bool:
        a = abs(self)
        return a.certified_le(bound)


_set_lo, _set_hi = RatInterval._setters


def _scalar(v) -> int | Fraction:
    if isinstance(v, (int, Fraction)):
        return v
    raise TypeError(f"cannot interpret {type(v).__name__} as interval")
