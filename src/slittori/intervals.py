"""Certified interval arithmetic over exact rational endpoints.

Endpoints are ``fractions.Fraction``, so every operation here is exact
and the outward-rounding contract is satisfied trivially: the true
value of any expression is contained in the computed interval, with no
rounding step that could lose containment.  "Precision" enters only
when an interval is first created by truncating a digit stream; the
width of that enclosure is what the ``precision_bits`` arguments of
``criterion.verify`` and ``flow.slope_from_spec`` control (``verify
--precision`` and ``simulate --precision`` on the command line).
"""

from __future__ import annotations

from fractions import Fraction

from .exact import Frozen


class InconclusiveIntervalError(ArithmeticError):
    """The interval is too wide to certify the requested comparison."""


class RatInterval(Frozen):
    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def point(cls, q) -> "RatInterval":
        q = Fraction(q)
        return cls(q, q)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __add__(self, other):
        o = _as_interval(other)
        return RatInterval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self):
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_as_interval(other))

    def __rsub__(self, other):
        return _as_interval(other) + (-self)

    def __mul__(self, other):
        o = _as_interval(other)
        cands = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return RatInterval(min(cands), max(cands))

    __rmul__ = __mul__

    def reciprocal(self) -> "RatInterval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval contains zero")
        return RatInterval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        return self * _as_interval(other).reciprocal()

    def __rtruediv__(self, other):
        return _as_interval(other) * self.reciprocal()

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RatInterval(Fraction(0), max(-self.lo, self.hi))

    def contains(self, q) -> bool:
        q = Fraction(q)
        return self.lo <= q <= self.hi

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

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"


def _as_interval(v) -> RatInterval:
    if isinstance(v, RatInterval):
        return v
    if isinstance(v, (int, Fraction)):
        return RatInterval.point(v)
    raise TypeError(f"cannot interpret {type(v).__name__} as interval")
