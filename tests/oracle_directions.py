"""Reference enclosure code, kept as an oracle for ``tests/test_directions.py``.

``alpha_enclosure`` is the earlier ``DirectionSpec.alpha_enclosure``, which
builds the bracket's two Fractions at every digit count it tries and
compares their difference with 2**-bits; ``slittori.directions`` compares
the integer q_{k-1} q_k with 2**bits instead, and the two must return the
same interval or raise the same error.
"""

from __future__ import annotations

from fractions import Fraction

from slittori.directions import PERIOD, DigitStreamExhaustedError
from slittori.intervals import RatInterval


def alpha_enclosure(spec, bits: int, min_digits: int = 0) -> RatInterval:
    target = Fraction(1, 1 << bits)
    k = max(2, min_digits)
    while True:
        try:
            conv = spec.convergents(k)
        except DigitStreamExhaustedError:
            k = len(spec.cached_digits)
            if k < max(2, min_digits):
                raise
            return RatInterval(*spec.convergents(k).bracket(k))
        lo, hi = conv.bracket(k)
        if hi - lo <= target:
            return RatInterval(lo, hi)
        k += PERIOD
