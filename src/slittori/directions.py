"""Lazily extensible direction specifications.

A :class:`DirectionSpec` is a continued-fraction digit stream
``[0; a1, a2, ...]`` produced in blocks of eight digits, together with
the surface parameter the stream was built for, the expected surface
point at each block boundary (a checkpoint every ``k_n = 8 n`` digits),
and bounds on the checkpoint heights.  Builders supply the blocks; the
verifier replays them.  Digits, checkpoints and convergents are cached
append-only, so re-verifying a longer horizon never changes earlier
records.
"""

from __future__ import annotations

from collections.abc import Iterator

from .exact import ExactScalar, Frozen, scalar
from .intervals import RatInterval
from .torus import TorusPoint
from .words import Convergents

PERIOD = 8


class DigitStreamExhaustedError(RuntimeError):
    """A finite digit source cannot supply the requested digit."""


class DigitRule(Frozen):
    """The free digit of block n, for either builder: the rational n_k
    between fixing blocks, or the index of the admissible d in an
    irrational block.

    ``default`` is 1, ``const`` (M,) is M, ``arith`` (B, C) is B n + C and
    ``list`` gives its n-th entry, raising
    :class:`DigitStreamExhaustedError` past its end.  Every value is a
    positive integer, and a parameter that is not an ``int`` (a ``bool``
    included) raises :class:`TypeError`.
    """

    __slots__ = ("kind", "params")

    def __init__(self, kind: str = "default", params: tuple[int, ...] = ()):
        params = tuple(params)
        for v in params:
            if type(v) is not int:
                raise TypeError(f"digit rule parameter must be an int, got {v!r}")
        if kind == "default":
            ok = not params
        elif kind == "const":
            ok = len(params) == 1 and params[0] >= 1
        elif kind == "arith":
            ok = len(params) == 2 and params[0] >= 1 and params[1] >= 0
        elif kind == "list":
            ok = bool(params) and min(params) >= 1
        else:
            raise ValueError(f"unknown digit rule {kind!r}")
        if not ok:
            raise ValueError(f"{kind} digit rule cannot take {list(params)}")
        super().__init__(kind, params)

    def value(self, n: int) -> int:
        """The digit of block n (1-based)."""
        p = self.params
        if self.kind == "arith":
            return p[0] * n + p[1]
        if self.kind == "list":
            if n > len(p):
                raise DigitStreamExhaustedError(f"digit list has only {len(p)} entries")
            return p[n - 1]
        return p[0] if p else 1

    def as_dict(self) -> dict:
        return {"kind": self.kind, "params": list(self.params)}

    @classmethod
    def from_dict(cls, d: dict) -> "DigitRule":
        return cls(d["kind"], d["params"])


class BlockRecord(Frozen):
    """One emitted period: eight digits and the expected endpoint."""

    __slots__ = ("index", "digits", "endpoint", "meta")  # index n >= 1

    def __init__(self, index: int, digits: tuple[int, ...], endpoint: TorusPoint, meta: dict):
        if len(digits) != PERIOD:
            raise ValueError(f"block must have {PERIOD} digits")
        if any(d < 1 for d in digits):
            raise ValueError("block digits must be positive")
        super().__init__(index, digits, endpoint, meta)


class DirectionSpec:
    """Digit stream with checkpoints, backed by a block producer.

    ``block_source`` is an iterator of :class:`BlockRecord`; a finite
    iterator yields a finite (truncated) spec, which is enough for
    fault-injection tests but will raise
    :class:`DigitStreamExhaustedError` when a verifier asks beyond it.
    """

    def __init__(
        self,
        z0: TorusPoint,
        y_bounds: tuple[ExactScalar, ExactScalar],
        provenance: dict,
        block_source: Iterator[BlockRecord],
    ):
        lo, hi = scalar(y_bounds[0]), scalar(y_bounds[1])
        if not (ExactScalar(0) < lo <= hi < ExactScalar(1, 0, 2)):
            raise ValueError("y bounds must satisfy 0 < a <= b < 1/2")
        self.z0 = z0
        self.y_bounds = (lo, hi)
        self.provenance = provenance
        self._source = block_source
        self._blocks: list[BlockRecord] = []
        self._digits: list[int] = []
        self._conv = Convergents()

    # -- stream management --------------------------------------------

    def _pull_block(self) -> None:
        try:
            rec = next(self._source)
        except StopIteration:
            raise DigitStreamExhaustedError(
                f"digit stream ends after {len(self._digits)} digits"
            ) from None
        if rec.index != len(self._blocks) + 1:
            raise RuntimeError("block source out of order")
        self._blocks.append(rec)
        self._digits.extend(rec.digits)
        self._conv.extend(rec.digits)

    def ensure_digits(self, k: int) -> None:
        while len(self._digits) < k:
            self._pull_block()

    def digit(self, i: int) -> int:
        """1-based digit a_i."""
        if i < 1:
            raise IndexError("digits are 1-based")
        self.ensure_digits(i)
        return self._digits[i - 1]

    def digits_prefix(self, k: int) -> tuple[int, ...]:
        self.ensure_digits(k)
        return tuple(self._digits[:k])

    def block(self, n: int) -> BlockRecord:
        if n < 1:
            raise IndexError("blocks are 1-based")
        while len(self._blocks) < n:
            self._pull_block()
        return self._blocks[n - 1]

    def checkpoint_index(self, n: int) -> int:
        return PERIOD * n

    def checkpoint_point(self, n: int) -> TorusPoint:
        return self.block(n).endpoint

    @property
    def cached_digits(self) -> tuple[int, ...]:
        return tuple(self._digits)

    @property
    def cached_blocks(self) -> int:
        return len(self._blocks)

    # -- numerics ------------------------------------------------------

    def convergents(self, k: int) -> Convergents:
        """The shared convergent table, filled through index k."""
        self.ensure_digits(k)
        return self._conv

    def alpha_enclosure(self, bits: int, min_digits: int = 0) -> RatInterval:
        """Rational interval around the stream's value, width <= 2**-bits
        when the stream can supply enough digits.

        The bracket of the first k digits, between the convergents
        p_{k-1}/q_{k-1} and p_k/q_k, has width exactly 1 / (q_{k-1} q_k) by
        the determinant identity, so the loop takes k = max(2, min_digits),
        then k + 8, ... up to the first k with q_{k-1} q_k >= 2**bits,
        comparing integers only, and builds the two Fractions of the bracket
        it returns.  A finite stream that runs out early still yields its
        best enclosure (consecutive convergents of every cached digit), as
        long as it covers ``min_digits``; downstream certified comparisons
        decide whether that is conclusive.
        """
        need = 1 << bits
        conv = self._conv
        k = max(2, min_digits)
        while True:
            try:
                self.ensure_digits(k)
            except DigitStreamExhaustedError:
                k = len(self._digits)
                if k < max(2, min_digits):
                    raise
                break
            if conv.q(k - 1) * conv.q(k) >= need:
                break
            k += PERIOD
        return RatInterval(*conv.bracket(k))
