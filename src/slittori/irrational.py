"""Block search for quadratic-irrational barrier lengths.

Starting from a point z = (x, y) with irrational height y in (0, 1/2),
one period of the direction stream is a word

    (h+)^a  h-  h+  (h-)^b  h+  h-  (h+)^c  (h-)^d

whose exponents are found by four exact window searches:

  a: smallest admissible index >= a_min whose running sign count is
     positive and which lands x - a y just right of -1/2 (margin
     eps1 < min(y, 1/2 - y)/2);
  b: after one h- and one h+ step, smallest index with running count
     exceeding the a-stage count and height just below 1/2 (margin
     eps2 < min(|x3|, 1/2 - |x3|)/2);
  c: smallest index whose running count cancels the accumulated
     shear exponent (b' - a');
  d: the d_index-th index landing the height inside the target
     interval J.  The freedom in d is what makes distinct digit
     streams for the same parameter.

Every window membership test is an exact sign test on the integer
orbit lattice (:class:`~slittori.torus.Lattice`), so no density or
precision argument is needed.  A candidate block is accepted only if
the direct trace certificate passes: the traced endpoint height lies in
J and the traced homology action is a power of h- up to sign.  On
certificate failure the search widens monotonically through further
admissible candidates.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import count

from .directions import BlockRecord, DigitRule, DirectionSpec
from .exact import ExactScalar, Frozen, negative, scalar
from .torus import ActionTrace, Coord, Lattice, TorusPoint, trace_word
from .words import GenWord

DEFAULT_J = (Fraction(1, 6), Fraction(1, 3))
DEFAULT_A_MIN = 6
DEFAULT_BUDGET = 10**6
# certificate failures find_block tolerates before it gives up
MAX_WIDENINGS = 8


class SearchBudgetExceededError(RuntimeError):
    """The window search ran out of generator applications."""


class DerivationError(RuntimeError):
    """An intermediate invariant of the block derivation failed."""


class IrrationalBlockParams(Frozen):
    __slots__ = ("a", "b", "c", "d", "trace", "z_out", "eps1", "eps2")

    def __init__(
        self,
        a: int,
        b: int,
        c: int,
        d: int,
        trace: ActionTrace,
        z_out: TorusPoint,
        eps1: ExactScalar,
        eps2: ExactScalar,
    ):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "trace", trace)
        object.__setattr__(self, "z_out", z_out)
        object.__setattr__(self, "eps1", eps1)
        object.__setattr__(self, "eps2", eps2)

    @property
    def digits(self) -> tuple[int, ...]:
        return (self.a, 1, 1, self.b, 1, 1, self.c, self.d)

    def word(self) -> GenWord:
        return GenWord.from_digits(self.digits)


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise SearchBudgetExceededError(
                f"budget of {self.limit} generator applications exhausted"
            )


def _require_irrational(v: int, what: str) -> None:
    """Fail on a coordinate whose sqrt(D) part ``v`` is zero."""
    if v == 0:
        raise DerivationError(f"{what} is rational; window search cannot proceed")


def _half_min(lat: Lattice, c: Coord) -> Coord:
    """min(c, 1/2 - c) for 0 < c < 1/2; halved, it is a search window."""
    other = (lat.half - c[0], -c[1])
    return other if negative(other[0] - c[0], other[1] - c[1], lat.D) else c


def _spend(steps: Iterator[tuple[int, int, int]], budget: _Budget) -> Iterator[tuple[int, int, Coord]]:
    """Number the steps of a :meth:`Lattice.run` from 1, spending one unit
    of budget before each; yields (j, m, coordinate)."""
    for j in count(1):
        budget.spend()
        m, u, v = next(steps)
        yield j, m, (u, v)


def _a_candidates(
    lat: Lattice, x: Coord, y: Coord, a_min: int, budget: _Budget
) -> Iterator[tuple[int, int, Coord]]:
    """Yield (a, a', x1) with the stage-a window and sign conditions."""
    # eps1 = x1 + 1/2 must lie in (0, window), window = min(y, 1/2 - y)/2;
    # in lattice units W * eps1 = eu + v sqrt(D) and 2W * window = wu + wv sqrt(D)
    wu, wv = _half_min(lat, y)
    for j, m, (u, v) in _spend(lat.run(x, y), budget):
        if j < a_min or m <= 0:
            continue
        eu = u + lat.half
        if negative(-eu, -v, lat.D) and negative(2 * eu - wu, 2 * v - wv, lat.D):
            yield (j, m, (u, v))


def _b_candidates(
    lat: Lattice, x3: Coord, y3: Coord, a_prime: int, budget: _Budget
) -> Iterator[tuple[int, int, Coord]]:
    """Yield (b, b', y4) with the stage-b window and count conditions."""
    # eps2 = 1/2 - y4 must lie in (0, window), window = min(|x3|, 1/2 - |x3|)/2;
    # in lattice units W * eps2 = eu - v sqrt(D) and 2W * window = wu + wv sqrt(D)
    ax3 = (-x3[0], -x3[1]) if negative(*x3, lat.D) else x3
    wu, wv = _half_min(lat, ax3)
    for j, m, (u, v) in _spend(lat.run(y3, x3), budget):
        if m <= a_prime:
            continue
        eu = lat.half - u
        if negative(-eu, v, lat.D) and negative(2 * eu - wu, -2 * v - wv, lat.D):
            yield (j, m, (u, v))


def _c_candidates(
    lat: Lattice, x6: Coord, y6: Coord, target: int, budget: _Budget
) -> Iterator[tuple[int, Coord]]:
    """Yield (c, x7) where the running h+ count at z6 reaches ``target``."""
    for j, m, x7 in _spend(lat.run(x6, y6), budget):
        if m == target:
            yield (j, x7)


def _d_candidates(
    lat: Lattice, x7: Coord, y7: Coord, J: tuple[Coord, Coord], budget: _Budget
) -> Iterator[tuple[int, Coord]]:
    """Yield (d, y') with the endpoint height inside J."""
    (lu, lv), (hu, hv) = J
    for j, _, (u, v) in _spend(lat.run(y7, x7), budget):
        if not negative(u - lu, v - lv, lat.D) and not negative(hu - u, hv - v, lat.D):
            yield (j, (u, v))


def find_block(
    z: TorusPoint,
    J: tuple = DEFAULT_J,
    a_min: int = DEFAULT_A_MIN,
    d_index: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> IrrationalBlockParams:
    """Search one certified block starting at z.

    ``d_index`` selects the d_index-th admissible value of d instead of
    the smallest; everything else is searched smallest-first, widening
    monotonically if (contrary to the derivation) a candidate fails the
    final trace certificate.  The searches step the orbit on the
    integer lattice of z and J; the certificate is :func:`trace_word`.
    """
    J = (scalar(J[0]), scalar(J[1]))
    if not (ExactScalar(0) < J[0] <= J[1] < ExactScalar(1, 0, 2)):
        raise ValueError("target interval must sit inside (0, 1/2)")
    if d_index < 1:
        raise ValueError("d_index is 1-based")
    _require_irrational(z.y.v, "height y")
    if not (ExactScalar(0) < z.y < ExactScalar(1, 0, 2)):
        raise ValueError(f"height {z.y} outside (0, 1/2)")
    lat = Lattice(z.x, z.y, *J)
    y = lat.embed(z.y)
    J_lat = (lat.embed(J[0]), lat.embed(J[1]))
    bud = _Budget(budget)
    widenings = 0
    d_tries_per_a = 3
    for a, a_prime, x1 in _a_candidates(lat, lat.embed(z.x), y, a_min, bud):
        # two single steps with the derivation's region cross-checks; the
        # count m of one step is +1 when the post-step point lies in S, else -1
        y2, m = lat.syllable(y, x1, 1)
        if m > 0:
            raise DerivationError("z2 unexpectedly in S")
        x3, m = lat.syllable(x1, y2, 1)
        if m < 0:
            raise DerivationError("z3 unexpectedly outside S")
        if not negative(*x3, lat.D):
            raise DerivationError("x3 should be negative")
        _require_irrational(x3[1], "x3")

        b, b_prime, y4 = next(_b_candidates(lat, x3, y2, a_prime, bud))
        x5, m = lat.syllable(x3, y4, 1)
        if m > 0:
            raise DerivationError("z5 unexpectedly in S")
        y6, m = lat.syllable(y4, x5, 1)
        if m < 0:
            raise DerivationError("z6 unexpectedly outside S")
        _require_irrational(y6[1], "y6")

        c, x7 = next(_c_candidates(lat, x5, y6, b_prime - a_prime, bud))
        _require_irrational(x7[1], "x7")

        seen_d = 0
        tried_here = 0
        for d, y_out in _d_candidates(lat, x7, y6, J_lat, bud):
            seen_d += 1
            if seen_d < d_index:
                continue
            word = GenWord.from_digits((a, 1, 1, b, 1, 1, c, d))
            tr = trace_word(z, word, record_points=False)
            certified = (
                tr.final == lat.point(x7, y_out)
                and J[0] <= tr.final.y <= J[1]
                and tr.action.fixes_beta
            )
            if certified:
                return IrrationalBlockParams(
                    a=a, b=b, c=c, d=d,
                    trace=tr, z_out=tr.final,
                    eps1=lat.scalar((x1[0] + lat.half, x1[1])),
                    eps2=lat.scalar((lat.half - y4[0], -y4[1])),
                )
            # Widen monotonically: a few more admissible d values, then
            # re-derive from the next admissible a.
            widenings += 1
            tried_here += 1
            if widenings >= MAX_WIDENINGS:
                raise SearchBudgetExceededError(
                    f"no certified block within {MAX_WIDENINGS} widenings"
                )
            if tried_here >= d_tries_per_a:
                break
    raise SearchBudgetExceededError("candidate generators exhausted")


DChoiceRule = DigitRule


def _irrational_blocks(
    z0: TorusPoint, choices: DigitRule, a_min: int, budget: int
) -> Iterator[BlockRecord]:
    z = z0
    for n in count(1):
        d_index = choices.value(n)
        blk = find_block(z, DEFAULT_J, a_min=a_min, d_index=d_index, budget=budget)
        yield BlockRecord(
            index=n,
            digits=blk.digits,
            endpoint=blk.z_out,
            meta={"a": blk.a, "b": blk.b, "c": blk.c, "d": blk.d, "d_index": d_index},
        )
        z = blk.z_out


def direction_stream_irrational(
    lam: ExactScalar,
    d_choices: DigitRule | None = None,
    a_min: int = DEFAULT_A_MIN,
    budget: int = DEFAULT_BUDGET,
) -> DirectionSpec:
    """Digit stream [0; a1,1,1,b1,1,1,c1,d1, a2, ...] for z0 = (0, lambda).

    ``lam`` must be a quadratic irrational in (0, 1/2); rational values
    belong to the rational builder and are rejected.
    """
    lam = scalar(lam)
    if lam.is_rational:
        raise ValueError("rational barrier length: use the rational builder")
    if not (ExactScalar(0) < lam < ExactScalar(1, 0, 2)):
        raise ValueError("barrier length ratio must lie in (0, 1/2)")
    choices = d_choices or DigitRule()
    z0 = TorusPoint(ExactScalar(0), lam)
    provenance = {
        "type": "irrational",
        "lambda": list(lam.as_tuple()),
        "d_choices": choices.as_dict(),
        "a_min": a_min,
        "budget": budget,
    }
    return DirectionSpec(
        z0=z0,
        y_bounds=DEFAULT_J,
        provenance=provenance,
        block_source=_irrational_blocks(z0, choices, a_min, budget),
    )
