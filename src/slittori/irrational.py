"""Block search for quadratic-irrational barrier lengths.

Starting from a point z = (x, y) with irrational height y in (0, 1/2),
one period of the direction stream is a word

    (h+)^a  h-  h+  (h-)^b  h+  h-  (h+)^c  (h-)^d

whose exponents are found by four exact window searches:

  a: smallest admissible index >= DEFAULT_A_MIN = 6 whose running sign
     count is positive and which lands x - a y just right of -1/2
     (margin eps1 < min(y, 1/2 - y)/2);
  b: after one h- and one h+ step, smallest index with running count
     exceeding the a-stage count and height just below 1/2 (margin
     eps2 < min(|x3|, 1/2 - |x3|)/2);
  c: smallest index whose running count cancels the accumulated
     shear exponent (b' - a');
  d: the d_index-th index landing the height inside the target
     interval J = DEFAULT_J = [1/6, 1/3].  The freedom in d is what
     makes distinct digit streams for the same parameter.

Each search is one :func:`_search` along a :meth:`Lattice.run` orbit and
spends one unit of the budget per step, up to the step it returns; the
four single steps between the searches are free.  A block therefore
spends exactly a + b + c + d, and the budget caps that digit sum.

The floor a >= 6 and the window J are constants, not inputs: a spec
file's provenance records ``"a_min": 6`` and may only repeat that
value or leave it out.

Every window membership test is an exact sign test on the integer
orbit lattice (:class:`~slittori.torus.Lattice`), so no density or
precision argument is needed.  The derivation gives exactly one block
per (z, d_index), and it is accepted only if the direct trace
certificate passes: the traced endpoint matches the searched one, its
height lies in J and the traced homology action is a power of h- up to
sign.  A failed certificate fails closed with :class:`DerivationError`;
no other candidate is tried.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import count

from .directions import BlockRecord, DigitRule, DirectionSpec
from .exact import ExactScalar, Frozen, negative, scalar
from .torus import Coord, Lattice, TorusPoint, _trace_lattice, entries_fix_beta

DEFAULT_J = (ExactScalar(1, 0, 6), ExactScalar(1, 0, 3))
DEFAULT_A_MIN = 6
DEFAULT_BUDGET = 10**6


class SearchBudgetExceededError(RuntimeError):
    """The window search ran out of generator applications."""


class DerivationError(RuntimeError):
    """An intermediate invariant of the block derivation failed."""


class IrrationalBlockParams(Frozen):
    # a, b, c, d: ints; z_out: TorusPoint
    __slots__ = ("a", "b", "c", "d", "z_out")

    @property
    def digits(self) -> tuple[int, ...]:
        return (self.a, 1, 1, self.b, 1, 1, self.c, self.d)


def _require_irrational(v: int, what: str) -> None:
    """Fail on a coordinate whose sqrt(D) part ``v`` is zero."""
    if v == 0:
        raise DerivationError(f"{what} is rational; window search cannot proceed")


def _half_min(lat: Lattice, c: Coord) -> Coord:
    """min(c, 1/2 - c) for 0 < c < 1/2; halved, it is a search window."""
    other = (lat.half - c[0], -c[1])
    return other if negative(other[0] - c[0], other[1] - c[1], lat.D) else c


def _step(lat: Lattice, moving: Coord, fixed: Coord) -> tuple[Coord, int]:
    """The first step of :meth:`Lattice.run`: the new moving coordinate and
    its count m, +1 when the post-step point lies in S and -1 otherwise."""
    m, u, v = next(lat.run(moving, fixed))
    return (u, v), m


def _search(
    lat: Lattice, moving: Coord, fixed: Coord, left: int, hit, nth: int = 1
) -> tuple[int, int, Coord]:
    """Step ``lat.run(moving, fixed)``, numbering the steps j from 1, and
    return (j, m, coordinate) at the ``nth`` step where ``hit(j, m, u, v)``
    holds.  A search that would take more than ``left`` steps raises
    :class:`SearchBudgetExceededError`."""
    for j, (m, u, v) in enumerate(lat.run(moving, fixed), 1):
        if j > left:
            raise SearchBudgetExceededError
        if hit(j, m, u, v):
            nth -= 1
            if not nth:
                return j, m, (u, v)


def find_block(
    z: TorusPoint, d_index: int = 1, budget: int = DEFAULT_BUDGET
) -> IrrationalBlockParams:
    """Search one certified block starting at z.

    a >= DEFAULT_A_MIN, b and c are the smallest admissible values and d
    the d_index-th one whose height lands in J = DEFAULT_J; both bounds
    are constants.  Each search steps the orbit on the integer lattice of
    z and J with :func:`_search`, one unit of ``budget`` per step, so a
    block spends exactly a + b + c + d and ``budget`` caps that sum; past
    it the search raises :class:`SearchBudgetExceededError`.  The
    certificate traces the digits with :func:`~slittori.torus._trace_lattice`
    on the search's own lattice and compares integers; a block that fails
    it raises :class:`DerivationError` naming its digits.
    """
    if d_index < 1:
        raise ValueError("d_index is 1-based")
    _require_irrational(z.y.v, "height y")
    if not (ExactScalar(0) < z.y < ExactScalar(1, 0, 2)):
        raise ValueError(f"height {z.y} outside (0, 1/2)")
    lo, hi = DEFAULT_J
    lat = Lattice(z.x, z.y, lo, hi)
    half, D = lat.half, lat.D
    y = lat.embed(z.y)
    (lu, lv), (hu, hv) = lat.embed(lo), lat.embed(hi)
    try:
        # a: eps1 = x1 + 1/2 must lie in (0, window), window = min(y, 1/2 - y)/2;
        # in lattice units W * eps1 = eu + v sqrt(D) and 2W * window = w1u + w1v sqrt(D);
        # m > 0 is the paper's condition, implied here: j steps wrap at most
        # eps1 + j y < j/2 times
        w1u, w1v = _half_min(lat, y)

        def in_a(j, m, u, v):
            eu = u + half
            return (j >= DEFAULT_A_MIN and m > 0 and negative(-eu, -v, D)
                    and negative(2 * eu - w1u, 2 * v - w1v, D))

        a, a_prime, x1 = _search(lat, lat.embed(z.x), y, budget, in_a)
        # two single steps with the derivation's region cross-checks
        y2, m = _step(lat, y, x1)
        if m > 0:
            raise DerivationError("z2 unexpectedly in S")
        x3, m = _step(lat, x1, y2)
        if m < 0:
            raise DerivationError("z3 unexpectedly outside S")
        if not negative(*x3, D):
            raise DerivationError("x3 should be negative")
        _require_irrational(x3[1], "x3")

        # b: eps2 = 1/2 - y4 must lie in (0, window), window = min(-x3, 1/2 + x3)/2;
        # in lattice units W * eps2 = eu - v sqrt(D) and 2W * window = w2u + w2v sqrt(D);
        # eps2 > 0 is implied here: Lattice.run keeps every height below 1/2
        w2u, w2v = _half_min(lat, (-x3[0], -x3[1]))

        def in_b(j, m, u, v):
            eu = half - u
            return m > a_prime and negative(2 * eu - w2u, -2 * v - w2v, D)

        b, b_prime, y4 = _search(lat, y2, x3, budget - a, in_b)
        x5, m = _step(lat, x3, y4)
        if m > 0:
            raise DerivationError("z5 unexpectedly in S")
        y6, m = _step(lat, y4, x5)
        if m < 0:
            raise DerivationError("z6 unexpectedly outside S")
        _require_irrational(y6[1], "y6")

        # c: the running count cancels the accumulated shear exponent b' - a'
        def in_c(j, m, u, v):
            return m == b_prime - a_prime

        c, _, x7 = _search(lat, x5, y6, budget - a - b, in_c)
        _require_irrational(x7[1], "x7")

        # d: the height lands in the closed interval J
        def in_d(j, m, u, v):
            return not negative(u - lu, v - lv, D) and not negative(hu - u, hv - v, D)

        d, _, y_out = _search(lat, y6, x7, budget - a - b - c, in_d, d_index)
    except SearchBudgetExceededError:
        raise SearchBudgetExceededError(
            f"budget of {budget} generator applications exhausted"
        ) from None
    digits = (a, 1, 1, b, 1, 1, c, d)
    xu, xv, yu, yv, *action = _trace_lattice(lat.W, D, *lat.embed(z.x), *y, "h+", digits)
    if not ((xu, xv) == x7 and (yu, yv) == y_out
            and not negative(yu - lu, yv - lv, D) and not negative(hu - yu, hv - yv, D)
            and entries_fix_beta(*action)):
        raise DerivationError(f"block {digits} fails its trace certificate")
    return IrrationalBlockParams(a, b, c, d, lat.point(x7, y_out))


def _irrational_blocks(z0: TorusPoint, choices: DigitRule, budget: int) -> Iterator[BlockRecord]:
    z = z0
    for n in count(1):
        d_index = choices.value(n)
        blk = find_block(z, d_index=d_index, budget=budget)
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
    budget: int = DEFAULT_BUDGET,
) -> DirectionSpec:
    """Digit stream [0; a1,1,1,b1,1,1,c1,d1, a2, ...] for z0 = (0, lambda).

    ``lam`` must be a quadratic irrational in (0, 1/2); rational values
    belong to the rational builder and are rejected, and so is a
    ``budget`` that the spec loader would refuse: not an ``int`` (a
    ``bool`` included) or below 1.
    """
    if type(budget) is not int:
        raise TypeError(f"budget must be an int, got {budget!r}")
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    lam = scalar(lam)
    if lam.is_rational:
        raise ValueError("rational barrier length: use the rational builder")
    if not (ExactScalar(0) < lam < ExactScalar(1, 0, 2)):
        raise ValueError("barrier length ratio must lie in (0, 1/2)")
    choices = d_choices or DigitRule()
    z0 = TorusPoint(ExactScalar(0), lam)
    provenance = {
        "type": "irrational",
        "lambda": lam.as_json(),
        "d_choices": choices.as_json(),
        "a_min": DEFAULT_A_MIN,
        "budget": budget,
    }
    return DirectionSpec(
        z0=z0,
        y_bounds=DEFAULT_J,
        provenance=provenance,
        block_source=_irrational_blocks(z0, choices, budget),
    )
