"""Direction blocks and fixing words for rational surface parameters.

For a parameter ``z = (r/2q, s/2q)`` with ``|r|, |s| < q``, ``s != 0``
coprime to ``q``, the seven-digit block

    odd case  (s or r odd):   (2q+b, 1, 1, 2q+a+b, 1, 1, a)
    even case (s, r even):    (2q+a, b-1, b+1, 2q+2a, b-1, b+1, a)

spells an alternating h+-leading word g_z that fixes both the surface
M(z) and, up to sign, the homology class beta.  The exponents a, b are
the least solutions of small linear congruences, found with one modular
inverse each.  Certification never trusts the construction: the word is
traced and the certificate records whether the endpoint returns to z and
the traced action is +-identity.

For the barrier picture itself z = (0, lambda) with lambda = p/2q, the
odd case reduces to a = q, b = q-1, i.e. the block
(3q-1, 1, 1, 4q-1, 1, 1, q).
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import count
from math import gcd

from .directions import BlockRecord, DigitRule, DirectionSpec
from .exact import Frozen
from .torus import TorusPoint, trace_rational
from .words import GenWord


class RationalParam(Frozen):
    """z = (r/2q, s/2q) with |r|, |s| < q, s nonzero and coprime to q."""

    __slots__ = ("r", "s", "q")

    def __init__(self, r: int, s: int, q: int):
        if q < 1:
            raise ValueError("q must be positive")
        if not (abs(r) < q and abs(s) < q):
            raise ValueError("need |r| < q and |s| < q")
        if s == 0:
            raise ValueError("s must be nonzero")
        if gcd(s, q) != 1:
            raise ValueError("s must be coprime with q")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "q", q)

    @classmethod
    def from_barrier_length(cls, lam: Fraction) -> "RationalParam":
        """The billiard case z = (0, lambda) for lambda = p/2q in (0, 1/2)."""
        lam = Fraction(lam)
        if not 0 < lam < Fraction(1, 2):
            raise ValueError("barrier length ratio must lie in (0, 1/2)")
        n, d = lam.numerator, lam.denominator
        if d % 2 == 0:
            p, q = n, d // 2
        else:
            p, q = 2 * n, d
        return cls(0, p, q)

    @property
    def parity_case(self) -> str:
        return "odd" if (self.r % 2 or self.s % 2) else "even"

    def point(self) -> TorusPoint:
        return TorusPoint.of(Fraction(self.r, 2 * self.q), Fraction(self.s, 2 * self.q))

    def reduced(self) -> "RationalParam":
        """The sign-normalized parameter with s > 0 (via the point -z)."""
        if self.s > 0:
            return self
        return RationalParam(-self.r, -self.s, self.q)


class CongruencePair(Frozen):
    """Block exponents.

    Odd case: single pair (a, b); ``a2`` is None.
    Even case: ``b = |s|`` plus two shear exponents, ``a`` entering as
    the rightmost syllable (a s = q-1-r mod 2q) and ``a2`` inside
    (a2 s = q-1+r mod 2q); they coincide exactly when r = 0, which is
    the only case the single-exponent textbook form covers.
    """

    __slots__ = ("a", "b", "parity_case", "a2")

    def __init__(self, a: int, b: int, parity_case: str, a2: int | None = None):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "parity_case", parity_case)
        object.__setattr__(self, "a2", a2)

class CongruenceError(RuntimeError):
    """A congruence without solution; impossible for valid input."""


def _least_solution(s: int, rhs: int, mod: int) -> int:
    """The least a in 1..mod with a s = rhs (mod mod).

    With g = gcd(s, mod) a solution exists exactly when g divides rhs, and
    the solutions are one residue modulo mod/g, so the least one is that
    residue's representative in 1..mod/g.
    """
    g = gcd(s, mod)
    if rhs % g:
        raise CongruenceError(f"{s} a = {rhs} (mod {mod}) has no solution")
    step = mod // g
    a = (rhs // g) * pow(s // g, -1, step) % step or step
    if (a * s - rhs) % mod:
        raise CongruenceError(f"{a} does not solve {s} a = {rhs} (mod {mod})")
    return a


def solve_congruences(param: RationalParam) -> CongruencePair:
    """The least positive solutions of the defining congruences.

    Odd case:  0 < a, b <= 2q,  r + a s = -q (mod 2q),  b s + s - q = r (mod 2q).
    Even case: b = |s|,  a s = q-1-r (mod 2q),  a2 s = q-1+r (mod 2q).

    The solution is unique in range when s is odd; for even s,
    gcd(s, 2q) = 2 gives two solutions and the smaller is taken.  A
    congruence without solution raises :class:`CongruenceError`.
    """
    param = param.reduced()
    r, s, q = param.r, param.s, param.q
    mod = 2 * q
    if param.parity_case == "odd":
        return CongruencePair(
            _least_solution(s, -q - r, mod), _least_solution(s, q + r - s, mod), "odd"
        )
    return CongruencePair(
        _least_solution(s, q - 1 - r, mod), s, "even", _least_solution(s, q - 1 + r, mod)
    )


class Block(Frozen):
    __slots__ = ("digits",)

    def __init__(self, digits: tuple[int, ...]):
        if len(digits) != 7:
            raise ValueError("block must have 7 digits")
        if any(d < 1 for d in digits):
            raise ValueError("block digits must be positive")
        object.__setattr__(self, "digits", digits)


def block_for(param: RationalParam) -> Block:
    param = param.reduced()
    pair = solve_congruences(param)
    q, a, b = param.q, pair.a, pair.b
    if pair.parity_case == "odd":
        return Block((2 * q + b, 1, 1, 2 * q + a + b, 1, 1, a))
    a2 = pair.a2
    return Block((2 * q + a2, b - 1, b + 1, 2 * q + a + a2, b - 1, b + 1, a))


def fixing_word(param: RationalParam) -> GenWord:
    """The alternating 7-syllable word with the block digits as exponents."""
    return GenWord.from_digits(block_for(param).digits)


class FixingCertificate(Frozen):
    __slots__ = ("fixes_point", "action_is_identity", "h_minus_period")

    def __init__(self, fixes_point: bool, action_is_identity: bool, h_minus_period: int):
        object.__setattr__(self, "fixes_point", fixes_point)
        object.__setattr__(self, "action_is_identity", action_is_identity)
        object.__setattr__(self, "h_minus_period", h_minus_period)

    @property
    def ok(self) -> bool:
        return self.fixes_point and self.action_is_identity


def certify_fixing(param: RationalParam) -> FixingCertificate:
    """Trace the fixing word at z and report what it actually does.

    Never raises on failure; a failing certificate is the caller's
    acceptance gate.  The h- period is 1 when r = 0 (the height is then
    invariant under every power) and 2q otherwise; the returned period
    is itself re-verified by a trace.  Both traces run on the lattice
    Z/2q, where z is (r, s), one closed-form syllable at a time.
    """
    r, s, q = param.r, param.s, param.q
    period = 1 if r == 0 else 2 * q
    x, y, action = trace_rational(2 * q, r, s, fixing_word(param).syllables)
    x_h, y_h, action_h = trace_rational(2 * q, r, s, (("h-", period),))
    period_ok = (x_h, y_h) == (r, s) and action_h.fixes_beta
    return FixingCertificate(
        fixes_point=(x, y) == (r, s) and period_ok,
        action_is_identity=action.is_identity,
        h_minus_period=period,
    )


class NkRuleError(ValueError):
    """A free digit violates the 2q-multiple constraint."""


NkRule = DigitRule


def _rational_blocks(param: RationalParam, nk: DigitRule) -> Iterator[BlockRecord]:
    block = block_for(param).digits
    z = param.point()
    for k in count(1):
        n_k = nk.value(k)
        yield BlockRecord(index=k, digits=block + (n_k,), endpoint=z, meta={"n_k": n_k})


def direction_stream(param: RationalParam, nk: DigitRule) -> DirectionSpec:
    """Assemble the lazily repeating digit stream [0; B(z), n_1, B(z), n_2, ...].

    Construction fails closed: the fixing certificate is re-run here and
    a failure aborts the stream (downstream hypothesis checks would be
    meaningless without it).  For s < 0 the parameter is reduced to -z
    first and all checkpoints refer to the reduced surface point.
    """
    reduced = param.reduced()
    cert = certify_fixing(reduced)
    if not cert.ok:
        raise RuntimeError(f"fixing certificate failed for {reduced}: {cert}")
    # for r != 0 every n_k must be a multiple of 2q: the rule's values all
    # are exactly when its parameters are (B n + C for every n >= 1 is a
    # multiple only when B and C are), and the default value 1 never is
    modulus = 1 if reduced.r == 0 else 2 * reduced.q
    if modulus > 1 and (nk.kind == "default" or any(v % modulus for v in nk.params)):
        raise NkRuleError(
            f"{nk.kind} n_k rule {list(nk.params)} gives a digit that is not a "
            f"multiple of {modulus} (r != 0)"
        )
    y = Fraction(reduced.s, 2 * reduced.q)
    provenance = {
        "type": "rational",
        "r": param.r,
        "s": param.s,
        "q": param.q,
        "reduced": reduced != param,
        "nk_rule": nk.as_dict(),
    }
    return DirectionSpec(
        z0=reduced.point(),
        y_bounds=(y, y),
        provenance=provenance,
        block_source=_rational_blocks(reduced, nk),
    )
