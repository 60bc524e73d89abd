"""Direction blocks and fixing words for rational surface parameters.

For a parameter ``z = (r/2q, s/2q)`` with ``|r|, |s| < q``, ``s != 0``
coprime to ``q``, the seven-digit block

    odd case  (s or r odd):   (2q+b, 1, 1, 2q+a+b, 1, 1, a)
    even case (s, r even):    (2q+a, b-1, b+1, 2q+2a, b-1, b+1, a)

spells an alternating h+-leading word g_z that fixes both the surface
M(z) and, up to sign, the homology class beta.  The exponents a, b are
the least solutions of two linear congruences modulo 2q, found with one
modular inverse per parameter.  Certification never trusts the
construction: the word is traced and the certificate records whether the
endpoint returns to z and the traced action is +-identity.

The certificate also names the h- period n (1 when r = 0, else 2q); its
multiples, the free digits of a stream, fix z and beta by the

Period lemma.  (h-)^n fixes z, and beta up to sign, exactly when
n r = 0 (mod 2q).  Proof: in units of 1/2q, z = (r, s) with r, s in
[-q, q).  Each step of (h-)^-1 keeps x = r and moves y to y - r wrapped
into [-q, q), so after n steps y is the representative of s - n r, which
is s exactly when 2q divides n r.  Each step contributes h- or its
inverse to the action, so it is (h-)^m, with entries (1, 0, m, 1), which
fixes beta for every m.

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
from .torus import TorusPoint, _trace_lattice, entries_are_identity
from .words import GenWord


class RationalParam(Frozen):
    """z = (r/2q, s/2q) with |r|, |s| < q, s nonzero and coprime to q.

    A field that is not an ``int``, a ``bool`` included, raises
    :class:`TypeError` naming it."""

    __slots__ = ("r", "s", "q")

    def __init__(self, r: int, s: int, q: int):
        if not (type(r) is int and type(s) is int and type(q) is int):
            for name, v in (("r", r), ("s", s), ("q", q)):
                if type(v) is not int:
                    raise TypeError(f"{name} must be an int, got {v!r}")
        if q < 1:
            raise ValueError("q must be positive")
        if not (abs(r) < q and abs(s) < q):
            raise ValueError("need |r| < q and |s| < q")
        if s == 0:
            raise ValueError("s must be nonzero")
        if gcd(s, q) != 1:
            raise ValueError("s must be coprime with q")
        _set_r(self, r)
        _set_s(self, s)
        _set_q(self, q)

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

    def point(self) -> TorusPoint:
        return TorusPoint.of(Fraction(self.r, 2 * self.q), Fraction(self.s, 2 * self.q))

    def reduced(self) -> "RationalParam":
        """The sign-normalized parameter with s > 0 (via the point -z)."""
        if self.s > 0:
            return self
        return RationalParam(-self.r, -self.s, self.q)


_set_r, _set_s, _set_q = RationalParam._setters


class CongruenceError(RuntimeError):
    """A congruence without solution; impossible for valid input."""


def solve_congruences(param: RationalParam) -> tuple[int, int, int | None]:
    """The block exponents ``(a, b, a2)``: the least positive solutions of
    the defining congruences.

    The parity case is the parameter's: odd when r or s is odd, else even.

    Odd case:  0 < a, b <= 2q,  r + a s = -q (mod 2q),  b s + s - q = r (mod 2q);
    ``a2`` is None.
    Even case: b = |s| plus two shear exponents, ``a`` entering as the
    rightmost syllable (a s = q-1-r mod 2q) and ``a2`` inside
    (a2 s = q-1+r mod 2q); they coincide exactly when r = 0, which is the
    only case the single-exponent textbook form covers.

    Each congruence reads x s = rhs (mod 2q).  With g = gcd(s, 2q), 1 or
    2 (s is coprime to q), a solution exists exactly when g divides rhs,
    and the solutions are one residue modulo 2q/g, whose representative
    in 1..2q/g is the least; g and 1/(s/g) mod 2q/g serve both
    congruences.  The re-check of each solution fails exactly when g does
    not divide rhs, and raises :class:`CongruenceError`.  For s < 0 they
    are solved for the reduced parameter -z.
    """
    r, s, q = param.r, param.s, param.q
    if s < 0:
        r, s = -r, -s
    mod = 2 * q
    odd = r % 2 or s % 2
    rhs1, rhs2 = (-q - r, q + r - s) if odd else (q - 1 - r, q - 1 + r)
    g = gcd(s, mod)
    step = mod // g
    inv = pow(s // g, -1, step)
    a1 = rhs1 // g * inv % step or step
    a2 = rhs2 // g * inv % step or step
    if (a1 * s - rhs1) % mod or (a2 * s - rhs2) % mod:
        rhs = rhs1 if (a1 * s - rhs1) % mod else rhs2
        raise CongruenceError(f"{s} a = {rhs} (mod {mod}) has no solution")
    return (a1, a2, None) if odd else (a1, s, a2)


def block_for(param: RationalParam) -> tuple[int, ...]:
    """The seven digits of B(z), each at least 1 (b = |s| >= 2 in the even
    case); the certificate trace, ``GenWord`` and ``BlockRecord`` each
    refuse a digit below 1 on their own."""
    a, b, a2 = solve_congruences(param)  # for the reduced parameter; q is unchanged by it
    q = param.q
    if a2 is None:  # odd case
        return (2 * q + b, 1, 1, 2 * q + a + b, 1, 1, a)
    return (2 * q + a2, b - 1, b + 1, 2 * q + a + a2, b - 1, b + 1, a)


def fixing_word(param: RationalParam) -> GenWord:
    """The alternating 7-syllable word with the block digits as exponents."""
    return GenWord.from_digits(block_for(param))


class FixingCertificate(Frozen):
    """What :func:`certify_fixing` found at z = (r/2q, s/2q).

    ``fixes_point``: the traced block returns z to itself, and so does
    (h-)^n, n = ``h_minus_period``, by the period lemma's n r = 0 (mod 2q).
    ``action_is_identity``: the block's traced action is +-I.
    ``h_minus_period``: n, 1 when r = 0 and 2q otherwise, whose multiples
    are the free digits n_k a stream admits.  ``ok`` is the first two."""

    __slots__ = ("fixes_point", "action_is_identity", "h_minus_period")

    def __init__(self, fixes_point: bool, action_is_identity: bool, h_minus_period: int):
        _set_fixes_point(self, fixes_point)
        _set_action_is_identity(self, action_is_identity)
        _set_h_minus_period(self, h_minus_period)

    @property
    def ok(self) -> bool:
        return self.fixes_point and self.action_is_identity


_set_fixes_point, _set_action_is_identity, _set_h_minus_period = FixingCertificate._setters


def certify_fixing(param: RationalParam) -> FixingCertificate:
    """Trace the fixing word at z and report what it actually does.

    Never raises on failure; a failing certificate is the caller's
    acceptance gate.  The block is traced by one
    :func:`~slittori.torus._trace_lattice` call on the lattice Z/2q, where
    z is the flat integers r, 0, s, 0, one closed-form syllable at a time,
    and the end point it returns is compared with r and s; the block
    digits are the exponents of an h+-leading word as they are, with no
    :class:`~slittori.words.GenWord` in between, and the identity verdict
    is read from the raw action entries it returns, with no matrix built
    and no sign canonicalised.  The start needs no check:
    :class:`RationalParam` makes q >= 1 and |r|, |s| < q, so W = 2q is
    even and r and s lie in [-W/2, W/2).

    The h- period n (1 when r = 0, else 2q) is certified by the module's
    period lemma, with no trace: (h-)^n fixes z and beta exactly when
    n r = 0 (mod 2q), as it leaves x = r, moves y to s - n r (mod 2q) and
    acts as a power of h-.
    """
    r, s, q = param.r, param.s, param.q
    W = 2 * q
    period = 1 if r == 0 else W
    x, _, y, _, a, b, c, d = _trace_lattice(W, 0, r, 0, s, 0, "h+", block_for(param))
    fixes_point = x == r and y == s and period * r % W == 0
    return FixingCertificate(fixes_point, entries_are_identity(a, b, c, d), period)


class NkRuleError(ValueError):
    """A free digit violates the 2q-multiple constraint."""


def _rational_blocks(param: RationalParam, nk: DigitRule) -> Iterator[BlockRecord]:
    block = block_for(param)
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
        "nk_rule": nk.as_json(),
    }
    return DirectionSpec(
        z0=reduced.point(),
        y_bounds=(y, y),
        provenance=provenance,
        block_source=_rational_blocks(reduced, nk),
    )
