"""The shear action on the punctured torus and its homology bookkeeping.

Points live on ``[-1/2, 1/2)^2`` minus the four half-integer points
(0,0), (-1/2,-1/2), (-1/2,0), (0,-1/2).  Applying the inverse of a
generator moves a point by

    h+ : (x, y) -> (x - y mod 1, y)       h- : (x, y) -> (x, y - x mod 1)

and each elementary step contributes the generator itself to the
homology action when the *post-step* point z satisfies

    S = { -1/2 <= x + y < 1/2 }   (literal coordinates, no reduction)

and the generator's inverse otherwise.  Tracing a word g = g1 g2 ... gN
through its elementary steps therefore computes both the orbit
z, g1^-1 z, g2^-1 g1^-1 z, ... and the induced map g_*(g^-1 z) on the
rank-2 anti-invariant homology, as an ordered product of per-step
factors.  The action is an element of PGL(2,Z), defined only up to a
global sign.  The rules on its four integers a, b, c, d are stated once,
as functions.  :func:`entries_are_identity` and :func:`entries_fix_beta`
are exact on any integer entries, of either sign, so every certificate
and every check reads its verdicts from the raw entries;
:func:`canonical_entries` (|det| = 1, and the sign that makes the first
nonzero entry positive) is the form in which the ``action`` command
prints them and in which two actions are compared.

One integer kernel, :class:`Lattice`, implements the stepping rule.  The
shear orbit of z = (x0, y0) stays in the Z-module spanned by 1, x0 and y0,
so every orbit point is ((u_x + v_x sqrt(D))/W, (u_y + v_y sqrt(D))/W) with
one even W and one radicand D for the whole orbit.  A step is an integer
subtraction; one or two sign tests of u + v sqrt(D) wrap it back into
[-1/2, 1/2), and the post-step point lies in S exactly when the step did
not wrap.

A whole syllable g^n has a closed form.  With moving coordinate t0 and
fixed coordinate f in lattice units, every step moves by -f with
|f| <= W/2, so it wraps at most once, and every wrap of the syllable
goes the same way (by +W when f > 0, by -W when f < 0).  So with
t = t0 - n f and k = floor((t + W/2)/W) the syllable ends at t - k W
after |k| wraps, and its running count is m = n - 2|k|.  The floor is
``u // W`` for rational t and takes one
:func:`~slittori.exact.floor_sqrt` otherwise.  :func:`_trace_lattice`,
on the lattice's integers W and D, is the one place that applies it,
once per syllable, and the one place the homology action is multiplied
out.  Every word it traces alternates, so it takes the leading generator
and the exponents, and flips the generator after each syllable.  It
takes the start as four flat integers xu, xv, yu, yv and returns the
flat tuple (xu, xv, yu, yv, a, b, c, d), the form :meth:`Lattice.run`
yields, so a caller that holds integers packs no coordinate pairs.
:func:`trace_word`, the one adapter from a :class:`TorusPoint` and a
:class:`~slittori.words.GenWord`, returns (final, entries), its end point
as a :class:`TorusPoint` and the raw entries of the action;
:func:`slittori.rational.certify_fixing` calls :func:`_trace_lattice`
once, on Z/2q, and :func:`slittori.irrational.find_block` on its search's own
lattice, each with its own integers, building neither a point nor a
matrix.  :meth:`Lattice.run` steps one unit at a time and supplies
:func:`m_sequence` and the searches and single steps of
:mod:`slittori.irrational`, which need every intermediate point.  The
test suite checks both against each other and against a reference that
steps :class:`~slittori.exact.ExactScalar` values.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import islice
from math import lcm

from .exact import (
    ExactScalar, FieldMismatchError, Frozen, floor_sqrt, mod_half_open, negative, scalar,
)
from .words import GenWord

EXCLUDED_POINTS = (
    (Fraction(0), Fraction(0)),
    (Fraction(-1, 2), Fraction(-1, 2)),
    (Fraction(-1, 2), Fraction(0)),
    (Fraction(0), Fraction(-1, 2)),
)


class ExcludedPointError(ValueError):
    """The point is one of the four punctures removed from the torus."""


class TorusPoint(Frozen):
    __slots__ = ("x", "y")

    def __init__(self, x: ExactScalar, y: ExactScalar):
        for c in (x, y):
            # -1/2 <= c < 1/2, as sign tests of 2c + 1 and 2c - 1
            u, v = 2 * c.u, 2 * c.v
            if negative(u + c.w, v, c.D) or not negative(u - c.w, v, c.D):
                raise ValueError(f"coordinate {c} outside [-1/2, 1/2)")
        if x.is_rational and y.is_rational:
            pair = (x.as_fraction(), y.as_fraction())
            if pair in EXCLUDED_POINTS:
                raise ExcludedPointError(f"({x}, {y}) is a puncture")
        _set_x(self, x)
        _set_y(self, y)

    @classmethod
    def of(cls, x, y) -> "TorusPoint":
        """Build from any scalar-likes, reducing mod 1 into [-1/2, 1/2)."""
        return cls(mod_half_open(scalar(x)), mod_half_open(scalar(y)))

    @property
    def is_rational(self) -> bool:
        return self.x.is_rational and self.y.is_rational

    def as_json(self) -> list[list[int]]:
        return [self.x.as_json(), self.y.as_json()]

    def __str__(self):
        return f"({self.x}, {self.y})"


_set_x, _set_y = TorusPoint._setters


def in_region_E(z: TorusPoint) -> bool:
    """x > -1/2 and y > -1/2."""
    m = ExactScalar(-1, 0, 2)
    return z.x > m and z.y > m


def canonical_entries(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """The entries of +-[[a, b], [c, d]] with the first nonzero entry positive.

    A determinant other than +-1 raises :class:`ValueError`.
    """
    det = a * d - b * c
    if det != 1 and det != -1:
        raise ValueError(f"homology action must have det +-1, got {det}")
    if (a or b or c) < 0:  # d cannot be the first nonzero entry when det != 0
        return -a, -b, -c, -d
    return a, b, c, d


def entries_are_identity(a: int, b: int, c: int, d: int) -> bool:
    """True exactly when the integer entries, of either sign and of any
    determinant, are +-I, the identity of PGL(2,Z)."""
    return b == 0 and c == 0 and a == d and a * a == 1


def entries_fix_beta(a: int, b: int, c: int, d: int) -> bool:
    """True exactly when the integer entries, of either sign and of any
    determinant, are +-(h-)^k, i.e. map beta to +-beta: with b = 0 and
    a = d, a a = 1 is det = 1."""
    return b == 0 and a == d and a * a == 1


Coord = tuple[int, int]  # (u, v), the coordinate (u + v sqrt(D))/W of a Lattice


class Lattice:
    """The lattice (Z + Z sqrt(D))/W that holds a shear orbit.

    ``W`` is the least common multiple of 2 and the denominators of the
    scalars given, and ``D`` their common radicand (0 when all are
    rational); scalars from two different quadratic fields raise
    :class:`~slittori.exact.FieldMismatchError`.
    """

    __slots__ = ("W", "half", "D")

    def __init__(self, *scalars: ExactScalar):
        W, D = 2, 0
        for s in scalars:
            W = lcm(W, s.w)
            if s.v:
                if D and s.D != D:
                    raise FieldMismatchError(f"cannot combine sqrt({D}) with sqrt({s.D})")
                D = s.D
        self.W, self.half, self.D = W, W // 2, D

    def embed(self, s: ExactScalar) -> Coord:
        k, r = divmod(self.W, s.w)
        if r or (s.v and s.D != self.D):
            raise ValueError(f"{s} does not lie in this lattice")
        return s.u * k, s.v * k

    def scalar(self, c: Coord) -> ExactScalar:
        return ExactScalar(c[0], c[1], self.W, self.D)

    def point(self, x: Coord, y: Coord) -> TorusPoint:
        return TorusPoint(self.scalar(x), self.scalar(y))

    def run(self, moving: Coord, fixed: Coord) -> Iterator[tuple[int, int, int]]:
        """The endless orbit of one generator.

        Each step replaces ``moving`` by ``moving - fixed`` wrapped into
        [-1/2, 1/2) -- (h+)^-1 moves x by y, (h-)^-1 moves y by x -- and
        yields ``(m, u, v)``: the running count m, +1 for every post-step
        point in S and -1 otherwise, and the new moving coordinate.

        The post-step point lies in S exactly when the step did not wrap:
        the literal sum (moving - fixed + k) + fixed = moving + k, for the
        wrap k in {-1, 0, 1}, lies in [-1/2, 1/2) only for k = 0, because
        moving already does.
        """
        W, half, D = self.W, self.half, self.D
        mu, mv = moving
        fu, fv = fixed
        m = 0
        while True:
            mu -= fu
            mv -= fv
            if negative(mu + half, mv, D):
                mu += W
                m -= 1
            elif not negative(mu - half, mv, D):
                mu -= W
                m -= 1
            else:
                m += 1
            yield m, mu, mv


def _trace_lattice(
    W: int, D: int, xu: int, xv: int, yu: int, yv: int, leading: str, exponents
) -> tuple[int, int, int, int, int, int, int, int]:
    """Trace the word with ``exponents``, generators alternating from
    ``leading``, from the point x = (xu + xv sqrt(D))/W, y = (yu + yv sqrt(D))/W
    of the lattice (Z + Z sqrt(D))/W, one closed-form syllable at a time.
    Returns the flat tuple (xu, xv, yu, yv, a, b, c, d): the end point in
    the same integers and the entries a, b, c, d of the homology action,
    before sign canonicalisation.  The floor of t + W/2 =
    u + W/2 + v sqrt(D) is the integer u + W/2 + floor(v sqrt(D)).  A leading
    generator other than h+ and h-, or an exponent below 1, raises ValueError."""
    if leading != "h+" and leading != "h-":
        raise ValueError(f"unknown generator {leading!r}")
    plus = leading == "h+"
    half = W // 2
    a, b, c, d = 1, 0, 0, 1
    for n in exponents:
        if n < 1:
            raise ValueError(f"exponent must be positive, got {n}")
        if plus:
            xu, xv = xu - n * yu, xv - n * yv
            k = (xu + half + floor_sqrt(xv, D) if xv else xu + half) // W
            xu -= k * W
            m = n - 2 * k if k > 0 else n + 2 * k
            b, d = b + m * a, d + m * c  # right-multiply by (h+)^m
        else:
            yu, yv = yu - n * xu, yv - n * xv
            k = (yu + half + floor_sqrt(yv, D) if yv else yu + half) // W
            yu -= k * W
            m = n - 2 * k if k > 0 else n + 2 * k
            a, c = a + m * b, c + m * d  # right-multiply by (h-)^m
        plus = not plus
    return xu, xv, yu, yv, a, b, c, d


def trace_word(
    z: TorusPoint, word: GenWord
) -> tuple[TorusPoint, tuple[int, int, int, int]]:
    """Trace a word through elementary inverse steps from ``z``.

    Returns (final, entries): the end point ``word^-1 z`` and the
    homology action of ``word`` evaluated there, as the ordered product
    of per-step factors at the post-step points, in the raw entries the
    kernel returns: the verdict rules read them as they are, and
    :func:`canonical_entries` gives the form to print or compare.  The
    factors of one syllable are all powers of its generator, so they
    multiply to the generator raised to the syllable's running count.
    The end point and the action come from :func:`_trace_lattice`, one
    closed-form step per syllable, which takes the word's ``leading``
    generator and ``digits`` as they are.
    """
    lat = Lattice(z.x, z.y)
    xu, xv, yu, yv, a, b, c, d = _trace_lattice(
        lat.W, lat.D, *lat.embed(z.x), *lat.embed(z.y), word.leading, word.digits
    )
    return lat.point((xu, xv), (yu, yv)), (a, b, c, d)


def m_sequence(z: TorusPoint, gen: str, n_max: int) -> list[int]:
    """m_1, ..., m_{n_max}: running sum of +-1 per step, +1 when the
    post-step point lies in S."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    lat = Lattice(z.x, z.y)
    x, y = lat.embed(z.x), lat.embed(z.y)
    if gen == "h+":
        steps = lat.run(x, y)
    elif gen == "h-":
        steps = lat.run(y, x)
    else:
        raise ValueError(f"unknown generator {gen!r}")
    return [m for m, _, _ in islice(steps, n_max)]


def involution_theta(z: TorusPoint) -> TorusPoint:
    return TorusPoint(z.y, z.x)


def involution_minus_id(z: TorusPoint) -> TorusPoint:
    return TorusPoint(mod_half_open(-z.x), mod_half_open(-z.y))
