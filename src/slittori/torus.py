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
factors.  The action is only defined up to a global sign, which
:class:`HomologyAction` canonicalizes away.

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
t = t0 - n f and k = -floor((t + W/2)/W) the syllable ends at t + k W
after |k| wraps, and its running count is m = n - 2|k|.  The floor is
``u // W`` for rational t and takes one
:func:`~slittori.exact.floor_sqrt` otherwise (:meth:`Lattice.syllable`).
:func:`_trace_lattice` applies it once per syllable; :func:`trace_word`
without recorded points traces through it, and so does
:func:`trace_rational`, which takes integer numerators over an even W and
builds no point -- the form :func:`slittori.rational.certify_fixing` uses
on Z/2q.
:meth:`Lattice.run` steps one unit at a time and stays the engine for
``trace_word(record_points=True)``, :func:`m_sequence` and the window
searches of :mod:`slittori.irrational`, which need every intermediate
point.  The test suite checks both against each other and against a
reference that steps :class:`~slittori.exact.ExactScalar` values.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import islice
from math import lcm

from .exact import (
    ExactScalar, FieldMismatchError, Frozen, floor_sqrt, mod_half_open, negative, scalar,
)
from .words import THETA, GenWord, IntMat2

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
                raise ExcludedPointError(f"{pair} is a puncture")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @classmethod
    def of(cls, x, y) -> "TorusPoint":
        """Build from any scalar-likes, reducing mod 1 into [-1/2, 1/2)."""
        return cls(mod_half_open(scalar(x)), mod_half_open(scalar(y)))

    @property
    def is_rational(self) -> bool:
        return self.x.is_rational and self.y.is_rational

    def as_fractions(self) -> tuple[Fraction, Fraction]:
        return (self.x.as_fraction(), self.y.as_fraction())

    def __str__(self):
        return f"({self.x}, {self.y})"


def in_region_E(z: TorusPoint) -> bool:
    """x > -1/2 and y > -1/2."""
    m = ExactScalar(-1, 0, 2)
    return z.x > m and z.y > m


class HomologyAction(Frozen):
    """An element of PGL(2,Z): a 2x2 integer matrix up to global sign.

    The stored representative has its first nonzero entry positive.
    """

    __slots__ = ("m",)

    def __init__(self, m: IntMat2):
        if abs(m.det()) != 1:
            raise ValueError(f"homology action must have det +-1, got {m.det()}")
        if (m.a or m.b or m.c) < 0:  # d cannot be the first nonzero entry when det != 0
            m = -m
        object.__setattr__(self, "m", m)

    def __eq__(self, other):
        return isinstance(other, HomologyAction) and self.m == other.m

    def __hash__(self):
        return hash(self.m.entries())

    def __mul__(self, other: "HomologyAction") -> "HomologyAction":
        return HomologyAction(self.m * other.m)

    @property
    def is_identity(self) -> bool:
        m = self.m
        return m.a == 1 and m.b == 0 and m.c == 0 and m.d == 1

    @property
    def fixes_beta(self) -> bool:
        """True when the action is +-(h-)^k, i.e. maps beta to +-beta."""
        m = self.m
        return m.b == 0 and m.a == 1 and m.d == 1

    @property
    def h_minus_exponent(self) -> int | None:
        return self.m.c if self.fixes_beta else None

    def __str__(self):
        return f"+-{self.m}"

    def __repr__(self):
        return f"HomologyAction({self.m!r})"


class ActionTrace(Frozen):
    __slots__ = ("start", "word", "points", "final", "action")

    def __init__(
        self,
        start: TorusPoint,
        word: GenWord,
        points: tuple[TorusPoint, ...],
        final: TorusPoint,
        action: HomologyAction,
    ):
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "final", final)
        object.__setattr__(self, "action", action)


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

    def syllable(self, moving: Coord, fixed: Coord, n: int) -> tuple[Coord, int]:
        """The first ``n`` steps of :meth:`run` in closed form: the moving
        coordinate after them and their running count m.

        With t = moving - n*fixed and k = -floor((t + W/2)/W) the steps end
        at t + k W after |k| wraps, all the same way, so m = n - 2|k|.  In
        lattice units t + W/2 is u + W/2 + v sqrt(D), whose floor is the
        integer u + W/2 + floor(v sqrt(D)); ``// W`` floors it once more.
        """
        u, v = moving[0] - n * fixed[0], moving[1] - n * fixed[1]
        h = u + self.half
        if v:
            h += floor_sqrt(v, self.D)
        k = -(h // self.W)
        return (u + k * self.W, v), n - 2 * abs(k)


def _trace_lattice(
    lat: Lattice, x: Coord, y: Coord, syllables
) -> tuple[Coord, Coord, int, int, int, int]:
    """Trace ``syllables`` from the lattice point (x, y), one closed-form
    syllable at a time: the end point and the entries a, b, c, d of the
    homology action, before sign canonicalisation."""
    a, b, c, d = 1, 0, 0, 1
    for gen, n in syllables:
        if gen == "h+":
            x, m = lat.syllable(x, y, n)
            b, d = b + m * a, d + m * c  # right-multiply by (h+)^m
        else:
            y, m = lat.syllable(y, x, n)
            a, c = a + m * b, c + m * d  # right-multiply by (h-)^m
    return x, y, a, b, c, d


def trace_rational(W: int, x: int, y: int, syllables) -> tuple[int, int, HomologyAction]:
    """Trace ``syllables`` from the rational point (x/W, y/W), one
    closed-form syllable at a time, without building a point: the end
    point's numerators over W and the homology action there.

    W is even and x, y lie in [-W/2, W/2).
    """
    half = W // 2
    if W < 2 or W % 2 or not (-half <= x < half and -half <= y < half):
        raise ValueError(f"({x}, {y})/{W} is not a point of [-1/2, 1/2)^2 over an even W")
    lat = Lattice()
    lat.W, lat.half = W, half
    (x, _), (y, _), *mat = _trace_lattice(lat, (x, 0), (y, 0), syllables)
    return x, y, HomologyAction(IntMat2(*mat))


def trace_word(z: TorusPoint, word: GenWord, record_points: bool = True) -> ActionTrace:
    """Trace a word through elementary inverse steps from ``z``.

    The returned trace ends at ``word^-1 z`` and carries the homology
    action of ``word`` evaluated there, as the ordered product of
    per-step factors at the post-step points.  The factors of one
    syllable are all powers of its generator, so they multiply to the
    generator raised to the syllable's running count.  Without recorded
    points every syllable takes one closed-form step.
    """
    lat = Lattice(z.x, z.y)
    x, y = lat.embed(z.x), lat.embed(z.y)
    if not record_points:
        x, y, *mat = _trace_lattice(lat, x, y, word.syllables)
        final, action = lat.point(x, y), HomologyAction(IntMat2(*mat))
        return ActionTrace(start=z, word=word, points=(), final=final, action=action)
    a, b, c, d = 1, 0, 0, 1
    points = []
    for gen, exp in word.syllables:
        if gen == "h+":
            for m, u, v in islice(lat.run(x, y), exp):
                points.append(lat.point((u, v), y))
            x = (u, v)
            b, d = b + m * a, d + m * c  # right-multiply by (h+)^m
        else:
            for m, u, v in islice(lat.run(y, x), exp):
                points.append(lat.point(x, (u, v)))
            y = (u, v)
            a, c = a + m * b, c + m * d  # right-multiply by (h-)^m
    action = HomologyAction(IntMat2(a, b, c, d))
    return ActionTrace(start=z, word=word, points=tuple(points), final=lat.point(x, y), action=action)


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


def involution_theta_action() -> HomologyAction:
    return HomologyAction(THETA)


def involution_minus_id(z: TorusPoint) -> TorusPoint:
    return TorusPoint(mod_half_open(-z.x), mod_half_open(-z.y))
