"""Exact scalars in a real quadratic field.

An :class:`ExactScalar` represents ``(u + v*sqrt(D)) / w`` with integer
``u, v``, positive integer ``w`` and squarefree ``D >= 0``.  With ``v = 0``
this is an ordinary rational, so the class covers every coordinate the
rest of the package needs: torus coordinates, slit lengths and window
endpoints.  All comparisons, signs and floors are computed exactly --
there is no floating point anywhere on this path.

Scalars with different radicands can be combined only when at least one
of them is rational; anything else raises :class:`FieldMismatchError`.
Values are immutable and hashable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import floor, gcd, isqrt
from operator import attrgetter


class FieldMismatchError(ValueError):
    """Raised when combining irrationals from different quadratic fields."""


class Record:
    """Base of the package's record classes.

    A subclass declares its fields as ``__slots__``, in constructor order.
    ``Name(*args, **kwargs)`` sets every field from the positional values
    in that order, then from keywords; every field is required.  Too many
    positional values, an unknown or repeated keyword, or a missing field
    raise :class:`TypeError`.  A subclass that checks or normalises its
    fields writes its own ``__init__``, which passes them on to this one
    or, on a hot path, sets them through the slot descriptors' setters in
    ``cls._setters``, unpacked once per class at module level
    (``_set_lo, _set_hi = RatInterval._setters``).
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # the slot descriptors' setters, which bypass Frozen.__setattr__
        cls._setters = tuple(vars(cls)[name].__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values of ``cls(*args, **kwargs)``, in slot order."""
        names, rest = cls.__slots__, cls.__slots__[len(args):]
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} positional, got {len(args)}")
        for name in kwargs:
            if name not in rest:
                how = "twice" if name in names else "as an unknown field"
                raise TypeError(f"{cls.__name__}() got {name!r} {how}")
        missing = [name for name in rest if name not in kwargs]
        if missing:
            raise TypeError(f"{cls.__name__}() missing field(s) {', '.join(map(repr, missing))}")
        return args + tuple(kwargs[name] for name in rest)


class Frozen(Record):
    """Base of the package's immutable value classes.

    Each field is set once, by the constructor; any later assignment or
    deletion raises :class:`AttributeError`.  A record compares and
    hashes by the values of its own ``__slots__``, and only with a record
    of its own class; its repr is ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


MAX_RADICAND = 2**32  # _squarefree_split's trial division up to sqrt(d) stays quick


@lru_cache(maxsize=256)
def _squarefree_split(d: int) -> tuple[int, int]:
    """Return ``(d0, f)`` with ``d = f*f*d0`` and ``d0`` squarefree.

    Memoised: every irrational scalar splits its radicand, and trial
    division takes milliseconds for a radicand near ``MAX_RADICAND``."""
    if d < 0:
        raise ValueError("radicand must be non-negative")
    if d > MAX_RADICAND:
        raise ValueError(f"radicand {d} is above the limit 2**32")
    d0, f = d, 1
    p = 2
    while p * p <= d0:
        while d0 % (p * p) == 0:
            d0 //= p * p
            f *= p
        p += 1 if p == 2 else 2
    return d0, f


def negative(u: int, v: int, D: int) -> bool:
    """Whether ``u + v*sqrt(D) < 0``, for ``v == 0`` or squarefree ``D >= 2``.

    Only opposite signs need a comparison of ``u*u`` with ``v*v*D``, which
    can never tie because ``sqrt(D)`` is irrational.
    """
    if v >= 0:
        return u < 0 and (v == 0 or u * u > v * v * D)
    return u <= 0 or v * v * D > u * u


def floor_sqrt(v: int, D: int) -> int:
    """floor(v * sqrt(D)) for ``v != 0`` and squarefree ``D >= 2``.

    v sqrt(D) is irrational, so for v < 0 it lies strictly between
    -isqrt(v*v*D) - 1 and -isqrt(v*v*D).
    """
    s = isqrt(v * v * D)
    return s if v > 0 else -s - 1


class ExactScalar(Frozen):
    __slots__ = ("u", "v", "w", "D")

    def __init__(self, u, v: int = 0, w: int = 1, D: int = 0):
        if isinstance(u, ExactScalar) and v == 0 and w == 1 and D == 0:
            u, v, w, D = u.u, u.v, u.w, u.D
        elif isinstance(u, Fraction) and v == 0 and w == 1 and D == 0:
            u, v, w, D = u.numerator, 0, u.denominator, 0
        if not (isinstance(u, int) and isinstance(v, int) and isinstance(w, int)
                and isinstance(D, int)):
            raise TypeError(f"components must be ints, got {u!r}, {v!r}, {w!r}, {D!r}")
        if w == 0:
            raise ZeroDivisionError("denominator w must be nonzero")
        if w < 0:
            u, v, w = -u, -v, -w
        if v != 0:
            D, f = _squarefree_split(D)
            v *= f
        if v == 0 or D == 0:
            v, D = 0, 0
        if D == 1:  # sqrt(1) folds into the rational part
            u, v, D = u + v, 0, 0
        g = gcd(u, v, w)
        if g > 1:
            u, v, w = u // g, v // g, w // g
        _set_u(self, u)
        _set_v(self, v)
        _set_w(self, w)
        _set_D(self, D)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_fraction(cls, q) -> "ExactScalar":
        q = Fraction(q)
        return cls(q.numerator, 0, q.denominator, 0)

    # -- queries ------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.v == 0

    @property
    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def as_fraction(self) -> Fraction:
        if self.v != 0:
            raise ValueError(f"{self!r} is irrational")
        return Fraction(self.u, self.w)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.u, self.v, self.w, self.D)

    def as_json(self) -> list[int]:
        """[u, v, w, D], the form spec files and reports store."""
        return [self.u, self.v, self.w, self.D]

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}."""
        if self.u == 0 and self.v == 0:
            return 0
        return -1 if negative(self.u, self.v, self.D) else 1

    # -- coercion -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ExactScalar):
            return other
        if isinstance(other, int):
            return ExactScalar(other)
        if isinstance(other, Fraction):
            return ExactScalar.from_fraction(other)
        return None

    def _join_D(self, other: "ExactScalar") -> int:
        if self.v == 0:
            return other.D
        if other.v == 0:
            return self.D
        if self.D != other.D:
            raise FieldMismatchError(
                f"cannot combine sqrt({self.D}) with sqrt({other.D})"
            )
        return self.D

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        D = self._join_D(o)
        return ExactScalar(
            self.u * o.w + o.u * self.w,
            self.v * o.w + o.v * self.w,
            self.w * o.w,
            D,
        )

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar(-self.u, -self.v, self.w, self.D)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        D = self._join_D(o)
        return ExactScalar(
            self.u * o.u + self.v * o.v * D,
            self.u * o.v + self.v * o.u,
            self.w * o.w,
            D,
        )

    __rmul__ = __mul__

    def _inverse(self) -> "ExactScalar":
        if self.is_zero:
            raise ZeroDivisionError("division by zero ExactScalar")
        # w / (u + v sqrt(D)) = w (u - v sqrt(D)) / (u^2 - v^2 D)
        n = self.u * self.u - self.v * self.v * self.D
        return ExactScalar(self.w * self.u, -self.w * self.v, n, self.D)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._join_D(o)
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self._inverse()

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- order --------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.as_tuple() == o.as_tuple()

    def __hash__(self):
        if self.v == 0:
            return hash(Fraction(self.u, self.w))
        return hash(self.as_tuple())

    def _cmp(self, other) -> int:
        return (self - other).sign()

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) >= 0

    # -- rounding -----------------------------------------------------

    def __floor__(self) -> int:
        # floor((u + x)/w) = floor((u + floor(x))/w) for integer u and w > 0
        if self.v == 0:
            return self.u // self.w
        return (self.u + floor_sqrt(self.v, self.D)) // self.w

    def enclosure(self, bits: int = 64) -> tuple[Fraction, Fraction]:
        """Rational interval containing the value, width <= 2**(1-bits)."""
        if self.v == 0:
            q = Fraction(self.u, self.w)
            return (q, q)
        scale = 1 << bits
        n = self.u * scale + floor_sqrt(self.v * scale, self.D)
        return (Fraction(n, self.w * scale), Fraction(n + 1, self.w * scale))

    def __float__(self) -> float:
        lo, hi = self.enclosure(80)
        return float((lo + hi) / 2)

    # -- display ------------------------------------------------------

    def __repr__(self):
        return f"ExactScalar({self.u}, {self.v}, {self.w}, {self.D})"

    def __str__(self):
        if self.v == 0:
            return str(Fraction(self.u, self.w))
        core = f"{self.u}+{self.v}*sqrt({self.D})" if self.v >= 0 else f"{self.u}{self.v}*sqrt({self.D})"
        if self.w == 1:
            return f"({core})"
        return f"({core})/{self.w}"


_set_u, _set_v, _set_w, _set_D = ExactScalar._setters


def scalar(value) -> ExactScalar:
    """Coerce int / Fraction / ExactScalar to ExactScalar."""
    if isinstance(value, ExactScalar):
        return value
    if isinstance(value, int):
        return ExactScalar(value)
    if isinstance(value, Fraction):
        return ExactScalar.from_fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to ExactScalar")


def parse_scalar(text: str) -> ExactScalar:
    """Parse ``p/q`` or ``u:v:w:D`` (meaning ``(u+v*sqrt(D))/w``)."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 4:
            raise ValueError(f"expected u:v:w:D, got {text!r}")
        u, v, w, D = (int(p) for p in parts)
        return ExactScalar(u, v, w, D)
    return ExactScalar.from_fraction(Fraction(text))


def mod_half_open(x):
    """Unique representative of ``x`` mod 1 in ``[-1/2, 1/2)``.

    Type-preserving: an int, Fraction or ExactScalar comes back as the
    same type (``x`` itself when it is already in range).
    """
    n = floor(x + Fraction(1, 2))
    return x - n if n else x
