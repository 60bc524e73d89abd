"""2x2 integer matrices, generator words and continued-fraction convergents.

The shear generators are

    h+ = [[1,1],[0,1]],   h- = [[1,0],[1,1]],

with the quarter-turn ``omega = [[0,1],[-1,0]]`` and the diagonal swap
``theta = [[0,1],[1,0]]``.  Words are strictly alternating products of
powers of h+ and h-, so a word is its leading generator and its digit
list, the exponents in order; an h+-leading word with digits (a1, ..., ak)
is the matrix product (h+)^a1 (h-)^a2 ... read left to right, and for
even k its matrix is [[q_k, q_{k-1}], [p_k, p_{k-1}]] in terms of the
convergents p_i/q_i of [0; a1, ..., ak].
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from .exact import Frozen


class IntMat2(Frozen):
    """Row-major [[a, b], [c, d]] with integer entries."""

    __slots__ = ("a", "b", "c", "d")

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def __mul__(self, other: "IntMat2") -> "IntMat2":
        return IntMat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "IntMat2":
        det = self.det()
        if det == 1:
            return IntMat2(self.d, -self.b, -self.c, self.a)
        if det == -1:
            return IntMat2(-self.d, self.b, self.c, -self.a)
        raise ValueError(f"matrix with det {det} is not invertible over Z")

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


IDENTITY = IntMat2(1, 0, 0, 1)
H_PLUS = IntMat2(1, 1, 0, 1)
H_MINUS = IntMat2(1, 0, 1, 1)
OMEGA = IntMat2(0, 1, -1, 0)
THETA = IntMat2(0, 1, 1, 0)


def check_relations() -> tuple[bool, list[str]]:
    """Verify the defining identities among h+, h-, omega and theta.

    Returns ``(ok, failures)`` where ``failures`` names each identity
    that does not hold as an exact matrix equality.
    """
    ti = THETA.inverse()
    oi = OMEGA.inverse()
    checks = [
        ("theta h+ theta^-1 == h-", THETA * H_PLUS * ti == H_MINUS),
        ("theta h- theta^-1 == h+", THETA * H_MINUS * ti == H_PLUS),
        ("theta omega theta^-1 == omega^-1", THETA * OMEGA * ti == oi),
        ("theta omega^-1 theta^-1 == omega", THETA * oi * ti == OMEGA),
        ("omega h+ omega^-1 == (h-)^-1", OMEGA * H_PLUS * oi == H_MINUS.inverse()),
        ("omega h- omega^-1 == (h+)^-1", OMEGA * H_MINUS * oi == H_PLUS.inverse()),
        ("h- (h+)^-1 h- == omega^-1", H_MINUS * H_PLUS.inverse() * H_MINUS == oi),
        ("h+ (h-)^-1 h+ == omega", H_PLUS * H_MINUS.inverse() * H_PLUS == OMEGA),
    ]
    failures = [name for name, ok in checks if not ok]
    return (not failures, failures)


class GenWord(Frozen):
    """Alternating word in the generators h+ and h-.

    ``leading`` is the first generator, ``"h+"`` or ``"h-"``, and
    ``digits`` the positive int exponents in order; the generators
    alternate from ``leading``.  The empty word is led by ``"h+"``, so
    that it has one form.
    """

    __slots__ = ("leading", "digits")

    def __init__(self, leading: str, digits: tuple[int, ...]):
        if leading != "h+" and leading != "h-":
            raise ValueError(f"unknown generator {leading!r}")
        for n in digits:
            if not isinstance(n, int):
                raise TypeError(f"exponent must be an int, got {n!r}")
            if n < 1:
                raise ValueError(f"exponent must be positive, got {n}")
        _set_leading(self, leading if digits else "h+")
        _set_digits(self, digits)

    @classmethod
    def from_digits(cls, digits: Iterable[int], leading: str = "h+") -> "GenWord":
        """Word (h+)^a1 (h-)^a2 ... from a digit list."""
        return cls(leading, tuple(digits))

    @property
    def step_count(self) -> int:
        return sum(self.digits)

    def __mul__(self, other: "GenWord") -> "GenWord":
        """Concatenation, merging the seam syllable when generators match."""
        left, right = self.digits, other.digits
        if not left:
            return other
        if not right:
            return self
        # a word of odd length ends on its leading generator
        if (len(left) % 2 == 1) == (self.leading == other.leading):
            left, right = left[:-1], (left[-1] + right[0],) + right[1:]
        return GenWord(self.leading, left + right)

    def matrix(self) -> IntMat2:
        a, b, c, d = 1, 0, 0, 1
        plus = self.leading == "h+"
        for n in self.digits:
            if plus:
                b, d = b + n * a, d + n * c  # right-multiply by (h+)^n
            else:
                a, c = a + n * b, c + n * d  # right-multiply by (h-)^n
            plus = not plus
        return IntMat2(a, b, c, d)

    def theta_conjugate(self) -> "GenWord":
        """The word theta * w * theta^-1, i.e. h+ and h- exchanged."""
        return GenWord("h-" if self.leading == "h+" else "h+", self.digits)


_set_leading, _set_digits = GenWord._setters


class Convergents:
    """Continuant arrays p, q of a continued fraction [0; a1, a2, ...].

    Seeds are p_0 = 0, p_{-1} = 1, q_0 = 1, q_{-1} = 0 and
    p_k = a_k p_{k-1} + p_{k-2} (same for q).  The instance is
    extendable: `extend` appends digits, so a lazily produced digit
    stream can share one growing table.
    """

    def __init__(self, digits: Iterable[int] = ()):
        self._digits: list[int] = []
        self._p: list[int] = [1, 0]  # p_{-1}, p_0, p_1, ...
        self._q: list[int] = [0, 1]
        self._det_checked = -1  # the determinant identity holds at 0.._det_checked
        self.extend(digits)

    def extend(self, digits: Iterable[int]) -> None:
        for d in digits:
            if not isinstance(d, int):
                raise TypeError(f"continued-fraction digit must be an int, got {d!r}")
            if d < 1:
                raise ValueError(f"continued-fraction digit must be >= 1, got {d}")
            self._digits.append(d)
            self._p.append(d * self._p[-1] + self._p[-2])
            self._q.append(d * self._q[-1] + self._q[-2])

    @property
    def digits(self) -> tuple[int, ...]:
        return tuple(self._digits)

    def p(self, k: int) -> int:
        if k < -1 or k > len(self._digits):
            raise IndexError(f"p_{k} not available")
        return self._p[k + 1]

    def q(self, k: int) -> int:
        if k < -1 or k > len(self._digits):
            raise IndexError(f"q_{k} not available")
        return self._q[k + 1]

    def value(self, k: int | None = None) -> Fraction:
        if k is None:
            k = len(self._digits)
        return Fraction(self.p(k), self.q(k))

    def determinant_identity_holds(self) -> bool:
        """p_{k-1} q_k - p_k q_{k-1} == (-1)^k at every filled index.

        The table only grows, so each call checks just the indices filled
        since the last index that held."""
        p, q = self._p, self._q
        for k in range(self._det_checked + 1, len(self._digits) + 1):
            if p[k] * q[k + 1] - p[k + 1] * q[k] != (-1) ** k:
                return False
            self._det_checked = k
        return True

    def bracket(self, k: int) -> tuple[Fraction, Fraction]:
        """Closed rational interval containing every extension of the
        first k digits (consecutive convergents, sorted)."""
        if k < 1:
            raise ValueError("bracket needs at least one digit")
        a, b = self.value(k - 1), self.value(k)
        return (a, b) if a <= b else (b, a)
