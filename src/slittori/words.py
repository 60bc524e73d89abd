"""2x2 integer matrices, generator words and continued-fraction convergents.

The shear generators are

    h+ = [[1,1],[0,1]],   h- = [[1,0],[1,1]],

with the quarter-turn ``omega = [[0,1],[-1,0]]`` and the diagonal swap
``theta = [[0,1],[1,0]]``.  Words are strictly alternating products of
powers of h+ and h-; an h+-leading word with digit list (a1, ..., ak)
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

    def __init__(self, a: int, b: int, c: int, d: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def __mul__(self, other: "IntMat2") -> "IntMat2":
        return IntMat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "IntMat2":
        return IntMat2(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "IntMat2":
        det = self.det()
        if det == 1:
            return IntMat2(self.d, -self.b, -self.c, self.a)
        if det == -1:
            return IntMat2(-self.d, self.b, self.c, -self.a)
        raise ValueError(f"matrix with det {det} is not invertible over Z")

    def __pow__(self, n: int) -> "IntMat2":
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = IDENTITY
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def apply(self, x, y):
        """Column-vector action: (x, y) -> (a x + b y, c x + d y)."""
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


IDENTITY = IntMat2(1, 0, 0, 1)
H_PLUS = IntMat2(1, 1, 0, 1)
H_MINUS = IntMat2(1, 0, 1, 1)
OMEGA = IntMat2(0, 1, -1, 0)
THETA = IntMat2(0, 1, 1, 0)

GEN_MATRIX = {"h+": H_PLUS, "h-": H_MINUS}


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


_OTHER = {"h+": "h-", "h-": "h+"}


class GenWord(Frozen):
    """Alternating word in the generators h+ and h-.

    ``syllables`` is a tuple of (generator, exponent) pairs with
    positive exponents and strictly alternating generators.
    """

    __slots__ = ("syllables",)

    def __init__(self, syllables: tuple[tuple[str, int], ...]):
        prev = None
        for gen, exp in syllables:
            if gen not in ("h+", "h-"):
                raise ValueError(f"unknown generator {gen!r}")
            if exp < 1:
                raise ValueError(f"exponent must be positive, got {exp}")
            if gen == prev:
                raise ValueError("syllables must alternate generators")
            prev = gen
        object.__setattr__(self, "syllables", syllables)

    @classmethod
    def from_digits(cls, digits: Iterable[int], leading: str = "h+") -> "GenWord":
        """Word (h+)^a1 (h-)^a2 ... from a digit list."""
        gen = leading
        syl = []
        for d in digits:
            syl.append((gen, int(d)))
            gen = _OTHER[gen]
        return cls(tuple(syl))

    @classmethod
    def power(cls, gen: str, n: int) -> "GenWord":
        return cls(((gen, n),))

    def digits(self) -> tuple[int, ...]:
        return tuple(exp for _, exp in self.syllables)

    def __len__(self) -> int:
        return len(self.syllables)

    @property
    def step_count(self) -> int:
        return sum(exp for _, exp in self.syllables)

    def __mul__(self, other: "GenWord") -> "GenWord":
        """Concatenation, merging the seam syllable when generators match."""
        if not self.syllables:
            return other
        if not other.syllables:
            return self
        left, right = list(self.syllables), list(other.syllables)
        if left[-1][0] == right[0][0]:
            gen, e1 = left.pop()
            _, e2 = right[0]
            right[0] = (gen, e1 + e2)
        return GenWord(tuple(left + right))

    def matrix(self) -> IntMat2:
        m = IDENTITY
        for gen, exp in self.syllables:
            m = m * (GEN_MATRIX[gen] ** exp)
        return m

    def theta_conjugate(self) -> "GenWord":
        """The word theta * w * theta^-1, i.e. h+ and h- exchanged."""
        return GenWord(tuple((_OTHER[g], e) for g, e in self.syllables))

    def __str__(self):
        return " ".join(f"{g}^{e}" if e > 1 else g for g, e in self.syllables)


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
        self.extend(digits)

    def extend(self, digits: Iterable[int]) -> None:
        for d in digits:
            d = int(d)
            if d < 1:
                raise ValueError(f"continued-fraction digit must be >= 1, got {d}")
            self._digits.append(d)
            self._p.append(d * self._p[-1] + self._p[-2])
            self._q.append(d * self._q[-1] + self._q[-2])

    @property
    def digits(self) -> tuple[int, ...]:
        return tuple(self._digits)

    def __len__(self) -> int:
        return len(self._digits)

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
        """p_{k-1} q_k - p_k q_{k-1} == (-1)^k at every filled index."""
        for k in range(0, len(self._digits) + 1):
            lhs = self.p(k - 1) * self.q(k) - self.p(k) * self.q(k - 1)
            if lhs != (-1) ** k:
                return False
        return True

    def matrix(self, k: int) -> IntMat2:
        """[[q_k, q_{k-1}], [p_k, p_{k-1}]]; equals the k-digit word matrix
        for even k."""
        return IntMat2(self.q(k), self.q(k - 1), self.p(k), self.p(k - 1))

    def bracket(self, k: int) -> tuple[Fraction, Fraction]:
        """Closed rational interval containing every extension of the
        first k digits (consecutive convergents, sorted)."""
        if k < 1:
            raise ValueError("bracket needs at least one digit")
        a, b = self.value(k - 1), self.value(k)
        return (a, b) if a <= b else (b, a)
