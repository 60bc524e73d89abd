"""Reference orbit stepping over ExactScalar, for differential tests.

This is the slow, obviously correct stepping rule: every coordinate is an
:class:`~slittori.exact.ExactScalar`, every step calls ``mod_half_open`` and
every region test is an ExactScalar comparison.  The library's integer
kernel (:class:`slittori.torus.Lattice`) must agree with it step for step:
endpoints, homology actions, recorded points, window-search candidates and
the search budget spent.  ``in_region_S``, ``apply_generator_inverse`` and
``generator_homology_factor`` are the per-step rule it is built from.
``word_matrix`` multiplies a word's matrix out of generator powers, the
reference for the closed-form :meth:`~slittori.words.GenWord.matrix`.
``_trace_lattice`` applies the closed-form syllable rule to
(generator, exponent) pairs, one generator test per syllable: the
reference for the library kernel, which takes a leading generator and
the exponents of an alternating word.  ``syllables_of`` rebuilds those
pairs from a word's leading generator and digits, for every reference
here that steps a word syllable by syllable.  ``entries_are_identity``
and ``entries_fix_beta`` are the verdict rules as first written, on the
canonical entries only: the reference for the library's rules, which
are exact on any integer entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator

from slittori.exact import ExactScalar, floor_sqrt, mod_half_open, scalar
from slittori.irrational import (
    DEFAULT_A_MIN,
    DEFAULT_BUDGET,
    DEFAULT_J,
    DerivationError,
    SearchBudgetExceededError,
)
from slittori.torus import TorusPoint, canonical_entries
from slittori.words import H_MINUS, H_PLUS, IDENTITY, GenWord, IntMat2

GEN_MATRIX = {"h+": H_PLUS, "h-": H_MINUS}


class Budget:
    """The reference searches' own count of generator applications: one
    unit before each step, exhausted past ``limit``."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise SearchBudgetExceededError(
                f"budget of {self.limit} generator applications exhausted"
            )


def entries_are_identity(a: int, b: int, c: int, d: int) -> bool:
    """+-I: the canonical entries (|det| = 1, or ValueError) are 1, 0, 0, 1."""
    a, b, c, d = canonical_entries(a, b, c, d)
    return b == 0 and c == 0 and a == d


def entries_fix_beta(a: int, b: int, c: int, d: int) -> bool:
    """+-(h-)^k: the canonical entries (|det| = 1, or ValueError) have
    b = 0 and a = d, which with a d = +-1 leaves +-1 on the diagonal."""
    a, b, c, d = canonical_entries(a, b, c, d)
    return b == 0 and a == d


def matrix_power(m: IntMat2, n: int) -> IntMat2:
    """m**n by repeated squaring; a negative n powers the inverse."""
    base = m if n >= 0 else m.inverse()
    n = abs(n)
    result = IDENTITY
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def syllables_of(word: GenWord) -> tuple[tuple[str, int], ...]:
    """The word's (generator, exponent) pairs, alternating from its leading one."""
    other = {"h+": "h-", "h-": "h+"}
    gen, out = word.leading, []
    for exp in word.digits:
        out.append((gen, exp))
        gen = other[gen]
    return tuple(out)


def word_matrix(word: GenWord) -> IntMat2:
    """The word's matrix as the product of its syllables' generator powers."""
    m = IDENTITY
    for gen, exp in syllables_of(word):
        m = m * matrix_power(GEN_MATRIX[gen], exp)
    return m


def in_region_S(z: TorusPoint) -> bool:
    """-1/2 <= x + y < 1/2 on the literal canonical coordinates."""
    s = z.x + z.y
    return ExactScalar(-1, 0, 2) <= s < ExactScalar(1, 0, 2)


def apply_generator_inverse(z: TorusPoint, gen: str, n: int = 1) -> TorusPoint:
    """(h+)^-n or (h-)^-n applied to z."""
    if n < 1:
        raise ValueError("n must be positive")
    if gen == "h+":
        return TorusPoint(mod_half_open(z.x - n * z.y), z.y)
    if gen == "h-":
        return TorusPoint(z.x, mod_half_open(z.y - n * z.x))
    raise ValueError(f"unknown generator {gen!r}")


def generator_homology_factor(z_after: TorusPoint, gen: str) -> IntMat2:
    """The per-step homology factor, evaluated at the post-step point."""
    m = GEN_MATRIX[gen]
    return m if in_region_S(z_after) else m.inverse()


def _trace_lattice(
    W: int, D: int, xu: int, xv: int, yu: int, yv: int, syllables
) -> tuple[int, int, int, int, int, int, int, int]:
    """Trace ``syllables`` from x = (xu + xv sqrt(D))/W, y = (yu + yv sqrt(D))/W
    on the lattice (Z + Z sqrt(D))/W, one closed-form syllable at a time:
    the flat tuple (xu, xv, yu, yv, a, b, c, d) of the end point and the
    entries of the homology action, before sign canonicalisation.  The floor of
    t + W/2 = u + W/2 + v sqrt(D) is the integer u + W/2 + floor(v sqrt(D)).
    A generator other than h+ and h-, or an exponent below 1, raises
    :class:`ValueError`."""
    half = W // 2
    a, b, c, d = 1, 0, 0, 1
    for gen, n in syllables:
        if n < 1:
            raise ValueError(f"exponent must be positive, got {n}")
        if gen == "h+":
            xu, xv = xu - n * yu, xv - n * yv
            k = -((xu + half + floor_sqrt(xv, D) if xv else xu + half) // W)
            xu += k * W
            m = n - 2 * abs(k)
            b, d = b + m * a, d + m * c  # right-multiply by (h+)^m
        elif gen == "h-":
            yu, yv = yu - n * xu, yv - n * xv
            k = -((yu + half + floor_sqrt(yv, D) if yv else yu + half) // W)
            yu += k * W
            m = n - 2 * abs(k)
            a, c = a + m * b, c + m * d  # right-multiply by (h-)^m
        else:
            raise ValueError(f"unknown generator {gen!r}")
    return xu, xv, yu, yv, a, b, c, d


def trace_rational_core(ix, iy, full, word, collect):
    half = full // 2
    a, b, c, d = 1, 0, 0, 1
    pts = [] if collect else None
    for gen, exp in syllables_of(word):
        if gen == "h+":
            for _ in range(exp):
                ix = (ix - iy + half) % full - half
                if -half <= ix + iy < half:
                    b, d = a + b, c + d  # right-multiply by h+
                else:
                    b, d = b - a, d - c  # ... by (h+)^-1
                if collect:
                    pts.append((ix, iy))
        else:
            for _ in range(exp):
                iy = (iy - ix + half) % full - half
                if -half <= ix + iy < half:
                    a, c = a + b, c + d  # right-multiply by h-
                else:
                    a, c = a - b, c - d  # ... by (h-)^-1
                if collect:
                    pts.append((ix, iy))
    return ix, iy, (a, b, c, d), pts


def trace_quadratic_core(x, y, word, collect):
    a, b, c, d = 1, 0, 0, 1
    pts = [] if collect else None
    lo, hi = ExactScalar(-1, 0, 2), ExactScalar(1, 0, 2)
    for gen, exp in syllables_of(word):
        if gen == "h+":
            for _ in range(exp):
                x = mod_half_open(x - y)
                if lo <= x + y < hi:
                    b, d = a + b, c + d
                else:
                    b, d = b - a, d - c
                if collect:
                    pts.append((x, y))
        else:
            for _ in range(exp):
                y = mod_half_open(y - x)
                if lo <= x + y < hi:
                    a, c = a + b, c + d
                else:
                    a, c = a - b, c - d
                if collect:
                    pts.append((x, y))
    return x, y, (a, b, c, d), pts


def trace_word(z: TorusPoint, word: GenWord, record_points: bool = True):
    """(final, points, entries) by the rational or the quadratic core: the
    end point, the recorded points and the canonical entries of the action."""
    if z.is_rational:
        fx, fy = z.x.as_fraction(), z.y.as_fraction()
        full = lcm(fx.denominator, fy.denominator, 2)
        ix = fx.numerator * (full // fx.denominator)
        iy = fy.numerator * (full // fy.denominator)
        ix, iy, mat, pts = trace_rational_core(ix, iy, full, word, record_points)
        final = TorusPoint.of(Fraction(ix, full), Fraction(iy, full))
        points = tuple(
            TorusPoint.of(Fraction(px, full), Fraction(py, full)) for px, py in (pts or ())
        )
    else:
        x, y, mat, pts = trace_quadratic_core(z.x, z.y, word, record_points)
        final = TorusPoint(x, y)
        points = tuple(TorusPoint(px, py) for px, py in (pts or ()))
    return final, points, canonical_entries(*mat)


def m_sequence(z: TorusPoint, gen: str, n_max: int) -> list[int]:
    out = []
    m = 0
    cur = z
    for _ in range(n_max):
        cur = apply_generator_inverse(cur, gen)
        m += 1 if in_region_S(cur) else -1
        out.append(m)
    return out


def a_candidates(z: TorusPoint, a_min: int, budget: Budget) -> Iterator[tuple[int, int, ExactScalar]]:
    x, y = z.x, z.y
    half = Fraction(1, 2)
    window = min(y, ExactScalar(1, 0, 2) - y) * Fraction(1, 2)
    cur = x
    m = 0
    j = 0
    while True:
        j += 1
        budget.spend()
        cur = mod_half_open(cur - y)
        m += 1 if in_region_S(TorusPoint(cur, y)) else -1
        if j < a_min or m <= 0:
            continue
        eps1 = cur + half
        if ExactScalar(0) < eps1 < window:
            yield (j, m, cur)


def b_candidates(z3: TorusPoint, a_prime: int, budget: Budget) -> Iterator[tuple[int, int, ExactScalar]]:
    x3, y3 = z3.x, z3.y
    half = Fraction(1, 2)
    ax3 = abs(x3)
    window = min(ax3, ExactScalar(1, 0, 2) - ax3) * Fraction(1, 2)
    cur = y3
    m = 0
    j = 0
    while True:
        j += 1
        budget.spend()
        cur = mod_half_open(cur - x3)
        m += 1 if in_region_S(TorusPoint(x3, cur)) else -1
        if m <= a_prime:
            continue
        eps2 = half - cur
        if ExactScalar(0) < eps2 < window:
            yield (j, m, cur)


def c_candidates(z6: TorusPoint, target: int, budget: Budget) -> Iterator[tuple[int, ExactScalar]]:
    x6, y6 = z6.x, z6.y
    cur = x6
    m = 0
    j = 0
    while True:
        j += 1
        budget.spend()
        cur = mod_half_open(cur - y6)
        m += 1 if in_region_S(TorusPoint(cur, y6)) else -1
        if m == target:
            yield (j, cur)


def d_candidates(z7: TorusPoint, J, budget: Budget) -> Iterator[tuple[int, ExactScalar]]:
    x7, y7 = z7.x, z7.y
    lo, hi = J
    cur = y7
    j = 0
    while True:
        j += 1
        budget.spend()
        cur = mod_half_open(cur - x7)
        if lo <= cur <= hi:
            yield (j, cur)


def find_block(
    z: TorusPoint,
    J: tuple = DEFAULT_J,
    a_min: int = DEFAULT_A_MIN,
    d_index: int = 1,
    budget: int = DEFAULT_BUDGET,
    max_widenings: int = 8,
):
    """((a, b, c, d), z_out, eps1, eps2, budget used) of the first certified block."""
    J = (scalar(J[0]), scalar(J[1]))
    y = z.y
    bud = Budget(budget)
    widenings = 0
    for a, a_prime, x1 in a_candidates(z, a_min, bud):
        eps1 = x1 + Fraction(1, 2)
        z2 = TorusPoint(x1, mod_half_open(y - x1))
        if in_region_S(z2):
            raise DerivationError("z2 unexpectedly in S")
        z3 = TorusPoint(mod_half_open(z2.x - z2.y), z2.y)
        if not in_region_S(z3):
            raise DerivationError("z3 unexpectedly outside S")
        if z3.x.sign() >= 0 or z3.x.is_rational:
            raise DerivationError("x3")
        b, b_prime, y4 = next(b_candidates(z3, a_prime, bud))
        eps2 = ExactScalar(1, 0, 2) - y4
        z5 = TorusPoint(mod_half_open(z3.x - y4), y4)
        if in_region_S(z5):
            raise DerivationError("z5 unexpectedly in S")
        z6 = TorusPoint(z5.x, mod_half_open(z5.y - z5.x))
        if not in_region_S(z6) or z6.y.is_rational:
            raise DerivationError("z6")
        c, x7 = next(c_candidates(z6, b_prime - a_prime, bud))
        z7 = TorusPoint(x7, z6.y)
        if x7.is_rational:
            raise DerivationError("x7")
        seen_d = 0
        tried_here = 0
        for d, y_out in d_candidates(z7, J, bud):
            seen_d += 1
            if seen_d < d_index:
                continue
            word = GenWord.from_digits((a, 1, 1, b, 1, 1, c, d))
            final, _, action = trace_word(z, word, record_points=False)
            z_out = TorusPoint(z7.x, y_out)
            if final == z_out and J[0] <= final.y <= J[1] and entries_fix_beta(*action):
                return (a, b, c, d), final, eps1, eps2, bud.used
            widenings += 1
            tried_here += 1
            if widenings >= max_widenings:
                raise SearchBudgetExceededError("widenings")
            if tried_here >= 3:
                break
    raise SearchBudgetExceededError("candidate generators exhausted")
