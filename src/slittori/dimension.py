"""Lower bounds for the dimension of block-constrained digit sets.

For an odd-length block (a_1, ..., a_m) and free digits drawn from the
progression b*l + c, the l-th branch map of the induced iterated
function system contracts by at least

    d_l = 1 / (q_m * (l + 1) + q_{m-1})**2

where q_m, q_{m-1} are the block's continuants.  Along the progression
d^{1/2}_{b l + c} = 1/(A l + B) with the two integers

    A = b q_m,    B = q_m (c + 1) + q_{m-1},

which :class:`DimensionProblem` derives once, with the continuants
p_m, p_{m-1}, q_m, q_{m-1}; every function below reads them from there.
The truncated Moran equation  sum_{l=1..u} d_{b l + c}^s = 1  has a
unique root s_u, a certified dimension lower bound, and s_u > 1/2
exactly when sum_{l<=u} 1/(A l + B) > 1.

The certificate has two routes.  The direct one adds those exact
rationals until they exceed 1.  That needs (A u + B)/(A + B) >
e**(A - A/(A + B)) (see ``dimension_certificate``), so two integer
tests decide before any summing whether the direct loop can succeed
within its cap; for blocks with large continuants the loop is skipped.  The
divergence route's verdict rests on a symbolic witness u* = (A + B) 3**A:
each term exceeds the integral of 1/(A x + B) over [l, l + 1], and
A (u* + 1) + B >= 3**A (A + B), so

    sum_{l<=u*} 1/(A l + B) > (1/A) ln((A (u* + 1) + B)/(A + B)) >= ln 3 > 1.

The power is never computed: the certificate carries the base, A and B,
and compares the base exactly with a rational upper bound on e.

``solve_su`` finds s_u by float bisection.  Each evaluation of the Moran
sum adds its first 64 terms directly and takes the rest from the
Euler-Maclaurin formula (integral, endpoint and first-derivative
corrections), so it costs the same for u = 10**6 as for u = 64.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from decimal import Decimal
from fractions import Fraction

from .exact import Frozen, Record
from .words import Convergents

_HEAD_TERMS = 64  # Moran-sum terms added directly before the Euler-Maclaurin tail

# Base of the divergence witness u* = (A + B) * WITNESS_BASE**A; must exceed e.
WITNESS_BASE = 3

SU_TOL = 1e-9  # bisection width of solve_su

# dimension_certificate: the bound it certifies (its routes are specific to
# 1/2), the terms of the exact prefix sum it reports, the minorant terms it
# certifies, the branches whose images it checks for disjointness, the most
# terms the direct route may add and the truncation of the Moran root it
# reports on the divergence route
TARGET = Fraction(1, 2)
EXACT_PREFIX_U = 10**3
MINORANT_TERMS = 10**3
DISJOINTNESS_U = 64
U_DIRECT_CAP = 10**4
U_NUMERIC = 10**6


class DimensionProblem(Frozen):
    """A block and the progression b*l + c of free digits.

    ``continuant_table`` is (p_m, p_{m-1}, q_m, q_{m-1}) of the block,
    built once, when the problem is.
    """

    __slots__ = ("block", "b", "c", "continuant_table")

    def __init__(self, block: tuple[int, ...], b: int = 1, c: int = 0):
        if len(block) < 3 or len(block) % 2 == 0:
            raise ValueError("block length must be odd and >= 3")
        if any(d < 1 for d in block):
            raise ValueError("block digits must be positive")
        if b < 1 or c < 0:
            raise ValueError("progression needs b >= 1, c >= 0")
        conv, m = Convergents(block), len(block)
        super().__init__(block, b, c, (conv.p(m), conv.p(m - 1), conv.q(m), conv.q(m - 1)))

    @property
    def coefficients(self) -> tuple[int, int]:
        """(A, B) = (b q_m, q_m (c + 1) + q_{m-1}): d^{1/2}_{b l + c} = 1/(A l + B)."""
        _, _, qm, qm1 = self.continuant_table
        return self.b * qm, qm * (self.c + 1) + qm1


def contraction_bound(block: tuple[int, ...], l: int) -> Fraction:
    """Exact d_{block, l} = 1 / (q_m (l+1) + q_{m-1})^2."""
    if l < 1:
        raise ValueError("l must be >= 1")
    return sqrt_contraction(DimensionProblem(block), l) ** 2


def sqrt_contraction(problem: DimensionProblem, l: int) -> Fraction:
    """Exact d_{block, b l + c}^{1/2} = 1/(A l + B) (the contractions are square rationals)."""
    A, B = problem.coefficients
    return Fraction(1, A * l + B)


def divergence_minorant(problem: DimensionProblem, l: int) -> Fraction:
    """Termwise harmonic comparison: d^{1/2}_{b l + c} >= 1/(A (l + 1) + B)."""
    A, B = problem.coefficients
    return Fraction(1, A * (l + 1) + B)


def moran_sum(problem: DimensionProblem, u: int) -> Callable[[float], float]:
    """s -> sum_{l=1..u} d_{b l + c}^s as a float function.

    With A = b q_m and B = q_m (c + 1) + q_{m-1} the sum is
    sum_{l=1..u} f(l), f(l) = (A l + B)^(-2s).  The first
    ``_HEAD_TERMS`` terms are summed directly (``math.fsum``); the tail
    l = 65..u is its Euler-Maclaurin value

        int_64^u f + (f(u) - f(64)) / 2 + (f'(u) - f'(64)) / 12,

    so one evaluation costs O(64) for any u.  The formula's remainder is
    at most |f'''(64)| / 720 < (2s)(2s+1)(2s+2) f(64) / (720 * 64**3),
    a few parts in 10**10 of the sum for s <= 1, which moves the Moran
    root by far less than the bisection tolerance.
    """
    a, b0 = problem.coefficients
    log_d = [-2.0 * math.log(a * l + b0) for l in range(1, min(u, _HEAD_TERMS) + 1)]
    x0, x1 = a * _HEAD_TERMS + b0, a * u + b0
    ln0, ln1 = math.log(x0), math.log(x1)

    def total(s: float) -> float:
        terms = [math.exp(s * ld) for ld in log_d]
        if u > _HEAD_TERMS:
            f0, f1 = terms[-1], math.exp(s * -2.0 * ln1)
            g = 1.0 - 2.0 * s
            if g == 0.0:
                integral = (ln1 - ln0) / a
            else:
                integral = math.exp(g * ln0) * math.expm1(g * (ln1 - ln0)) / (g * a)
            # f'(l) = -2 s A f(l) / (A l + B)
            terms.append(integral + (f1 - f0) / 2.0 - s * a * (f1 / x1 - f0 / x0) / 6.0)
        return math.fsum(terms)

    return total


def solve_su(problem: DimensionProblem, u: int) -> float:
    """Root of sum_{l=1..u} d_{b l + c}^s = 1 by bisection to |ds| <= SU_TOL.

    The sum is strictly decreasing in s and equals u > 1 at s = 0, so
    the root exists and is unique; u >= 2 is required.  The sum is
    evaluated by :func:`moran_sum` (direct head, Euler-Maclaurin tail).
    """
    if u < 2:
        raise ValueError("truncation level u must be >= 2")
    total = moran_sum(problem, u)
    lo, hi = 0.0, 1.0
    while total(hi) > 1.0:
        hi *= 2.0
        if hi > 1e6:
            raise ArithmeticError("failed to bracket the Moran root")
    while hi - lo > SU_TOL:
        mid = (lo + hi) / 2.0
        if total(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def e_upper_bound() -> Fraction:
    """sum_{k<=12} 1/k! + 1/(12! 12), a rational strictly above e.

    The omitted tail sum_{k>12} 1/k! is at most
    1/13! (1 + 1/14 + 1/14**2 + ...) = 14/(13! 13) < 1/(12! 12).
    """
    head = sum(Fraction(1, math.factorial(k)) for k in range(13))
    return head + Fraction(1, math.factorial(12) * 12)


def _exact_str(q: Fraction) -> str:
    """``str(q)`` for any size: Decimal prints integers without the
    interpreter's cap on int-to-str digits, which stays on for parsing."""
    num = str(Decimal(q.numerator))
    return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"


class DimensionCertificate(Record):
    # route: "direct" or "divergence"; witness: a dict on the divergence
    # route only, emitted as is, and None on the direct route
    __slots__ = (
        "problem", "target", "route", "achieved_su", "u_used", "exceeds_target",
        "sqrt_sum_at_u", "exact_prefix_u", "exact_prefix_sum", "minorant_verified_terms",
        "su_monotone_samples", "image_disjointness_checked", "divergence_note", "witness",
    )

    def as_dict(self) -> dict:
        d = {
            "block": list(self.problem.block),
            "progression": [self.problem.b, self.problem.c],
            "target": str(self.target),
            "route": self.route,
            "exceeds_target": self.exceeds_target,
            "achieved_su": self.achieved_su,
            "u_used": self.u_used,
            "sqrt_sum_at_u": (
                _exact_str(self.sqrt_sum_at_u) if self.sqrt_sum_at_u is not None else None
            ),
            "exact_prefix": {
                "u": self.exact_prefix_u,
                "sum": _exact_str(self.exact_prefix_sum),
                "sum_float": float(self.exact_prefix_sum),
            },
            "minorant_verified_terms": self.minorant_verified_terms,
            "su_monotone_samples": [[u, s] for u, s in self.su_monotone_samples],
            "image_disjointness_checked": self.image_disjointness_checked,
            "divergence_note": self.divergence_note,
        }
        if self.witness is not None:
            d["divergence_witness"] = self.witness
        return d


def check_image_disjointness(problem: DimensionProblem, u: int) -> int:
    """Exact endpoint check that the u branch images of the hull interval
    are pairwise disjoint and nested back inside it.

    The hull runs between the values with tail digit 1 and tail digit
    n_max + 1; endpoint orientation flips with the block parity, so
    everything is normalized to [min, max] (block length is odd here).
    Returns the number of branches checked.
    """
    pm, pm1, qm, qm1 = problem.continuant_table

    def tail_value(t: Fraction) -> Fraction:
        return (pm * t + pm1) / (qm * t + qm1)

    n_max = problem.b * u + problem.c
    e_lo_raw, e_hi_raw = tail_value(Fraction(1)), tail_value(Fraction(n_max + 1))
    hull = (min(e_lo_raw, e_hi_raw), max(e_lo_raw, e_hi_raw))
    images = []
    for l in range(1, u + 1):
        n = problem.b * l + problem.c  # the l-th branch maps x to tail_value(n + x)
        images.append(tuple(sorted((tail_value(n + hull[0]), tail_value(n + hull[1])))))
    images.sort()
    for (a1, b1), (a2, b2) in zip(images, images[1:]):
        if not b1 < a2:
            raise ArithmeticError(f"branch images overlap: [{a1},{b1}] vs [{a2},{b2}]")
    for a, b in images:
        if not (hull[0] <= a and b <= hull[1]):
            raise ArithmeticError("branch image escapes the hull interval")
    return u


def dimension_certificate(problem: DimensionProblem) -> DimensionCertificate:
    """Two-route certificate that the dimension exceeds ``TARGET`` = 1/2,
    in one pass over A and B.

    Direct route: the exact rational sum of d^{1/2} = 1/(A l + B) exceeds
    1 within ``U_DIRECT_CAP`` terms; the Moran root at that truncation
    then exceeds 1/2 exactly.  Divergence route: otherwise; the numeric
    s_u is reported at the truncation ``U_NUMERIC``, and the target rests
    on the witness u* = (A + B) base**A, base > e.  On either route the
    harmonic minorant A l + B <= A (l + 1) + B holds for every l exactly
    when A >= 0; ``DimensionProblem`` makes A = b q_m >= 1, which is
    checked once, and the certificate reports its first
    ``MINORANT_TERMS`` terms as verified.

    The route is decided before summing where it can be.  f(l) = 1/(A l + B)
    decreases, so with R = (A u + B)/(A + B)

        sum_{l<=u} f <= f(1) + int_1^u f = 1/(A + B) + (1/A) ln R,

    which exceeds 1 only if ln R > x = A - A/(A + B).  As (A-1) ln 2 < x,
    that needs A u + B >= 2**(A-1); and with n = floor(2x) it needs
    R > e**(n/2) > 1.648**n, because 1.648**2 = 2.715904 < e.  So the
    direct loop runs only when ``(A * U_DIRECT_CAP + B).bit_length() >= A``,
    which keeps A small, and ``(A * U_DIRECT_CAP + B) * 1000**n >=
    (A + B) * 1648**n``; when it runs, it decides the route.  The exact
    prefix sum (up to ``EXACT_PREFIX_U`` terms, or to the direct route's
    u) comes from the same loop, which keeps the sum as an unreduced
    num/den.  The images of the first ``DISJOINTNESS_U`` branches are
    checked to be disjoint.
    """
    A, B = problem.coefficients
    if A < 1:
        raise ArithmeticError(f"minorant needs A >= 1, got A={A}")
    top = A * U_DIRECT_CAP + B
    n = 2 * A * (A + B - 1) // (A + B)  # floor(2x)
    feasible = top.bit_length() >= A and top * 1000**n >= (A + B) * 1648**n
    direct_cap = U_DIRECT_CAP if feasible else 0
    # the divergence route is known now, so an input too large for floats
    # fails here, before the exact prefix sum
    achieved_su = None if feasible else solve_su(problem, U_NUMERIC)
    num, den, u_hit = 0, 1, None  # the running sum num/den, reduced once at the end
    prefix_u, prefix = 0, (num, den)
    for l in range(1, max(direct_cap, EXACT_PREFIX_U) + 1):
        t = A * l + B
        num, den = num * t + den, den * t
        if l <= EXACT_PREFIX_U:
            prefix_u, prefix = l, (num, den)
        if l <= direct_cap and num > den:
            u_hit = l
            break
    total, prefix_sum = Fraction(num, den), Fraction(*prefix)

    disjoint_checked = check_image_disjointness(problem, DISJOINTNESS_U)
    samples = [(us, solve_su(problem, us)) for us in (2, 4, 8, 16, 32, 64)]

    _, _, qm, qm1 = problem.continuant_table
    if u_hit is not None:
        route, u_used, exceeds, witness = "direct", u_hit, True, None
        note = (
            f"sum_l d^(1/2) reaches {float(total):.6f} > 1 at u={u_hit}; "
            f"the Moran root at this truncation therefore exceeds 1/2"
        )
    else:
        route, u_used = "divergence", U_NUMERIC
        exceeds = WITNESS_BASE > e_upper_bound()
        witness = {"u": "(A+B)*base^A", "base": str(WITNESS_BASE), "A": A, "B": B}
        note = (
            f"direct truncation infeasible: terms ~ 1/({qm} l), so the sum "
            f"first exceeds 1 near u ~ exp({qm}); the bound > 1/2 rests on "
            f"the termwise-verified divergent minorant sum 1/({qm}(b(l+1)+c+1)+{qm1})"
        )
    return DimensionCertificate(
        problem=problem,
        target=TARGET,
        route=route,
        achieved_su=solve_su(problem, u_used) if achieved_su is None else achieved_su,
        u_used=u_used,
        exceeds_target=exceeds,
        sqrt_sum_at_u=total if u_hit is not None else None,
        exact_prefix_u=prefix_u,
        exact_prefix_sum=prefix_sum,
        minorant_verified_terms=MINORANT_TERMS,
        su_monotone_samples=samples,
        image_disjointness_checked=disjoint_checked,
        divergence_note=note,
        witness=witness,
    )
