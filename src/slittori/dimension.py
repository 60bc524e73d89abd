"""Lower bounds for the dimension of block-constrained digit sets.

For an odd-length block (a_1, ..., a_m) and free digits drawn from the
progression b*l + c, the l-th branch map of the induced iterated
function system contracts by at least

    d_l = 1 / (q_m * (l + 1) + q_{m-1})**2

where q_m, q_{m-1} are the block's continuants.  The truncated Moran
equation  sum_{l=1..u} d_{b l + c}^s = 1  has a unique root s_u, which
is a certified dimension lower bound; since the square roots of the
contractions dominate a harmonic tail, s_u exceeds 1/2 for u large
enough.  Reaching that u directly is hopeless for blocks with large
continuants (u grows like exp(q_m)), so the certificate carries two
routes: the direct one (exact rational partial sums of sum d^{1/2}
exceed 1, hence s_u > 1/2 for the achieved u), and the divergence one
(termwise comparison of d^{1/2} against a divergent harmonic series,
verified exactly on a prefix, plus the numerically solved s_u for the
largest affordable truncation).  The divergence route's verdict rests
on an exact integer witness u* (see ``divergence_witness``): with
d^{1/2}_{b l + c} = 1/(A l + B), the sum up to u* exceeds
(1/A) ln((A (u* + 1) + B)/(A + B)) >= ln E > 1 for a rational E > e.

``solve_su`` finds s_u by float bisection.  Each evaluation of the Moran
sum adds its first 64 terms directly and takes the rest from the
Euler-Maclaurin formula (integral, endpoint and first-derivative
corrections), so it costs the same for u = 10**6 as for u = 64.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .words import Convergents

_HEAD_TERMS = 64  # Moran-sum terms added directly before the Euler-Maclaurin tail


@dataclass(frozen=True)
class DimensionProblem:
    block: tuple[int, ...]
    b: int = 1
    c: int = 0

    def __post_init__(self):
        if len(self.block) < 3 or len(self.block) % 2 == 0:
            raise ValueError("block length must be odd and >= 3")
        if any(d < 1 for d in self.block):
            raise ValueError("block digits must be positive")
        if self.b < 1 or self.c < 0:
            raise ValueError("progression needs b >= 1, c >= 0")

    def continuants(self) -> tuple[int, int]:
        conv = Convergents(self.block)
        m = len(self.block)
        return conv.q(m), conv.q(m - 1)


def contraction_bound(block: tuple[int, ...], l: int) -> Fraction:
    """Exact d_{block, l} = 1 / (q_m (l+1) + q_{m-1})^2."""
    if l < 1:
        raise ValueError("l must be >= 1")
    conv = Convergents(block)
    m = len(block)
    qm, qm1 = conv.q(m), conv.q(m - 1)
    return Fraction(1, (qm * (l + 1) + qm1) ** 2)


def sqrt_contraction(problem: DimensionProblem, l: int) -> Fraction:
    """Exact d_{block, b l + c}^{1/2} (the contractions are square rationals)."""
    qm, qm1 = problem.continuants()
    return Fraction(1, qm * (problem.b * l + problem.c + 1) + qm1)


def divergence_minorant(problem: DimensionProblem, l: int) -> Fraction:
    """Termwise harmonic comparison: d^{1/2}_{b l + c} >= this term."""
    qm, qm1 = problem.continuants()
    return Fraction(1, qm * (problem.b * (l + 1) + problem.c + 1) + qm1)


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
    qm, qm1 = problem.continuants()
    a = problem.b * qm
    b0 = qm * (problem.c + 1) + qm1
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


def solve_su(problem: DimensionProblem, u: int, tol: float = 1e-9) -> float:
    """Root of sum_{l=1..u} d_{b l + c}^s = 1 by bisection to |ds| <= tol.

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
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if total(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


# Rational bound above e used by the divergence witness.
E_WITNESS = Fraction(27183, 10000)


def e_upper_bound() -> Fraction:
    """sum_{k<=12} 1/k! + 1/(12! 12), a rational strictly above e.

    The omitted tail sum_{k>12} 1/k! is at most
    1/13! (1 + 1/14 + 1/14**2 + ...) = 14/(13! 13) < 1/(12! 12).
    """
    head = sum(Fraction(1, math.factorial(k)) for k in range(13))
    return head + Fraction(1, math.factorial(12) * 12)


def divergence_witness(problem: DimensionProblem, E: Fraction) -> int:
    """Least integer u* >= 1 with A (u* + 1) + B >= E**A (A + B).

    Here A = b q_m and B = q_m (c + 1) + q_{m-1}, so that
    d^{1/2}_{b l + c} = 1/(A l + B).  Each term exceeds the integral of
    1/(A x + B) over [l, l + 1], hence
    sum_{l<=u*} d^{1/2} > (1/A) ln((A (u* + 1) + B)/(A + B)) >= ln E,
    which is > 1, i.e. s_{u*} > 1/2, whenever E > e.  Pure integer
    arithmetic: E**A (A + B) is compared as num / den.
    """
    qm, qm1 = problem.continuants()
    a = problem.b * qm
    b0 = qm * (problem.c + 1) + qm1
    num = E.numerator ** a * (a + b0)
    den = E.denominator ** a
    # A (u + 1) + B >= num / den  <=>  u + 1 >= ceil((num - B den) / (A den))
    return max(1, -((b0 * den - num) // (a * den)) - 1)


def exact_sqrt_partial_sum(problem: DimensionProblem, u: int) -> Fraction:
    """sum_{l=1..u} d^{1/2}_{b l + c} as an exact rational."""
    total = Fraction(0)
    for l in range(1, u + 1):
        total += sqrt_contraction(problem, l)
    return total


@dataclass
class DimensionCertificate:
    problem: DimensionProblem
    target: Fraction
    route: str  # "direct" | "divergence"
    achieved_su: float
    u_used: int
    exceeds_target: bool
    sqrt_sum_at_u: Fraction | None
    exact_prefix_u: int
    exact_prefix_sum: Fraction
    minorant_verified_terms: int
    su_monotone_samples: list[tuple[int, float]]
    image_disjointness_checked: int
    divergence_note: str
    witness: tuple[Fraction, int] | None = None  # (E, u*), divergence route only

    def as_dict(self) -> dict:
        d = {
            "block": list(self.problem.block),
            "progression": [self.problem.b, self.problem.c],
            "target": str(self.target),
            "route": self.route,
            "exceeds_target": self.exceeds_target,
            "achieved_su": self.achieved_su,
            "u_used": self.u_used,
            "sqrt_sum_at_u": str(self.sqrt_sum_at_u) if self.sqrt_sum_at_u is not None else None,
            "exact_prefix": {
                "u": self.exact_prefix_u,
                "sum": str(self.exact_prefix_sum),
                "sum_float": float(self.exact_prefix_sum),
            },
            "minorant_verified_terms": self.minorant_verified_terms,
            "su_monotone_samples": [[u, s] for u, s in self.su_monotone_samples],
            "image_disjointness_checked": self.image_disjointness_checked,
            "divergence_note": self.divergence_note,
        }
        if self.witness is not None:
            E, u_star = self.witness
            d["divergence_witness"] = {"E": str(E), "u": str(u_star)}
        return d


def _branch_image(problem: DimensionProblem, l: int, e_lo: Fraction, e_hi: Fraction):
    """Image of [e_lo, e_hi] under the l-th branch, as a sorted interval."""
    conv = Convergents(problem.block)
    m = len(problem.block)
    pm, pm1, qm, qm1 = conv.p(m), conv.p(m - 1), conv.q(m), conv.q(m - 1)
    n = problem.b * l + problem.c

    def psi(x: Fraction) -> Fraction:
        return (pm * (n + x) + pm1) / (qm * (n + x) + qm1)

    a, b = psi(e_lo), psi(e_hi)
    return (a, b) if a <= b else (b, a)


def check_image_disjointness(problem: DimensionProblem, u: int) -> int:
    """Exact endpoint check that the u branch images of the hull interval
    are pairwise disjoint and nested back inside it.

    The hull runs between the values with tail digit 1 and tail digit
    n_max + 1; endpoint orientation flips with the block parity, so
    everything is normalized to [min, max] (block length is odd here).
    Returns the number of branches checked.
    """
    conv = Convergents(problem.block)
    m = len(problem.block)
    pm, pm1, qm, qm1 = conv.p(m), conv.p(m - 1), conv.q(m), conv.q(m - 1)

    def tail_value(t: Fraction) -> Fraction:
        return (pm * t + pm1) / (qm * t + qm1)

    n_max = problem.b * u + problem.c
    e_lo_raw, e_hi_raw = tail_value(Fraction(1)), tail_value(Fraction(n_max + 1))
    hull = (min(e_lo_raw, e_hi_raw), max(e_lo_raw, e_hi_raw))
    images = [_branch_image(problem, l, hull[0], hull[1]) for l in range(1, u + 1)]
    images.sort()
    for (a1, b1), (a2, b2) in zip(images, images[1:]):
        if not b1 < a2:
            raise ArithmeticError(f"branch images overlap: [{a1},{b1}] vs [{a2},{b2}]")
    for a, b in images:
        if not (hull[0] <= a and b <= hull[1]):
            raise ArithmeticError("branch image escapes the hull interval")
    return u


def dimension_certificate(
    problem: DimensionProblem,
    target: Fraction = Fraction(1, 2),
    u_direct_cap: int = 10**4,
    u_numeric: int = 10**6,
    exact_prefix_u: int = 10**3,
    minorant_terms: int = 10**3,
    disjointness_u: int = 64,
) -> DimensionCertificate:
    """Two-route dimension bound certificate.

    Direct route: accumulate exact rational sum of d^{1/2} until it
    exceeds 1 (then the Moran root at that truncation exceeds 1/2
    exactly); taken when this happens within ``u_direct_cap`` terms.
    Divergence route: otherwise, verify the harmonic minorant termwise
    on a prefix, record exact partial sums, and report the numeric s_u
    for the largest affordable truncation; the target bound then rests
    on the divergent comparison series rather than brute truncation.
    """
    if target != Fraction(1, 2):
        raise ValueError("the certified route is specific to target 1/2")
    # direct accumulation
    total = Fraction(0)
    u_hit = None
    for l in range(1, u_direct_cap + 1):
        total += sqrt_contraction(problem, l)
        if total > 1:
            u_hit = l
            break

    # exact prefix bookkeeping (reported on both routes)
    prefix_u = min(exact_prefix_u, u_hit or exact_prefix_u)
    prefix_sum = exact_sqrt_partial_sum(problem, prefix_u)

    # termwise minorant verification
    verified = 0
    for l in range(1, minorant_terms + 1):
        if not sqrt_contraction(problem, l) >= divergence_minorant(problem, l):
            raise ArithmeticError(f"minorant inequality fails at l={l}")
        verified += 1

    disjoint_checked = check_image_disjointness(problem, disjointness_u)

    samples = []
    u_samples = [2, 4, 8, 16, 32, 64]
    for us in u_samples:
        samples.append((us, solve_su(problem, us)))

    qm, qm1 = problem.continuants()
    if u_hit is not None:
        su = solve_su(problem, u_hit)
        return DimensionCertificate(
            problem=problem,
            target=target,
            route="direct",
            achieved_su=su,
            u_used=u_hit,
            exceeds_target=True,
            sqrt_sum_at_u=total,
            exact_prefix_u=prefix_u,
            exact_prefix_sum=prefix_sum,
            minorant_verified_terms=verified,
            su_monotone_samples=samples,
            image_disjointness_checked=disjoint_checked,
            divergence_note=(
                f"sum_l d^(1/2) reaches {float(total):.6f} > 1 at u={u_hit}; "
                f"the Moran root at this truncation therefore exceeds 1/2"
            ),
        )
    su = solve_su(problem, u_numeric)
    E = E_WITNESS
    return DimensionCertificate(
        problem=problem,
        target=target,
        route="divergence",
        achieved_su=su,
        u_used=u_numeric,
        exceeds_target=E > e_upper_bound(),
        sqrt_sum_at_u=None,
        exact_prefix_u=prefix_u,
        exact_prefix_sum=prefix_sum,
        minorant_verified_terms=verified,
        su_monotone_samples=samples,
        image_disjointness_checked=disjoint_checked,
        divergence_note=(
            f"direct truncation infeasible: terms ~ 1/({qm} l), so the sum "
            f"first exceeds 1 near u ~ exp({qm}); the bound > 1/2 rests on "
            f"the termwise-verified divergent minorant sum 1/({qm}(b(l+1)+c+1)+{qm1})"
        ),
        witness=(E, divergence_witness(problem, E)),
    )
