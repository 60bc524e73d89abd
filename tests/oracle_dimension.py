"""Reference dimension certificate, kept as the oracle for ``tests/test_dimension.py``.

This is the earlier ``dimension_certificate``: every term rebuilds the
block's continuants, the direct route always adds up to ``u_direct_cap``
exact Fractions, the exact prefix and the minorant check are separate
loops, and the divergence witness is the least integer u* with
A (u* + 1) + B >= E**A (A + B) for E = 27183/10000, computed exactly.
``slittori.dimension`` decides the route before summing and emits a
symbolic witness; apart from ``divergence_witness`` the two certificates'
``as_json()`` must be equal.  Keep A small here: E**A is computed exactly.
"""

from __future__ import annotations

from fractions import Fraction

from slittori.dimension import (
    DimensionCertificate,
    DimensionProblem,
    e_upper_bound,
    solve_su,
)
from slittori.words import Convergents

E_WITNESS = Fraction(27183, 10000)


def continuants(problem: DimensionProblem) -> tuple[int, int]:
    conv = Convergents(problem.block)
    m = len(problem.block)
    return conv.q(m), conv.q(m - 1)


def sqrt_contraction(problem: DimensionProblem, l: int) -> Fraction:
    qm, qm1 = continuants(problem)
    return Fraction(1, qm * (problem.b * l + problem.c + 1) + qm1)


def divergence_minorant(problem: DimensionProblem, l: int) -> Fraction:
    qm, qm1 = continuants(problem)
    return Fraction(1, qm * (problem.b * (l + 1) + problem.c + 1) + qm1)


def divergence_witness(problem: DimensionProblem, E: Fraction) -> int:
    """Least integer u* >= 1 with A (u* + 1) + B >= E**A (A + B)."""
    qm, qm1 = continuants(problem)
    a = problem.b * qm
    b0 = qm * (problem.c + 1) + qm1
    num = E.numerator ** a * (a + b0)
    den = E.denominator ** a
    # A (u + 1) + B >= num / den  <=>  u + 1 >= ceil((num - B den) / (A den))
    return max(1, -((b0 * den - num) // (a * den)) - 1)


def exact_sqrt_partial_sum(problem: DimensionProblem, u: int) -> Fraction:
    total = Fraction(0)
    for l in range(1, u + 1):
        total += sqrt_contraction(problem, l)
    return total


def _branch_image(problem: DimensionProblem, l: int, e_lo: Fraction, e_hi: Fraction):
    conv = Convergents(problem.block)
    m = len(problem.block)
    pm, pm1, qm, qm1 = conv.p(m), conv.p(m - 1), conv.q(m), conv.q(m - 1)
    n = problem.b * l + problem.c

    def psi(x: Fraction) -> Fraction:
        return (pm * (n + x) + pm1) / (qm * (n + x) + qm1)

    a, b = psi(e_lo), psi(e_hi)
    return (a, b) if a <= b else (b, a)


def check_image_disjointness(problem: DimensionProblem, u: int) -> int:
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

    qm, qm1 = continuants(problem)
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
            witness=None,
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
        witness={"E": str(E), "u": str(divergence_witness(problem, E))},
    )
