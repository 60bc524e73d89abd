import json
import math
import time
from fractions import Fraction

import mpmath
import pytest

import oracle_dimension as oracle
from slittori.dimension import (
    EXACT_PREFIX_U,
    SU_TOL,
    U_DIRECT_CAP,
    U_NUMERIC,
    DimensionProblem,
    check_image_disjointness,
    contraction_bound,
    dimension_certificate,
    divergence_minorant,
    moran_sum,
    solve_su,
    sqrt_contraction,
)
from slittori.rational import RationalParam, block_for

TOY = DimensionProblem((1, 1, 1), 1, 0)
QUARTER = DimensionProblem((5, 1, 1, 7, 1, 1, 2), 1, 0)
MORAN_PROBLEMS = (
    TOY,
    QUARTER,
    DimensionProblem((2, 3, 2), 5, 7),
    DimensionProblem((1, 1, 1), 3, 2),
    DimensionProblem((9, 1, 3), 1, 0),
)


def _moran_coefficients(problem):
    """(A, B) with d_{b l + c}^s = (A l + B)^(-2 s)."""
    qm, qm1 = problem.continuant_table[2:]
    return problem.b * qm, qm * (problem.c + 1) + qm1


def fsum_moran(problem, u, s):
    """Reference Moran sum: every one of the u terms, correctly rounded sum."""
    A, B = _moran_coefficients(problem)
    return math.fsum(float(A * l + B) ** (-2 * s) for l in range(1, u + 1))


def hurwitz_moran(problem, u, s):
    """Reference Moran sum for large u through the Hurwitz zeta function:
    A^(-p) [zeta(p, 1 + B/A) - zeta(p, u + 1 + B/A)], p = 2 s (digamma at p = 1)."""
    A, B = _moran_coefficients(problem)
    with mpmath.workdps(30):
        p = 2 * mpmath.mpf(s)
        a0, a1 = 1 + mpmath.mpf(B) / A, u + 1 + mpmath.mpf(B) / A
        if p == 1:
            return float((mpmath.digamma(a1) - mpmath.digamma(a0)) / A)
        return float(mpmath.power(A, -p) * (mpmath.zeta(p, a0) - mpmath.zeta(p, a1)))


def test_problem_validation():
    with pytest.raises(ValueError):
        DimensionProblem((1, 1), 1, 0)  # even length
    with pytest.raises(ValueError):
        DimensionProblem((1,), 1, 0)  # too short
    with pytest.raises(ValueError):
        DimensionProblem((1, 0, 1), 1, 0)
    with pytest.raises(ValueError):
        DimensionProblem((1, 1, 1), 0, 0)


def test_contraction_examples():
    assert contraction_bound((1, 1, 1), 1) == Fraction(1, 64)  # (3*2+2)^2
    assert contraction_bound((5, 1, 1, 7, 1, 1, 2), 1) == Fraction(1, 1073**2)
    with pytest.raises(ValueError):
        contraction_bound((1, 1, 1), 0)


def test_sqrt_contraction_is_exact_root():
    for l in range(1, 30):
        d = contraction_bound(TOY.block, l)
        assert sqrt_contraction(TOY, l) ** 2 == d
    assert sqrt_contraction(TOY, 1) == Fraction(1, 8)
    assert sqrt_contraction(TOY, 2) == Fraction(1, 11)


def test_toy_partial_sums_exceed_one_before_100():
    # the direct route stops its exact prefix at the first sum of
    # 1/(3l+5) over l <= u that exceeds 1
    cert = dimension_certificate(TOY)
    u = cert.exact_prefix_u
    terms = [Fraction(1, 3 * l + 5) for l in range(1, u + 1)]
    assert u < 100 and cert.route == "direct" and cert.u_used == u
    assert cert.exact_prefix_sum == sum(terms) > 1 >= sum(terms[:-1])


def test_solve_su_residual_and_monotone():
    prev = 0.0
    for u in (2, 4, 8, 16, 32, 64, 128):
        su = solve_su(TOY, u)
        assert su >= prev - 1e-12
        prev = su
        total = sum(float(contraction_bound(TOY.block, l)) ** su for l in range(1, u + 1))
        assert abs(total - 1.0) < 1e-7  # within 10x the bisection tolerance
    with pytest.raises(ValueError):
        solve_su(TOY, 1)


@pytest.mark.parametrize(
    "u, oracle",
    [(u, fsum_moran) for u in (2, 3, 63, 64, 65, 100, 1000, 10**4)]
    + [(u, hurwitz_moran) for u in (10**4, 10**6)],
)
def test_moran_sum_and_root_match_oracles(u, oracle):
    tol = SU_TOL
    for problem in MORAN_PROBLEMS:
        total = moran_sum(problem, u)
        for s in (0.0, 0.25, 0.5, 0.75, 1.0):  # s = 1/2 is the log-integral branch
            assert total(s) == pytest.approx(oracle(problem, u, s), rel=1e-9, abs=0)
        su = solve_su(problem, u)
        assert oracle(problem, u, su - tol) > 1.0 > oracle(problem, u, su + tol)


def test_toy_certificate_direct_route():
    cert = dimension_certificate(TOY)
    assert cert.route == "direct"
    assert cert.exceeds_target
    assert cert.u_used <= 10**4
    assert cert.achieved_su > 0.5
    assert cert.sqrt_sum_at_u > 1


def test_quarter_certificate_divergence_route():
    cert = dimension_certificate(QUARTER)
    assert cert.route == "divergence" and cert.u_used == U_NUMERIC
    assert cert.exceeds_target
    assert cert.achieved_su < 0.5  # direct truncation cannot reach 1/2 here
    assert cert.minorant_verified_terms == 1000
    assert "exp(448)" in cert.divergence_note
    # monotone samples are nondecreasing
    sus = [s for _, s in cert.su_monotone_samples]
    assert all(b >= a - 1e-12 for a, b in zip(sus, sus[1:]))


def test_minorant_termwise():
    for problem in (TOY, QUARTER, DimensionProblem((2, 3, 2), 5, 7)):
        for l in range(1, 200):
            assert sqrt_contraction(problem, l) >= divergence_minorant(problem, l)


def test_exact_prefix_matches_direct_summation():
    # the certificate's exact prefix sum agrees with term-by-term construction
    cert = dimension_certificate(QUARTER)
    assert cert.exact_prefix_u == EXACT_PREFIX_U
    total = Fraction(0)
    for l in range(1, EXACT_PREFIX_U + 1):
        total += Fraction(1, 448 * (l + 1) + 177)
    assert cert.exact_prefix_sum == total


def test_image_disjointness():
    assert check_image_disjointness(TOY, 64) == 64
    assert check_image_disjointness(QUARTER, 16) == 16
    assert check_image_disjointness(DimensionProblem((1, 1, 1), 3, 2), 32) == 32


def test_progression_changes_terms():
    shifted = DimensionProblem((1, 1, 1), 2, 1)
    assert sqrt_contraction(shifted, 1) == Fraction(1, 3 * 4 + 2)  # l -> 2*1+1 = 3


def test_divergence_witness_integer_recheck():
    """u* = (A+B) 3^A for the barrier block, rechecked with plain integers:
    A(u*+1)+B reaches 3^A (A+B), and 3 exceeds a bound on e."""
    a, b0 = 448, 625  # A = b q_m, B = q_m (c+1) + q_{m-1} for 5,1,1,7,1,1,2
    assert QUARTER.continuant_table[2:] == (448, 177)
    assert QUARTER.coefficients == (a, b0)
    u = (a + b0) * 3**a
    assert a * (u + 1) + b0 >= 3**a * (a + b0)
    # e < 2.71828183 < 3: sum_{k<=15} 1/k! plus a generous tail bound
    e_hi = sum(Fraction(1, math.factorial(k)) for k in range(16)) + Fraction(1, 10**12)
    assert e_hi < Fraction(271828183, 10**8) < 3
    cert = dimension_certificate(QUARTER)
    assert cert.route == "divergence" and cert.exceeds_target
    assert cert.as_dict()["divergence_witness"] == {
        "u": "(A+B)*base^A", "base": "3", "A": a, "B": b0,
    }
    assert "divergence_witness" not in dimension_certificate(TOY).as_dict()


def test_divergence_witness_below_e_fails_closed(monkeypatch, capsys):
    import slittori.dimension as dim
    from slittori.cli import main

    monkeypatch.setattr(dim, "WITNESS_BASE", 2)  # below e
    assert not dim.dimension_certificate(QUARTER).exceeds_target
    assert main(["dimension", "--block", "5,1,1,7,1,1,2", "--prog", "1,0"]) == 1
    assert '"exceeds_target": false' in capsys.readouterr().out
    # the base must clear the certified bound on e strictly, not just e itself
    monkeypatch.setattr(dim, "WITNESS_BASE", dim.e_upper_bound())
    assert not dim.dimension_certificate(QUARTER).exceeds_target
    assert main(["dimension", "--block", "5,1,1,7,1,1,2", "--prog", "1,0"]) == 1
    assert '"exceeds_target": false' in capsys.readouterr().out


# (problem, U_DIRECT_CAP): both routes, the toy and barrier blocks, a
# direct loop that runs to u = 6390, and caps on both sides of each route
# pre-test: (A * cap + B).bit_length() >= A for 2,3,2 (A = 16, B = 23:
# cap 2047 gives 32775, bit length 16; cap 2046 gives 32759, bit length 15),
# and (A * cap + B) * 1000**n >= (A + B) * 1648**n for 1,1,1 (A = 3, B = 5,
# n = 5: cap 31 passes, cap 30 does not; the loop first exceeds 1 at 42).
DIFFERENTIAL_CASES = [
    (DimensionProblem(block, b, c), U_DIRECT_CAP)
    for block in ((1, 1, 1), (5, 1, 1, 7, 1, 1, 2), (1, 1, 1, 1, 1), (2, 3, 2))
    for b, c in ((1, 0), (2, 1), (3, 2), (5, 7))
] + [
    (DimensionProblem((2, 3, 2), 1, 0), cap) for cap in (0, 1, 2046, 2047, 2048)
] + [
    (DimensionProblem((1, 1, 1), 1, 0), cap) for cap in (30, 31, 41, 42)
]


@pytest.mark.parametrize(
    "problem, cap", DIFFERENTIAL_CASES,
    ids=[f"{'.'.join(map(str, p.block))}-{p.b},{p.c}-cap{cap}" for p, cap in DIFFERENTIAL_CASES],
)
def test_certificate_matches_oracle(problem, cap, monkeypatch):
    """The one-pass certificate equals the earlier one (E**A witness) on
    every key but ``divergence_witness``, at the direct route's cap
    ``U_DIRECT_CAP`` and at caps on both sides of each pre-test."""
    import slittori.dimension as dim

    monkeypatch.setattr(dim, "U_DIRECT_CAP", cap)
    new = dimension_certificate(problem).as_dict()
    old = oracle.dimension_certificate(problem, u_direct_cap=cap).as_dict()
    assert ("divergence_witness" in new) == ("divergence_witness" in old) == (
        new["route"] == "divergence"
    )
    new.pop("divergence_witness", None)
    old.pop("divergence_witness", None)
    assert new == old


def test_rational_theorem_sweep():
    """Every barrier lambda = p/q < 1/2 with q <= 50 gets a certificate of
    dimension > 1/2 with 64 disjoint branch images and a JSON form.

    Measured at 7 s on a shared 2-vCPU machine; the ceiling is 5x that."""
    t0 = time.perf_counter()
    lambdas = [
        Fraction(p, q) for q in range(3, 51) for p in range(1, (q + 1) // 2) if math.gcd(p, q) == 1
    ]
    assert len(lambdas) == 386
    for lam in lambdas:
        digits = block_for(RationalParam.from_barrier_length(lam))
        cert = dimension_certificate(DimensionProblem(digits, 1, 0))
        assert cert.exceeds_target, lam
        assert cert.image_disjointness_checked == 64, lam
        json.dumps(cert.as_dict())
    assert time.perf_counter() - t0 < 35.0
