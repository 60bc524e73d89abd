"""An independent re-check of the numeric hypotheses that ``verify`` reports.

From a stream's digit prefix alone, the test recomputes the continuants
p_k, q_k with standard-library integers.  It then uses mpmath at 300
significant digits to recompute alpha, the four renormalisation-matrix
entries

    q_k (q_k alpha - p_k),  q_k (q_{k-1} alpha - p_{k-1}),
    p_k / (alpha q_k),      p_{k-1} / (alpha q_k),

the wedge |q_k alpha - p_k| against (1 - 2 y_n) / (2 q_k), with y_n the
height of the checkpoint endpoint, and the digit inequality
a_{k+1} (1 - 2 y_n) >= 2.  The recomputation uses neither
``intervals.py`` nor ``criterion.py`` nor ``Convergents``, so an interval
bug that the verifier and its oracle share shows here.

Each verdict is compared only where the mpmath margin exceeds its error
bound.  ``verify`` decides the four entries by its mediant lemma, with no
alpha, so wherever mpmath decides them they must all lie in [-1, 1] and
the record must read ``sigma_bounded``.  alpha is the convergent p_m / q_m of a prefix ``EXTRA`` digits
past the last checkpoint, off the stream's value by less than 1 / q_m^2.
Every mpmath operation adds a relative error of about 10^-300.
"""

from fractions import Fraction

import mpmath
import pytest

from slittori.criterion import verify
from slittori.directions import DigitRule
from slittori.exact import ExactScalar
from slittori.irrational import direction_stream_irrational
from slittori.rational import RationalParam, direction_stream

HORIZON = 8
EXTRA = 48  # digits of the alpha prefix past the last checkpoint, at least 40
DPS = 300

STREAMS = {
    "quarter": lambda: direction_stream(
        RationalParam.from_barrier_length(Fraction(1, 4)), DigitRule("const", (1,))
    ),
    "sqrt2": lambda: direction_stream_irrational(ExactScalar(0, 1, 4, 2)),
}


def continuants(digits):
    """(p, q) with p[k] = p_k and q[k] = q_k for k = 0 .. len(digits)."""
    p, q = [1, 0], [0, 1]  # from p_{-1}, p_0 and q_{-1}, q_0
    for a in digits:
        p.append(a * p[-1] + p[-2])
        q.append(a * q[-1] + q[-2])
    return p[1:], q[1:]


def height(y: ExactScalar, rounding):
    """(y, error bound) of (u + v sqrt(D)) / w in mpmath: the sum loses
    the digits that u and v sqrt(D) cancel."""
    root = mpmath.sqrt(y.D)
    return (y.u + y.v * root) / y.w, (abs(y.u) + abs(y.v) * root) / y.w * rounding


def decided(margin, err):
    """True or False when ``margin`` is farther than ``err`` from 0, else None."""
    if margin > err:
        return True
    if margin < -err:
        return False
    return None


@pytest.mark.parametrize("name", list(STREAMS))
def test_verify_agrees_with_mpmath(name):
    spec = STREAMS[name]()
    report = verify(spec, HORIZON)
    m = 8 * HORIZON + EXTRA
    digits = spec.digits_prefix(m)
    p, q = continuants(digits)
    checked = {"sigma": 0, "wedge": 0, "digit": 0, "ratio": 0}
    with mpmath.workdps(DPS):
        rounding = mpmath.mpf(10) ** (10 - DPS)
        alpha = mpmath.mpf(p[m]) / q[m]
        eps = 1 / mpmath.mpf(q[m]) ** 2 + rounding
        for n, rec in enumerate(report.records, start=1):
            k = 8 * n
            assert rec.k == k and rec.strip.v == (q[k], p[k])
            y, err_y = height(spec.checkpoint_point(n).y, rounding)

            entries = (
                q[k] * (q[k] * alpha - p[k]),
                q[k] * (q[k - 1] * alpha - p[k - 1]),
                p[k] / (alpha * q[k]),
                p[k - 1] / (alpha * q[k]),
            )
            errs = (
                q[k] ** 2 * (eps + rounding),
                q[k] * q[k - 1] * (eps + rounding),
                4 * eps / alpha**2 + rounding,
                4 * eps / alpha**2 + rounding,
            )
            bounded = [decided(1 - abs(e), err) for e, err in zip(entries, errs)]
            if False in bounded or None not in bounded:
                checked["sigma"] += 1
                assert all(bounded), (n, bounded)
                assert rec.sigma_bounded, (n, rec.sigma_route)

            wedge = abs(q[k] * alpha - p[k])
            err_wedge = q[k] * (eps + rounding)
            threshold = (1 - 2 * y) / (2 * q[k])
            err_threshold = err_y / q[k] + rounding
            holds = decided(threshold - wedge, err_wedge + err_threshold)
            if holds is not None:
                checked["wedge"] += 1
                assert ("direct" in rec.wedge_route) == holds, (n, rec.wedge_route)

            a_next = digits[k]  # a_{k+1}
            inequality = decided(a_next * (1 - 2 * y) - 2, 2 * a_next * err_y)
            if inequality is not None:
                checked["digit"] += 1
                assert rec.digit_inequality == inequality, n

            ratio = wedge / threshold
            err_ratio = (err_wedge + ratio * err_threshold) / (threshold - err_threshold)
            if rec.wedge_ratio is not None:
                checked["ratio"] += 1
                lo, hi = rec.wedge_ratio.lo, rec.wedge_ratio.hi
                lo = mpmath.mpf(lo.numerator) / lo.denominator
                hi = mpmath.mpf(hi.numerator) / hi.denominator
                assert lo - err_ratio <= ratio <= hi + err_ratio, n
    assert all(checked.values()), checked
