"""Hypothesis verification for a direction stream.

The verifier carries its own orbit from checkpoint to checkpoint.  It
starts at the surface parameter ``spec.z0`` with the identity action and
the identity word matrix; at checkpoint ``k_n = 8 n`` it traces block n,
the eight digits a_{k_{n-1}+1} .. a_{k_n}, from the point it reached at
checkpoint n - 1 and folds the block's homology action and word matrix
into the running products.  Every block has eight digits, an even
number, so each block word starts with h+ and ends with h-: the word of
the first k_n digits is the product of the block words, with no seam
syllable merged, and by the composition law the running products are
the action and matrix of that whole word.  So each digit is traced once.
At every checkpoint it checks, exactly and with no enclosure of alpha:

  * the traced homology action fixes beta up to sign (a power of h-);
  * the traced endpoint equals the builder's recorded checkpoint;
  * the word matrix maps (1, 0) to the holonomy (q_k, p_k);
  * the endpoint height lies inside the declared bounds;
  * the next digit a_{k_n+1} satisfies a_{k_n+1} >= 2 / (1 - 2 y_n);
  * the four renormalization-matrix entries
        q_k (q_k alpha - p_k),  q_k (q_{k-1} alpha - p_{k-1}),
        p_k / (alpha q_k),      p_{k-1} / (alpha q_k)
    all lie in [-1, 1], by the mediant lemma of ``masur_structural``;
  * the strip wedge bound |q_k alpha - p_k| <= (1 - 2 y_n) / (2 q_k), by
    the wedge lemma.

The wedge lemma.  For the complete quotient x = [a_{k+1}; a_{k+2}, ...],
q_k alpha - p_k = 1 / (q_k x + q_{k-1}) at the even k, and 1 - 2 y_n > 0,
so the wedge holds exactly when x >= t = 2 / (1 - 2 y_n) - q_{k-1}/q_k > 0.
Write x_i = [a_{k+1+i}; ...] = a + 1/x_{i+1} with a = a_{k+1+i}; the
stream is infinite, so x_{i+1} > 1 and a < x_i < a + 1.  From t_0 = t,
let c = floor(t_i), one exact floor in Q(sqrt D):

  * a > c or a = c = t_i gives x_i > a >= t_i; a < c gives x_i < a + 1 <= t_i;
  * otherwise a = c < t_i < c + 1: x_i - t_i = 1/x_{i+1} - 1/t_{i+1} with
    t_{i+1} = 1/(t_i - c) > 1, and depth i + 1 decides, flipped.

So x >= t exactly when, at the first depth that decides, x_i > t_i and
the depth is even or x_i < t_i and it is odd; that depth is where the
continued fractions of x and t differ, or a rational t's last digit.
At ``WEDGE_DEPTH`` tail digits, which only an x agreeing with t that
far reaches, the check fails closed with a note.  A truncated stream whose
last digit does not decide raises ``DigitStreamExhaustedError``, as any
read past its end does: past depth 0, t_i > 1, so x_i may lie on either
side.  The digit inequality a_{k+1} >= 2 / (1 - 2 y_n) > t is a > c at
depth 0, route "direct+implied"; elsewhere the route is "direct" or
"none".  A record keeps the tail digits read as ``wedge_digits``, and as
``wedge_ratio`` the wedge over its bound on x's bracket from block n + 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor

from .directions import PERIOD, DirectionSpec
from .exact import ExactScalar, Frozen, Record, to_json
from .intervals import RatInterval
from .torus import entries_fix_beta, trace_word
from .words import IDENTITY, Convergents, GenWord, IntMat2

WEDGE_DEPTH = 64  # tail digits the wedge comparison reads before it fails closed
_RATIO_BITS = 64  # outward rounding of wedge_ratio's factors 2/(1 - 2 y_n) and q_{k-1}/q_k


class CylinderStrip(Frozen):
    """Checkpoint strip data: |intersection with beta|, holonomy, area."""

    __slots__ = ("k", "v", "area")  # int, (q_k, p_k), ExactScalar

    def as_json(self) -> dict:
        return {**super().as_json(), "area_float": float(self.area)}


def masur_structural(conv: Convergents, k: int) -> bool:
    """The mediant lemma: for even k >= 2, every alpha whose first k + 1
    digits are the table's has its four matrix entries in [-1, 1].

    Such an alpha is (p_k x + p_{k-1}) / (q_k x + q_{k-1}) with x >= 1, and
    by the determinant identity p_{k-1} q_k - p_k q_{k-1} = 1 it decreases
    in x, so it lies in [p_k/q_k, (p_k + p_{k-1})/(q_k + q_{k-1})] and
    e1 = q_k / (q_k x + q_{k-1}) in [0, q_k/(q_k + q_{k-1})],
    e2 = -q_k x / (q_k x + q_{k-1}) in [-1, 0), e3 in (0, 1] and
    e4 in (0, p_{k-1}/p_k], inside [-1, 1] as q_{k-1} <= q_k and
    p_{k-1} <= p_k.  (At k = 0, e4 = 1/alpha > 1; for odd k, e3 > 1; the
    bracket [p_k/q_k, p_{k-1}/q_{k-1}] alone allows e1 up to q_k/q_{k-1}.)
    """
    if k % 2 != 0 or k < 2 or len(conv.digits) <= k:
        return False
    if not conv.determinant_identity_holds():
        return False
    return conv.q(k - 1) <= conv.q(k) and conv.p(k - 1) <= conv.p(k)


def _quotient_ge(spec: DirectionSpec, k: int, t: ExactScalar, notes: list):
    """(x >= t, tail digits read) for x = [a_{k+1}; a_{k+2}, ...], by the
    wedge lemma."""
    for i in range(WEDGE_DEPTH):
        a, c = spec.digit(k + 1 + i), floor(t)
        if a != c or t == c:  # x_i > t_i iff a >= c
            return (a >= c) == (i % 2 == 0), i + 1  # the sense flips at odd depth
        t = 1 / (t - c)
    notes.append(f"wedge undecided: x and t agree in {WEDGE_DEPTH} tail digits")
    return False, WEDGE_DEPTH


def _wedge_ratio(tail: tuple, r_num: int, r_den: int, ceiling: ExactScalar) -> RatInterval:
    """``ceiling`` / (x + r), r = ``r_num`` / ``r_den``, for x from [``tail``]
    to [``tail``, 1]; ``ceiling`` >= 1 and r are rounded outward, which moves
    each end by a relative 2**-62 at most, as x + r >= 1."""
    cf, m = Convergents(tail), len(tail)  # [0; tail] = 1/[tail]
    x_lo, x_hi = sorted((Fraction(cf.q(m), cf.p(m)),
                         Fraction(cf.q(m) + cf.q(m - 1), cf.p(m) + cf.p(m - 1))))
    c_lo, c_hi = ceiling.enclosure(_RATIO_BITS)
    r = Fraction((r_num << _RATIO_BITS) // r_den, 1 << _RATIO_BITS)  # r rounded down
    return RatInterval(c_lo / (x_hi + r + Fraction(1, 1 << _RATIO_BITS)), c_hi / (x_lo + r))


class CheckpointRecord(Record):
    # z: TorusPoint; *_route: str; wedge_digits: int; strip: CylinderStrip
    # or None; wedge_ratio: RatInterval; notes: list of str
    __slots__ = (
        "n", "k", "z", "endpoint_consistent", "homology_fixes_beta", "y_in_bounds",
        "digit_inequality", "sigma_bounded", "sigma_route", "wedge_bounded",
        "wedge_route", "wedge_digits", "strip", "wedge_ratio", "notes",
    )

    @property
    def ok(self) -> bool:
        return (
            self.endpoint_consistent
            and self.homology_fixes_beta
            and self.y_in_bounds
            and self.digit_inequality
            and self.sigma_bounded
            and self.wedge_bounded
        )

    def as_json(self) -> dict:
        return {**super().as_json(), "ok": self.ok}


class VerificationReport(Record):
    __slots__ = ("horizon", "records", "provenance")  # records: CheckpointRecords

    @property
    def overall(self) -> bool:
        return len(self.records) == self.horizon and all(r.ok for r in self.records)

    def as_json(self) -> dict:
        return to_json({
            "overall": self.overall,
            "horizon": self.horizon,
            "provenance": self.provenance,
            "checkpoints": self.records,
        })


def verify(spec: DirectionSpec, horizon: int) -> VerificationReport:
    """Check every hypothesis at checkpoints 1..horizon.

    Failures never raise; they are recorded per checkpoint and folded
    into ``report.overall``.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    records: list[CheckpointRecord] = []
    y_lo, y_hi = spec.y_bounds
    z_n, action, matrix = spec.z0, IDENTITY, IDENTITY
    for n in range(1, horizon + 1):
        k = spec.checkpoint_index(n)
        conv = spec.convergents(k + PERIOD)  # block n + 1 holds a_{k+1}
        block = GenWord.from_digits(spec.block(n).digits)
        z_n, entries = trace_word(z_n, block)
        action, matrix = action * IntMat2(*entries), matrix * block.matrix()
        y_n = z_n.y
        area = ExactScalar(1) - 2 * y_n
        ceiling = 2 / area  # the digit inequality's bound on a_{k+1}
        digit_inequality = spec.digit(k + 1) >= ceiling
        notes: list[str] = []

        endpoint_consistent = z_n == spec.checkpoint_point(n)
        fixes_beta = entries_fix_beta(*action.entries())
        y_in_bounds = bool(y_lo <= y_n <= y_hi)

        # cross-check: the strip holonomy is the word matrix applied to (1,0)
        qk, pk, qk1 = conv.q(k), conv.p(k), conv.q(k - 1)
        if (matrix.a, matrix.c) != (qk, pk):
            notes.append("holonomy/convergent mismatch")
            endpoint_consistent = False

        sigma_ok = masur_structural(conv, k)
        wedge_ok, wedge_digits = _quotient_ge(spec, k, ceiling - Fraction(qk1, qk), notes)
        wedge_route = ("direct+implied" if digit_inequality else "direct") if wedge_ok else "none"
        records.append(
            CheckpointRecord(
                n=n,
                k=k,
                z=z_n,
                endpoint_consistent=endpoint_consistent,
                homology_fixes_beta=fixes_beta,
                y_in_bounds=y_in_bounds,
                digit_inequality=digit_inequality,
                sigma_bounded=sigma_ok,
                sigma_route="structural" if sigma_ok else "none",
                wedge_bounded=wedge_ok,
                wedge_route=wedge_route,
                wedge_digits=wedge_digits,
                strip=CylinderStrip(k=1, v=(qk, pk), area=area) if fixes_beta else None,
                wedge_ratio=_wedge_ratio(spec.block(n + 1).digits, qk1, qk, ceiling),
                notes=notes,
            )
        )
    return VerificationReport(horizon=horizon, records=records, provenance=spec.provenance)
