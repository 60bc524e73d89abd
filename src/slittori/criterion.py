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
At every checkpoint it checks, exactly or with certified rational
intervals:

  * the traced homology action fixes beta up to sign (a power of h-);
  * the traced endpoint equals the builder's recorded checkpoint;
  * the word matrix maps (1, 0) to the holonomy (q_k, p_k);
  * the endpoint height lies inside the declared bounds;
  * the next digit a_{k_n+1} satisfies a_{k_n+1} >= 2 / (1 - 2 y_n);
  * the four renormalization-matrix entries
        q_k (q_k alpha - p_k),  q_k (q_{k-1} alpha - p_{k-1}),
        p_k / (alpha q_k),      p_{k-1} / (alpha q_k)
    all lie in [-1, 1], by the mediant lemma of ``masur_structural``
    on the convergent table's integers, with no enclosure of alpha;
  * the strip wedge bound |q_k alpha - p_k| <= (1 - 2 y_n) / (2 q_k)
    (direct interval route; the digit inequality implies it through
    |q_k alpha - p_k| < 1/(a_{k_n+1} q_k), recorded as a second route).

The value alpha is never materialized as a float: the wedge bound runs
on an exact rational enclosure obtained by digit truncation, first of
width at most 2**-``PRECISION_BITS``.  When an enclosure is too wide to
decide it and the digit inequality does not imply it, the verifier
retries with a doubled precision a few times before recording the check
as failed with an "inconclusive" note; the report gives the largest
precision it used.
"""

from __future__ import annotations

from .directions import DirectionSpec
from .exact import ExactScalar, Frozen, Record, to_json
from .intervals import InconclusiveIntervalError, RatInterval
from .torus import entries_fix_beta, trace_word
from .words import IDENTITY, Convergents, GenWord, IntMat2

PRECISION_BITS = 256  # starting width 2**-256 of every alpha enclosure
_MAX_PRECISION_DOUBLINGS = 4


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


def wedge_threshold(y: ExactScalar, qk: int) -> ExactScalar:
    return (ExactScalar(1) - 2 * y) / (2 * qk)


def _wedge_at(spec: DirectionSpec, conv: Convergents, k: int, threshold,
              digit_inequality: bool, notes: list):
    """(bounded, route, wedge_ratio, precision) of the wedge bound, doubling
    the enclosure's precision from ``PRECISION_BITS`` while no route
    decides it; then the last inconclusive message goes to ``notes``."""
    for attempt in range(_MAX_PRECISION_DOUBLINGS):
        bits = PRECISION_BITS << attempt
        alpha = spec.alpha_enclosure(bits, min_digits=k + 2)
        wedge = abs(alpha * conv.q(k) - conv.p(k))
        try:
            bounded = wedge.certified_le(threshold)
            route = ("direct+implied" if digit_inequality else "direct") if bounded else "none"
        except InconclusiveIntervalError as exc:
            if not digit_inequality:
                note = str(exc)
                continue
            # |q alpha - p| < 1/(a_{k+1} q) <= threshold
            bounded, route = True, "implied"
        return bounded, route, wedge / RatInterval(*threshold.enclosure(PRECISION_BITS)), bits
    notes.append(f"wedge inconclusive: {note}")
    return False, "inconclusive", None, bits


class CheckpointRecord(Record):
    # z: TorusPoint; *_route: str; strip: CylinderStrip or None;
    # wedge_ratio: RatInterval or None; notes: list of str
    __slots__ = (
        "n", "k", "z", "endpoint_consistent", "homology_fixes_beta", "y_in_bounds",
        "digit_inequality", "sigma_bounded", "sigma_route", "wedge_bounded",
        "wedge_route", "strip", "wedge_ratio", "notes",
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
    __slots__ = ("horizon", "precision_bits", "records", "provenance")  # records: CheckpointRecords

    @property
    def overall(self) -> bool:
        return len(self.records) == self.horizon and all(r.ok for r in self.records)

    def as_json(self) -> dict:
        return to_json({
            "overall": self.overall,
            "horizon": self.horizon,
            "precision_bits": self.precision_bits,
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
    bits_used = PRECISION_BITS
    z_n, action, matrix = spec.z0, IDENTITY, IDENTITY
    for n in range(1, horizon + 1):
        k = spec.checkpoint_index(n)
        spec.ensure_digits(k + 1)
        conv = spec.convergents(k)
        block = GenWord.from_digits(spec.block(n).digits)
        z_n, entries = trace_word(z_n, block)
        action, matrix = action * IntMat2(*entries), matrix * block.matrix()
        y_n = z_n.y
        digit_inequality = bool((ExactScalar(1) - 2 * y_n) * spec.digit(k + 1) >= 2)
        notes: list[str] = []

        endpoint_consistent = z_n == spec.checkpoint_point(n)
        fixes_beta = entries_fix_beta(*action.entries())
        y_in_bounds = bool(y_lo <= y_n <= y_hi)

        # cross-check: the strip holonomy is the word matrix applied to (1,0)
        qk, pk = conv.q(k), conv.p(k)
        if (matrix.a, matrix.c) != (qk, pk):
            notes.append("holonomy/convergent mismatch")
            endpoint_consistent = False

        sigma_ok = masur_structural(conv, k)
        wedge_ok, wedge_route, wedge_ratio, bits = _wedge_at(
            spec, conv, k, wedge_threshold(y_n, qk), digit_inequality, notes
        )
        bits_used = max(bits_used, bits)

        strip = (
            CylinderStrip(k=1, v=(qk, pk), area=ExactScalar(1) - 2 * y_n)
            if fixes_beta
            else None
        )
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
                strip=strip,
                wedge_ratio=wedge_ratio,
                notes=notes,
            )
        )
    return VerificationReport(
        horizon=horizon,
        precision_bits=bits_used,
        records=records,
        provenance=spec.provenance,
    )
