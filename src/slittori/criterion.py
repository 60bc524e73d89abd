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
    all lie in [-1, 1]  (interval route, with the even-index
    convergent bracketing as a structural fallback);
  * the strip wedge bound |q_k alpha - p_k| <= (1 - 2 y_n) / (2 q_k)
    (direct interval route; the digit inequality implies it through
    |q_k alpha - p_k| < 1/(a_{k_n+1} q_k), recorded as a second route).

The value alpha is never materialized as a float: every alpha-dependent
check runs on an exact rational enclosure obtained by digit truncation,
first of width at most 2**-``PRECISION_BITS``.  When an enclosure is too
wide to decide a comparison the verifier retries with a doubled
precision a few times before recording the check as failed with an
"inconclusive" note; the report gives the largest precision it used.
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


def masur_structural(conv: Convergents, k: int, alpha: RatInterval) -> bool:
    """Structural route for the matrix-entry bounds.

    For even k the convergent bracketing p_k/q_k < alpha < p_{k-1}/q_{k-1}
    (together with the determinant identity and q_{k-1} <= q_k) forces
    all four entries into [-1, 1]; this checks exactly those facts.
    """
    if k % 2 != 0 or k < 2:
        return False
    if not conv.determinant_identity_holds():
        return False
    lo_ok = alpha.lo >= conv.value(k)
    hi_ok = alpha.hi <= conv.value(k - 1)
    return lo_ok and hi_ok and conv.q(k - 1) <= conv.q(k)


def masur_entries(conv: Convergents, k: int, alpha: RatInterval) -> list[RatInterval]:
    qk, pk = conv.q(k), conv.p(k)
    qk1, pk1 = conv.q(k - 1), conv.p(k - 1)
    e1 = (alpha * qk - pk) * qk
    e2 = (alpha * qk1 - pk1) * qk
    inv_aqk = (alpha * qk).reciprocal()
    e3 = inv_aqk * pk
    e4 = inv_aqk * pk1
    return [e1, e2, e3, e4]


def wedge_threshold(y: ExactScalar, qk: int) -> ExactScalar:
    return (ExactScalar(1) - 2 * y) / (2 * qk)


def _sigma_at(spec: DirectionSpec, conv: Convergents, k: int, bits: int):
    """(bounded, route) of the four matrix-entry bounds at enclosure ``bits``."""
    alpha = spec.alpha_enclosure(bits, min_digits=k + 2)
    structural = masur_structural(conv, k, alpha)
    try:
        interval_ok = all(e.certified_abs_le(1) for e in masur_entries(conv, k, alpha))
    except InconclusiveIntervalError:
        if structural:
            return True, "structural"
        raise
    if interval_ok:
        return True, "interval+structural" if structural else "interval"
    return structural, "structural" if structural else "none"


def _wedge_at(spec: DirectionSpec, conv: Convergents, k: int, threshold,
              digit_inequality: bool, bits: int):
    """(bounded, route, |q_k alpha - p_k|) of the wedge bound at ``bits``."""
    alpha = spec.alpha_enclosure(bits, min_digits=k + 2)
    wedge = abs(alpha * conv.q(k) - conv.p(k))
    try:
        direct = wedge.certified_le(threshold)
    except InconclusiveIntervalError:
        if digit_inequality:
            # |q alpha - p| < 1/(a_{k+1} q) <= threshold
            return True, "implied", wedge
        raise
    route = "direct+implied" if (direct and digit_inequality) else "direct"
    return direct, route if direct else "none", wedge


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


def _with_precision_retry(fn, bits: int):
    """Run fn(bits), doubling bits on inconclusive intervals.

    Returns the result (None when every attempt was inconclusive), the
    last precision tried and the last inconclusive note."""
    current = bits
    for _ in range(_MAX_PRECISION_DOUBLINGS):
        try:
            return fn(current), current, None
        except InconclusiveIntervalError as exc:
            tried, note = current, str(exc)
            current *= 2
    return None, tried, note


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

        sigma_result, bits_sigma, note = _with_precision_retry(
            lambda b: _sigma_at(spec, conv, k, b), PRECISION_BITS
        )
        bits_used = max(bits_used, bits_sigma)
        if sigma_result is None:
            sigma_ok, sigma_route = False, "inconclusive"
            notes.append(f"sigma inconclusive: {note}")
        else:
            sigma_ok, sigma_route = sigma_result

        threshold = wedge_threshold(y_n, qk)
        wedge_result, bits_wedge, note = _with_precision_retry(
            lambda b: _wedge_at(spec, conv, k, threshold, digit_inequality, b),
            PRECISION_BITS,
        )
        bits_used = max(bits_used, bits_wedge)
        if wedge_result is None:
            wedge_ok, wedge_route, wedge_ratio = False, "inconclusive", None
            notes.append(f"wedge inconclusive: {note}")
        else:
            wedge_ok, wedge_route, wedge_iv = wedge_result
            thr_iv = RatInterval(*threshold.enclosure(PRECISION_BITS))
            wedge_ratio = wedge_iv / thr_iv

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
                sigma_route=sigma_route,
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
