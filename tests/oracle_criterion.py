"""Reference verifier that re-traces the whole prefix, for differential tests.

At every checkpoint k_n = 8 n this ``verify`` rebuilds the word of the
first k_n digits, traces it from the surface parameter ``spec.z0`` and
multiplies the word's matrix out of generator powers
(``oracle_torus.word_matrix``), so its trace work grows as the square of
the horizon.  It reads the running action with the verdict rule of
``oracle_torus``; every other check is the library's own helper, applied
in the same order.  The library's :func:`slittori.criterion.verify`, which
carries its orbit, action and matrix from one checkpoint to the next,
must give the same ``as_json()``.

The matrix-entry bounds are recorded by the library's mediant lemma,
``masur_structural``; wherever it holds, this verifier also asserts the
interval route the lemma replaced: ``masur_entries`` on an enclosure of
alpha, doubling its precision while a comparison is inconclusive
(``sigma_entries_bounded``), must certify all four entries within [-1, 1].

The wedge is recorded by the library's comparison of the complete quotient
with its threshold, ``criterion._quotient_ge``, and ``wedge_ratio`` by
``criterion._wedge_ratio``; at every checkpoint this verifier also asserts
that the interval route the comparison replaced, ``wedge_at``, gives the
same verdict.  ``wedge_at`` encloses alpha to 2**-``PRECISION_BITS`` and
doubles the bits, at most three times, while the enclosure is too wide to
decide the bound and the digit inequality does not imply it; when every
try is too wide it records the check as failed, with an "inconclusive" note.
"""

from __future__ import annotations

from fractions import Fraction

from oracle_torus import entries_fix_beta, word_matrix
from slittori.criterion import (
    CheckpointRecord,
    CylinderStrip,
    VerificationReport,
    _quotient_ge,
    _wedge_ratio,
    masur_structural,
)
from slittori.directions import DirectionSpec
from slittori.exact import ExactScalar
from slittori.intervals import InconclusiveIntervalError, RatInterval
from slittori.torus import trace_word
from slittori.words import Convergents, GenWord

PRECISION_BITS = 256  # starting width 2**-256 of every alpha enclosure
MAX_PRECISION_DOUBLINGS = 4


def wedge_threshold(y: ExactScalar, qk: int) -> ExactScalar:
    return (ExactScalar(1) - 2 * y) / (2 * qk)


def wedge_at(spec: DirectionSpec, conv: Convergents, k: int, threshold,
             digit_inequality: bool, notes: list):
    """(bounded, route, wedge_ratio, precision) of the wedge bound, doubling
    the enclosure's precision from ``PRECISION_BITS`` while no route
    decides it; then the last inconclusive message goes to ``notes``."""
    for attempt in range(MAX_PRECISION_DOUBLINGS):
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


def masur_entries(conv: Convergents, k: int, alpha: RatInterval) -> list[RatInterval]:
    """The four matrix entries q_k (q_k alpha - p_k), q_k (q_{k-1} alpha -
    p_{k-1}), p_k / (alpha q_k) and p_{k-1} / (alpha q_k) on an enclosure."""
    qk, pk = conv.q(k), conv.p(k)
    qk1, pk1 = conv.q(k - 1), conv.p(k - 1)
    e1 = (alpha * qk - pk) * qk
    e2 = (alpha * qk1 - pk1) * qk
    inv_aqk = (alpha * qk).reciprocal()
    e3 = inv_aqk * pk
    e4 = inv_aqk * pk1
    return [e1, e2, e3, e4]


def sigma_entries_bounded(spec: DirectionSpec, conv: Convergents, k: int, bits: int):
    """(bounded, note) of the interval route: whether ``masur_entries``
    certify within [-1, 1], doubling ``bits`` on an inconclusive comparison;
    bounded is None, with the last inconclusive message as the note, when
    every try is inconclusive."""
    for attempt in range(MAX_PRECISION_DOUBLINGS):
        alpha = spec.alpha_enclosure(bits << attempt, min_digits=k + 2)
        try:
            return all(e.certified_abs_le(1) for e in masur_entries(conv, k, alpha)), None
        except InconclusiveIntervalError as exc:
            note = str(exc)
    return None, note


def verify(spec: DirectionSpec, horizon: int) -> VerificationReport:
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    records: list[CheckpointRecord] = []
    y_lo, y_hi = spec.y_bounds
    for n in range(1, horizon + 1):
        k = spec.checkpoint_index(n)
        spec.ensure_digits(k + 1)
        conv = spec.convergents(k)
        word = GenWord.from_digits(spec.digits_prefix(k))
        z_n, action = trace_word(spec.z0, word)
        y_n = z_n.y
        digit_inequality = bool((ExactScalar(1) - 2 * y_n) * spec.digit(k + 1) >= 2)
        notes: list[str] = []

        endpoint_consistent = z_n == spec.checkpoint_point(n)
        fixes_beta = entries_fix_beta(*action)
        y_in_bounds = bool(y_lo <= y_n <= y_hi)

        # cross-check: the strip holonomy is the word matrix applied to (1,0)
        qk, pk = conv.q(k), conv.p(k)
        m = word_matrix(word)
        if (m.a, m.c) != (qk, pk):
            notes.append("holonomy/convergent mismatch")
            endpoint_consistent = False

        sigma_ok = masur_structural(conv, k)
        if sigma_ok:
            bounded, note = sigma_entries_bounded(spec, conv, k, PRECISION_BITS)
            assert bounded is not None, f"checkpoint {n}: sigma inconclusive: {note}"
            assert bounded, f"checkpoint {n}: the lemma holds, the interval entries exceed 1"

        ceiling = 2 / (ExactScalar(1) - 2 * y_n)
        t = ceiling - Fraction(conv.q(k - 1), qk)
        wedge_ok, wedge_digits = _quotient_ge(spec, k, t, notes)
        wedge_route = ("direct+implied" if digit_inequality else "direct") if wedge_ok else "none"
        interval_ok = wedge_at(spec, conv, k, wedge_threshold(y_n, qk), digit_inequality, [])[0]
        assert interval_ok == wedge_ok, f"checkpoint {n}: the quotient and the interval differ"
        wedge_ratio = _wedge_ratio(spec.block(n + 1).digits, conv.q(k - 1), qk, ceiling)

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
                wedge_digits=wedge_digits,
                strip=strip,
                wedge_ratio=wedge_ratio,
                notes=notes,
            )
        )
    return VerificationReport(horizon=horizon, records=records, provenance=spec.provenance)
