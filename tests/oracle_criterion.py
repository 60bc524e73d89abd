"""Reference verifier that re-traces the whole prefix, for differential tests.

At every checkpoint k_n = 8 n this ``verify`` rebuilds the word of the
first k_n digits, traces it from the surface parameter ``spec.z0`` and
multiplies the word's matrix out of generator powers
(``oracle_torus.word_matrix``), so its trace work grows as the square of
the horizon.  It reads the running action with the verdict rule of
``oracle_torus``; every other check is the library's own helper, applied
in the same order.  The library's :func:`slittori.criterion.verify`, which
carries its orbit, action and matrix from one checkpoint to the next,
must give the same ``as_dict()``.
"""

from __future__ import annotations

from oracle_torus import entries_fix_beta, word_matrix
from slittori.criterion import (
    PRECISION_BITS,
    CheckpointRecord,
    CylinderStrip,
    VerificationReport,
    _sigma_at,
    _wedge_at,
    _with_precision_retry,
    wedge_threshold,
)
from slittori.directions import DirectionSpec
from slittori.exact import ExactScalar
from slittori.intervals import RatInterval
from slittori.torus import trace_word
from slittori.words import GenWord


def verify(
    spec: DirectionSpec,
    horizon: int,
    precision_bits: int = PRECISION_BITS,
) -> VerificationReport:
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    records: list[CheckpointRecord] = []
    y_lo, y_hi = spec.y_bounds
    bits_used = precision_bits
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

        sigma_result, bits_sigma, note = _with_precision_retry(
            lambda b: _sigma_at(spec, conv, k, b), precision_bits
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
            precision_bits,
        )
        bits_used = max(bits_used, bits_wedge)
        if wedge_result is None:
            wedge_ok, wedge_route, wedge_ratio = False, "inconclusive", None
            notes.append(f"wedge inconclusive: {note}")
        else:
            wedge_ok, wedge_route, wedge_iv = wedge_result
            thr_iv = RatInterval(*threshold.enclosure(max(64, precision_bits)))
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
