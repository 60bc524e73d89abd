"""Hypothesis verification for a direction stream.

For each checkpoint ``k_n = 8 n`` the verifier replays the first k_n
digits as a word, traces it from the surface parameter and checks,
exactly or with certified rational intervals:

  * the traced homology action fixes beta up to sign (a power of h-);
  * the traced endpoint equals the builder's recorded checkpoint;
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
whose width the ``precision_bits`` argument controls (default 256;
``verify --precision`` on the command line).  When an
enclosure is too wide to decide a comparison the verifier retries with
a doubled precision a few times before recording the check as failed
with an "inconclusive" note.
"""

from __future__ import annotations

from .directions import DirectionSpec
from .exact import ExactScalar, Frozen
from .intervals import InconclusiveIntervalError, RatInterval
from .torus import TorusPoint, trace_word
from .words import Convergents, GenWord

DEFAULT_PRECISION_BITS = 256
_MAX_PRECISION_DOUBLINGS = 4


class CylinderStrip(Frozen):
    """Checkpoint strip data: |intersection with beta|, holonomy, area."""

    __slots__ = ("k", "v", "area")

    def __init__(self, k: int, v: tuple[int, int], area: ExactScalar):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "area", area)

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "v": [self.v[0], self.v[1]],
            "area": list(self.area.as_tuple()),
            "area_float": float(self.area),
        }


def _scalar_json(x: ExactScalar) -> list[int]:
    return list(x.as_tuple())


def _interval_json(iv: RatInterval) -> list[str]:
    return [str(iv.lo), str(iv.hi)]


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


class CheckpointRecord:
    __slots__ = (
        "n", "k", "z", "endpoint_consistent", "homology_fixes_beta", "y_in_bounds",
        "digit_inequality", "sigma_bounded", "sigma_route", "wedge_bounded",
        "wedge_route", "strip", "wedge_ratio", "notes",
    )

    def __init__(
        self,
        n: int,
        k: int,
        z: TorusPoint,
        endpoint_consistent: bool,
        homology_fixes_beta: bool,
        y_in_bounds: bool,
        digit_inequality: bool,
        sigma_bounded: bool,
        sigma_route: str,
        wedge_bounded: bool,
        wedge_route: str,
        strip: CylinderStrip | None,
        wedge_ratio: RatInterval | None,
        notes: list[str] | None = None,
    ):
        self.n = n
        self.k = k
        self.z = z
        self.endpoint_consistent = endpoint_consistent
        self.homology_fixes_beta = homology_fixes_beta
        self.y_in_bounds = y_in_bounds
        self.digit_inequality = digit_inequality
        self.sigma_bounded = sigma_bounded
        self.sigma_route = sigma_route
        self.wedge_bounded = wedge_bounded
        self.wedge_route = wedge_route
        self.strip = strip
        self.wedge_ratio = wedge_ratio
        self.notes = [] if notes is None else notes

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

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "z": [_scalar_json(self.z.x), _scalar_json(self.z.y)],
            "endpoint_consistent": self.endpoint_consistent,
            "homology_fixes_beta": self.homology_fixes_beta,
            "y_in_bounds": self.y_in_bounds,
            "digit_inequality": self.digit_inequality,
            "sigma_bounded": self.sigma_bounded,
            "sigma_route": self.sigma_route,
            "wedge_bounded": self.wedge_bounded,
            "wedge_route": self.wedge_route,
            "strip": self.strip.as_dict() if self.strip else None,
            "wedge_ratio": _interval_json(self.wedge_ratio) if self.wedge_ratio else None,
            "notes": self.notes,
            "ok": self.ok,
        }


class VerificationReport:
    __slots__ = ("horizon", "precision_bits", "records", "provenance")

    def __init__(
        self, horizon: int, precision_bits: int, records: list[CheckpointRecord], provenance: dict
    ):
        self.horizon = horizon
        self.precision_bits = precision_bits
        self.records = records
        self.provenance = provenance

    @property
    def overall(self) -> bool:
        return len(self.records) == self.horizon and all(r.ok for r in self.records)

    def as_dict(self) -> dict:
        return {
            "overall": self.overall,
            "horizon": self.horizon,
            "precision_bits": self.precision_bits,
            "provenance": self.provenance,
            "checkpoints": [r.as_dict() for r in self.records],
        }


def _with_precision_retry(fn, bits: int):
    """Run fn(bits), doubling bits on inconclusive intervals."""
    current = bits
    for _ in range(_MAX_PRECISION_DOUBLINGS):
        try:
            return fn(current), current, None
        except InconclusiveIntervalError as exc:
            note = str(exc)
            current *= 2
    return None, current, note


def verify(
    spec: DirectionSpec,
    horizon: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> VerificationReport:
    """Check every hypothesis at checkpoints 1..horizon.

    Failures never raise; they are recorded per checkpoint and folded
    into ``report.overall``.
    """
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
        tr = trace_word(spec.z0, word, record_points=False)
        z_n = tr.final
        y_n = z_n.y
        digit_inequality = bool((ExactScalar(1) - 2 * y_n) * spec.digit(k + 1) >= 2)
        notes: list[str] = []

        endpoint_consistent = z_n == spec.checkpoint_point(n)
        fixes_beta = tr.action.fixes_beta
        y_in_bounds = bool(y_lo <= y_n <= y_hi)

        # cross-check: the strip holonomy is the word matrix applied to (1,0)
        qk, pk = conv.q(k), conv.p(k)
        if word.matrix().apply(1, 0) != (qk, pk):
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
