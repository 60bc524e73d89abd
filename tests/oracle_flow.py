"""Reference flow code, kept as oracles for ``tests/test_flow.py``.

``slittori.flow`` finds the next event with one precomputed rule per ray
(``flow._event_rule``).  ``_slit_crossing`` and ``_next_event`` below are
the earlier generic version, which builds a candidate list per call and
divides to get the slit parameter t.

``_simulate_loop`` is the earlier ``simulate`` loop, which runs the event
rule on Fractions; ``slittori.flow`` now runs it on a scaled integer
lattice, and the two must produce identical statistics and event logs.
Both oracle loops bin a sample by the per-segment formula
(``_anchored_bins``): from the exact cell position at the segment's
start, advanced to the sample's time in Fractions, with the bin at the
segment's closing edge event clamped to grid - 1.  ``slittori.flow``
reads the same bins off two integer bin clocks that never look at a
segment, so the two derivations stay independent.

``_lattice_simulate_loop`` is the earlier lattice loop, which calls the
whole event rule at every event (``_lattice_event_rule``, the event rule
with the lattice's half-widths and exact division) and finds each event's
samples by a floor division; ``slittori.flow`` now drives the lattice by
edge and slit clocks, one straight piece per pass, with an integer sample
clock and integer bin clocks, and the two must agree exactly as well.

``_run_closed_by_steps`` is the earlier closed-orbit loop of the surface
validation, which calls ``step_flow`` (a new event rule and state records)
at every event; ``flow._run_closed`` builds the rule once per loop.

``current_discrepancy`` is the earlier total-variation sum, which divides
once per cell; ``OrbitStats.current_discrepancy`` computes each distinct
count's term once, and the two must give the same float.
"""

from __future__ import annotations

import math
from fractions import Fraction

from slittori.exact import ExactScalar
from slittori.flow import (
    DECK_WEIGHTS,
    DEFAULT_SAMPLE_SPACING,
    MAX_CLOSED_EVENTS,
    SingularOrbitError,
    _ceil_div,
    _event_rule,
    _exact_div,
    _lattice_denominator,
    _scale,
    step_flow,
)

_HALF = Fraction(1, 2)


def _sign(v) -> int:
    if isinstance(v, ExactScalar):
        return v.sign()
    return (v > 0) - (v < 0)


def _slit_crossing(model_zx, model_zy, x, y, dx, dy):
    """Earliest s > 0 where (x,y) + s (dx,dy) meets {t z : -1 < t < 1}.

    Returns (s, t) or None; raises SingularOrbitError for a ray running
    along the slit line or through an endpoint (t = +-1).
    """
    det = dx * model_zy - dy * model_zx
    if _sign(det) == 0:
        on_line = _sign(x * model_zy - y * model_zx) == 0
        if on_line:
            raise SingularOrbitError("orbit runs along the slit line")
        return None
    t = (dx * y - dy * x) / det
    s = (model_zx * y - model_zy * x) / det
    if _sign(s) <= 0:
        return None
    if not (-1 <= t <= 1):
        return None
    if t == 1 or t == -1:
        raise SingularOrbitError("orbit hits a cone point")
    return (s, t)


def _next_event(model, state, dx, dy):
    """(s, kind) of the next event with s > 0."""
    candidates = []
    if _sign(dx) > 0:
        candidates.append(((_HALF - state.x) / dx, "right_edge"))
    if _sign(dy) > 0:
        candidates.append(((_HALF - state.y) / dy, "top_edge"))
    hit = _slit_crossing(model.zx, model.zy, state.x, state.y, dx, dy)
    if hit is not None:
        candidates.append((hit[0], "slit"))
    if not candidates:
        raise SingularOrbitError("zero direction")
    s_min = min(c[0] for c in candidates)
    kinds = [kind for s, kind in candidates if s == s_min]
    if "slit" in kinds and len(kinds) > 1:
        raise SingularOrbitError("slit crossing coincides with an edge event")
    kind = "corner" if ("right_edge" in kinds and "top_edge" in kinds) else kinds[0]
    return s_min, kind


def _anchored_bins(x, y, seg, slope, grid):
    """The bins of the cell point (x, y) + seg (1, slope) of one segment,
    floor((v + 1/2) grid) per coordinate v, in exact Fractions.  A segment
    ends at or before its edge event, so v + 1/2 lies in [0, 1] and is 1
    only at that event, whose bin is clamped to the cell before the
    reset, grid - 1."""
    top = grid - 1
    i = math.floor((x + seg + _HALF) * grid)
    j = math.floor((y + slope * seg + _HALF) * grid)
    return min(i, top), min(j, top)


def _simulate_loop(model, slope, T, start, ds, stats, event_log=None):
    half = _HALF
    next_event = _event_rule(model.zx, model.zy, 1, slope)
    w = DECK_WEIGHTS
    x, y = Fraction(start.x), Fraction(start.y)
    sheet, deck = start.sheet, start.deck
    s_done = Fraction(0)
    grid = stats.grid
    m = 0  # next sample index (sample times are m * ds, t = 0 included)
    snapshot_ms = [_ceil_div(T / 4 / ds), _ceil_div(T / 2 / ds), _ceil_div(T / ds)]
    snap_i = 0
    cells = stats.cell_counts
    deck_counts = stats.deck_counts
    N = stats.deck_window

    try:
        while s_done < T:
            s_adv, kind = next_event(x, y)
            remaining = T - s_done
            if remaining <= s_adv:
                s_adv, kind = remaining, "partial"
            s_end = s_done + s_adv

            # samples in (s_done, s_end] (plus t = 0 on the first segment)
            hi = math.floor(s_end / ds)
            while m <= hi:
                i, j = _anchored_bins(x, y, m * ds - s_done, slope, grid)
                cells[sheet][i][j] += 1
                if -N <= deck <= N:
                    deck_counts[deck + N] += 1
                else:
                    stats.deck_overflow += 1
                stats.samples += 1
                while snap_i < 3 and m >= snapshot_ms[snap_i]:
                    stats.discrepancy.append(stats.current_discrepancy())
                    stats.snapshot_samples.append(stats.samples)
                    snap_i += 1
                m += 1

            # apply the event exactly
            x = x + s_adv
            y = y + s_adv * slope
            if event_log is not None:
                event_log.write(f"{s_end},{kind},{sheet},{x},{y},{deck}\n")
            if kind == "slit":
                sheet = 1 - sheet
            elif kind != "partial":
                if kind in ("right_edge", "corner"):
                    x = -half
                    deck += w[sheet]
                    if deck == 0:
                        stats.deck_zero_returns += 1
                if kind in ("top_edge", "corner"):
                    y = -half
            s_done = s_end
    except SingularOrbitError as exc:
        stats.terminated_early = True
        stats.termination_reason = str(exc)
    while len(stats.discrepancy) < 3:
        stats.discrepancy.append(stats.current_discrepancy())
        stats.snapshot_samples.append(stats.samples)
    stats.total_advance = str(s_done)


def _lattice_event_rule(zx, zy, dx, dy, hx, hy):
    """``flow._event_rule`` in the cell [-hx, hx) x [-hy, hy), with every
    division an ``_exact_div``: the per-event rule of the earlier lattice
    loop, which raises LatticeExactnessError where a quotient is not an
    integer."""
    det = dy * zx - dx * zy
    adet = abs(det)
    right, top = dx > 0, dy > 0

    def next_event(x, y):
        s = kind = None
        if right:
            s, kind = _exact_div(hx - x, dx), "right_edge"
        if top:
            s_t = _exact_div(hy - y, dy)
            if s is None or s_t < s:
                s, kind = s_t, "top_edge"
            elif s_t == s:
                kind = "corner"
        if det != 0:
            num = zy * x - zx * y
            if (num > 0) if det > 0 else (num < 0):  # the crossing is ahead
                u = dy * x - dx * y
                if -adet <= u <= adet:
                    if abs(u) == adet:
                        raise SingularOrbitError("orbit hits a cone point")
                    s_c = _exact_div(num, det)
                    if s is None or s_c < s:
                        return s_c, "slit"
                    if s_c == s:
                        raise SingularOrbitError("slit crossing coincides with an edge event")
        elif x * zy == y * zx:
            raise SingularOrbitError("orbit runs along the slit line")
        if s is None:
            raise SingularOrbitError("zero direction")
        return s, kind

    return next_event


def _lattice_simulate_loop(model, slope, T, start, stats, event_log=None):
    """Run ``_lattice_event_rule`` on an integer lattice with one denominator per ray.

    Scale x and the advance s by L (``_lattice_denominator``) and y by
    L q.  The ray becomes (1, p), the cell [-L/2, L/2) x [-Lq/2, Lq/2)
    and the slit endpoint (zx L, zy L q), all integers.  X and Y below
    are the scaled x and y, and every advance (S) is scaled by L.  Every
    event time is an integer:

    * right edge: L/2 - X is an integer, as L is even;
    * top edge: Lq/2 - Y stays a multiple of p.  Y starts as y0 L q, a
      multiple of p because L is; it moves by S p, and resets to -Lq/2,
      also a multiple of p;
    * slit: with det = p zx L - zy L q = L detn / zd, the numerator
      zy L q X - zx L Y starts as (L^2 q / zd)(zyn x0 - zxn y0), a
      multiple of det because L / |detn| clears x0 and y0.  It changes by
      -det S per advance, and edge resets (X by -L, Y by -Lq) change it
      by multiples of det, because |detn| divides L;
    * the final cut T L is an integer, because den T divides L.

    ``_exact_div`` checks this at every event and raises
    LatticeExactnessError rather than floor.  Samples are binned by
    ``_anchored_bins`` from the segment start Fraction(X, L),
    Fraction(Y, L q) at time Fraction(S, L).  The event log and
    ``total_advance`` are formatted from Fraction(S, L).
    """
    x0, y0 = Fraction(start.x), Fraction(start.y)
    p, q = slope.numerator, slope.denominator
    L = _lattice_denominator(slope, model.zx, model.zy, x0, y0, T)
    Lq = L * q
    hx, hy = L // 2, Lq // 2
    next_event = _lattice_event_rule(_scale(model.zx, L), _scale(model.zy, Lq), 1, p, hx, hy)
    w = DECK_WEIGHTS
    X, Y = _scale(x0, L), _scale(y0, Lq)
    sheet, deck = start.sheet, start.deck
    s_done, s_total = 0, _scale(T, L)
    ds = DEFAULT_SAMPLE_SPACING
    ds_den, ds_L = ds.denominator, ds.numerator * L  # ds L = ds_L / ds_den
    grid = stats.grid
    m = 0  # next sample index (sample times are m * ds, t = 0 included)
    snapshot_ms = [_ceil_div(T / 4 / ds), _ceil_div(T / 2 / ds), _ceil_div(T / ds)]
    snap_i = 0
    cells = stats.cell_counts
    deck_counts = stats.deck_counts
    N = stats.deck_window

    try:
        while s_done < s_total:
            s_adv, kind = next_event(X, Y)
            remaining = s_total - s_done
            if remaining <= s_adv:
                s_adv, kind = remaining, "partial"
            s_end = s_done + s_adv

            # samples in (s_done, s_end] (plus t = 0 on the first segment)
            hi = s_end * ds_den // ds_L
            if m <= hi:
                x, y, s = Fraction(X, L), Fraction(Y, Lq), Fraction(s_done, L)
                while m <= hi:
                    i, j = _anchored_bins(x, y, m * ds - s, slope, grid)
                    cells[sheet][i][j] += 1
                    if -N <= deck <= N:
                        deck_counts[deck + N] += 1
                    else:
                        stats.deck_overflow += 1
                    stats.samples += 1
                    while snap_i < 3 and m >= snapshot_ms[snap_i]:
                        stats.discrepancy.append(stats.current_discrepancy())
                        stats.snapshot_samples.append(stats.samples)
                        snap_i += 1
                    m += 1

            X += s_adv
            Y += s_adv * p
            if event_log is not None:
                event_log.write(
                    f"{Fraction(s_end, L)},{kind},{sheet},"
                    f"{Fraction(X, L)},{Fraction(Y, Lq)},{deck}\n"
                )
            if kind == "slit":
                sheet = 1 - sheet
            elif kind != "partial":
                if kind in ("right_edge", "corner"):
                    X = -hx
                    deck += w[sheet]
                    if deck == 0:
                        stats.deck_zero_returns += 1
                if kind in ("top_edge", "corner"):
                    Y = -hy
            s_done = s_end
    except SingularOrbitError as exc:
        stats.terminated_early = True
        stats.termination_reason = str(exc)
    while len(stats.discrepancy) < 3:
        stats.discrepancy.append(stats.current_discrepancy())
        stats.snapshot_samples.append(stats.samples)
    stats.total_advance = str(Fraction(s_done, L))


def _run_closed_by_steps(model, state, dx, dy):
    start = (state.sheet, state.x, state.y)
    segments = []
    cur = state
    for _ in range(MAX_CLOSED_EVENTS):
        res = step_flow(model, cur, dx, dy)
        segments.append(
            (cur.sheet, cur.x, cur.y, cur.x + res.advance * dx, cur.y + res.advance * dy)
        )
        cur = res.state
        if (cur.sheet, cur.x, cur.y) == start:
            return cur.deck - state.deck, segments
    raise RuntimeError("orbit did not close within the event budget")


def current_discrepancy(stats) -> float:
    """Total-variation distance between the sampled cell distribution and
    the uniform one, one term per cell."""
    if stats.samples == 0:
        return 1.0
    g = stats.grid
    target = 1.0 / (2 * g * g)
    total = 0.0
    for sheet in range(2):
        for row in stats.cell_counts[sheet]:
            for count in row:
                total += abs(count / stats.samples - target)
    return total / 2.0
