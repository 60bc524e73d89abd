"""Reference flow code, kept as oracles for ``tests/test_flow.py``.

``_event_rule`` is the per-event rule of the flow: built once per ray,
it gives the next edge, corner or slit event from a cell point, with
the cone-point, along-the-line and coincidence checks, in exact
Fractions or ExactScalars, and ``_land`` applies the event.
``slittori.flow`` no longer steps event by event; ``simulate`` runs on
integer clocks.  ``_slit_crossing`` and ``_next_event`` below are the
earlier generic version of the rule, which builds a candidate list per
call and divides to get the slit parameter t.

``closed_loop_validation`` is the surface validation that
``flow.build_surface`` once ran on every parameter: ``_run_closed``
traces five closed loops with ``_event_rule``, ``_beta_crossings``
counts their signed crossings of a vertical cycle and ``_cone_turns``
the sheet swaps around each slit endpoint.  Every admissible slit gives
``flow.DECK_RULE`` (the module docstring of ``slittori.flow`` proves
it), and the tests check that on a sweep of rational and quadratic
slits.

``_simulate_loop`` is the earlier ``simulate`` loop, which runs
``_event_rule`` on Fractions; ``slittori.flow`` now runs on a scaled
integer lattice, and the two must produce identical statistics and
event logs.  Both oracle loops bin a sample by the per-segment formula
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
    SingularOrbitError,
    _ceil_div,
    _exact_div,
    _lattice_denominator,
    _scale,
)

_HALF = Fraction(1, 2)
# events _run_closed follows before it gives up on a closed orbit
MAX_CLOSED_EVENTS = 10000


def _event_rule(zx, zy, dx, dy):
    """The next-event rule of the flow in direction (dx, dy), built once per ray.

    Returns ``next_event(x, y) -> (s, kind)``: the parameter length s > 0
    from the cell position (x, y) to the next right-edge, top-edge, corner
    or slit event.  The edge times are (1/2 - x) / dx and (1/2 - y) / dy
    (no division for dx = 1).  The slit crossing solves
    (x, y) + s (dx, dy) = t z: with det = dy zx - dx zy,
    s = (zy x - zx y) / det and t = (dy x - dx y) / det.  Whether |t| <= 1
    (and whether t = +-1, a cone point) is decided by comparing
    |dy x - dx y| with |det|, so t is never divided out.  A ray through a
    cone point, along the slit line or crossing the slit exactly at the
    edge event raises SingularOrbitError.
    """
    det = dy * zx - dx * zy
    adet = abs(det)
    nadet = -adet
    crossing, det_pos = det != 0, det > 0
    right, unit_dx, top = dx > 0, dx == 1, dy > 0

    def next_event(x, y):
        s = kind = None
        if right:
            s, kind = (_HALF - x if unit_dx else (_HALF - x) / dx), "right_edge"
        if top:
            s_t = (_HALF - y) / dy
            if s is None or s_t < s:
                s, kind = s_t, "top_edge"
            elif s_t == s:
                kind = "corner"
        if crossing:
            num = zy * x - zx * y
            if (num > 0) if det_pos else (num < 0):  # the crossing is ahead
                u = dy * x - dx * y
                if nadet <= u <= adet:
                    if u == adet or u == nadet:
                        raise SingularOrbitError("orbit hits a cone point")
                    s_c = num / det
                    if s is None or s_c < s:
                        return s_c, "slit"
                    if s_c == s:
                        raise SingularOrbitError(
                            "slit crossing coincides with an edge event"
                        )
        elif x * zy == y * zx:
            raise SingularOrbitError("orbit runs along the slit line")
        if s is None:
            raise SingularOrbitError("zero direction")
        return s, kind

    return next_event


def _land(kind, sheet, x, y, deck):
    """(sheet, x, y, deck) after the event ``kind`` at the cell point (x, y).

    Every event lands back in [-1/2, 1/2)^2: an edge event resets its
    coordinate to -1/2, and the other one (or a slit point t z) is inside.
    """
    if kind == "slit":
        return 1 - sheet, x, y, deck
    if kind in ("right_edge", "corner"):
        x = -_HALF
        deck += DECK_WEIGHTS[sheet]
    if kind in ("top_edge", "corner"):
        y = -_HALF
    return sheet, x, y, deck


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
    """``_event_rule`` in the cell [-hx, hx) x [-hy, hy), with every
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


def _run_closed(zx, zy, sheet, x, y, dx, dy):
    """Flow from the cell point (x, y) on ``sheet`` in the direction
    (dx, dy) until the sheet and position return to the start.

    Returns (deck_shift, segments) where segments are
    (sheet, x0, y0, x1, y1) pieces of the orbit in cell coordinates.
    """
    next_event = _event_rule(zx, zy, dx, dy)
    start = (sheet, x, y)
    deck = 0
    segments = []
    for _ in range(MAX_CLOSED_EVENTS):
        s, kind = next_event(x, y)
        x1, y1 = x + s * dx, y + s * dy
        segments.append((sheet, x, y, x1, y1))
        sheet, x, y, deck = _land(kind, sheet, x1, y1, deck)
        if (sheet, x, y) == start:
            return deck, segments
    raise RuntimeError("orbit did not close within the event budget")


def _beta_crossings(beta_x, segments) -> int:
    """Signed crossings of the counting cycle: the vertical circle at
    x = beta_x, oriented so sheet 0 counts +1 per rightward crossing and
    sheet 1 counts -1 (the cycle is anti-invariant under the sheet swap).
    """
    total = 0
    for sheet, x0, _y0, x1, _y1 in segments:
        if x0 < beta_x <= x1:
            total += 1 if sheet == 0 else -1
        elif x1 < beta_x <= x0:
            total -= 1 if sheet == 0 else -1
    return total


def _cone_turns(zx, zy, at_plus: bool) -> int:
    """Sheet swaps per circuit of a small diamond around a slit endpoint.

    One swap per circuit means the endpoint needs two circuits to close
    up, i.e. cone angle 4*pi.
    """
    ex, ey = (zx, zy) if at_plus else (-zx, -zy)
    margins = [
        _HALF - abs(ex) if abs(ex) < _HALF else _HALF,
        _HALF - abs(ey) if abs(ey) < _HALF else _HALF,
        abs(ex) + abs(ey),
    ]
    delta = min(margins) * Fraction(1, 4)
    corners = [
        (ex + delta, ey),
        (ex, ey + delta),
        (ex - delta, ey),
        (ex, ey - delta),
    ]
    crossings = 0
    for (ax, ay), (bx, by) in zip(corners, corners[1:] + corners[:1]):
        # segment (a, b) against slit segment (-z, z): solve
        # a + u (b - a) = t z, u in [0,1), t in [-1, 1]
        ux, uy = bx - ax, by - ay
        det = ux * zy - uy * zx
        if det == 0:
            continue
        t = (ux * ay - uy * ax) / det
        u = (zx * ay - zy * ax) / det
        if 0 <= u < 1 and -1 < t < 1:
            crossings += 1
    return crossings


def closed_loop_validation(zx, zy) -> dict:
    """The surface validation that traced closed loops, in the form of
    ``flow.DECK_RULE``.

    The horizontal core and a vertical loop on each sheet, and a loop that
    crosses the slit on both sheets (at height zy/2, or vertical at
    x = zx/2 for a flat slit), are traced with ``_run_closed``; each
    shift is compared with the signed crossings of the vertical cycle at
    x = (|zx| + 1/2)/2, and a diamond around each slit endpoint counts its
    sheet swaps.
    """
    beta_x = (abs(zx) + _HALF) / 2  # also clear of the slit's x-extent
    y_core = (abs(zy) + _HALF) / 2
    loops = [((sheet, -_HALF, y_core), 1, 0) for sheet in (0, 1)]
    loops += [((sheet, beta_x, -_HALF), 0, 1) for sheet in (0, 1)]
    if zy != 0:
        loops.append(((0, -_HALF, zy / 2), 1, 0))
    else:
        loops.append(((0, zx / 2, -_HALF), 0, 1))
    shifts, geo_ok = [], True
    for start, dx, dy in loops:
        shift, segments = _run_closed(zx, zy, *start, dx, dy)
        shifts.append(shift)
        geo_ok &= _beta_crossings(beta_x, segments) == shift
    return {
        "deck_weights": list(DECK_WEIGHTS),
        "horizontal_core_shifts": shifts[:2],
        "vertical_shifts": shifts[2:4],
        "crossing_loop_shift": shifts[4],
        "geometric_agreement": geo_ok,
        "cone_turns": [_cone_turns(zx, zy, True), _cone_turns(zx, zy, False)],
        "area": 2,
    }


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
