"""Event-driven straight-line flow on the two-sheet slit surface.

The surface for parameter z is two unit tori, each the square
``[-1/2, 1/2)^2`` with its usual edge identifications, slit along the
chord from -z to z and cross-glued: crossing the slit swaps sheets,
crossing a square edge wraps within the same sheet.  The two slit
endpoints are cone points of angle 4*pi, the total area is 2, and the
sheet exchange is a translation automorphism fixing the marked points.

The infinite cyclic cover that models the barrier billiard unwinds the
horizontal direction with *opposite* orientation on the two sheets: a
rightward wrap through the vertical edge shifts the deck index by +1 on
sheet 0 and by -1 on sheet 1.  Rather than hard-coding that rule, the
builder derives it by testing candidate weight assignments against
closed-geodesic constraints (horizontal core shifts by +-1, vertical
closed geodesics shift by 0, and every traced closed curve must agree
with an independent geometric count of signed crossings through an
explicit cycle representative).

One event rule (``_event_rule``) finds the next edge, corner or slit
event; ``step_flow``, the builder's closed-curve validation and
``simulate`` all step through it.  Positions, directions and event
times are exact.  Validation and ``step_flow`` accept a quadratic-field
parameter (ExactScalar) as well as a rational one and run the rule on
those scalars.  ``simulate`` needs a rational parameter and a rational
slope, and runs the same rule on an integer lattice: one common
denominator per ray turns every position and event time into an integer
(``_simulate_loop`` gives the argument), and a division that leaves a
remainder raises LatticeExactnessError instead of rounding.  A
direction stream is simulated through an exact convergent of its digit
expansion, chosen so the enclosure of the true slope is narrower than
``2**-precision_bits``; the simulated orbit is then an exactly computed
orbit of that nearby rational direction, with no positional drift at
all.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .directions import DirectionSpec
from .exact import ExactScalar, Frozen

_HALF = Fraction(1, 2)


class SingularOrbitError(RuntimeError):
    """The orbit hits a cone point or runs along the slit."""


class DegenerateSlitError(ValueError):
    pass


class LatticeExactnessError(RuntimeError):
    """An event time on the integer lattice of ``simulate`` is not an
    integer: the common denominator does not cover the orbit."""


def _mod_cell(v):
    """Reduce into [-1/2, 1/2) for Fraction or ExactScalar."""
    n = math.floor(v + _HALF)
    return v - n if n else v


class CoverState(Frozen):
    __slots__ = ("sheet", "x", "y", "deck")

    def __init__(self, sheet: int, x, y, deck: int = 0):  # x, y: Fraction or ExactScalar
        if sheet not in (0, 1):
            raise ValueError("sheet must be 0 or 1")
        if not (-_HALF <= x < _HALF) or not (-_HALF <= y < _HALF):
            raise ValueError("cell position outside [-1/2, 1/2)^2")
        object.__setattr__(self, "sheet", sheet)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "deck", deck)

class ValidationReport(Frozen):
    __slots__ = (
        "deck_weights", "horizontal_core_shifts", "vertical_shifts", "crossing_loop_shift",
        "geometric_agreement", "cone_turns", "area",
    )

    def __init__(
        self,
        deck_weights: tuple[int, int],
        horizontal_core_shifts: tuple[int, int],
        vertical_shifts: tuple[int, int],
        crossing_loop_shift: int,
        geometric_agreement: bool,
        cone_turns: tuple[int, int],
        area: int,
    ):
        object.__setattr__(self, "deck_weights", deck_weights)
        object.__setattr__(self, "horizontal_core_shifts", horizontal_core_shifts)
        object.__setattr__(self, "vertical_shifts", vertical_shifts)
        object.__setattr__(self, "crossing_loop_shift", crossing_loop_shift)
        object.__setattr__(self, "geometric_agreement", geometric_agreement)
        object.__setattr__(self, "cone_turns", cone_turns)
        object.__setattr__(self, "area", area)

    def as_dict(self) -> dict:
        return {
            "deck_weights": list(self.deck_weights),
            "horizontal_core_shifts": list(self.horizontal_core_shifts),
            "vertical_shifts": list(self.vertical_shifts),
            "crossing_loop_shift": self.crossing_loop_shift,
            "geometric_agreement": self.geometric_agreement,
            "cone_turns": list(self.cone_turns),
            "area": self.area,
        }


class SurfaceModel(Frozen):
    __slots__ = ("zx", "zy", "deck_weights", "beta_x", "validation")

    def __init__(
        self, zx, zy, deck_weights: tuple[int, int], beta_x, validation: ValidationReport
    ):  # beta_x: x-position of the vertical cycle used for counting
        object.__setattr__(self, "zx", zx)
        object.__setattr__(self, "zy", zy)
        object.__setattr__(self, "deck_weights", deck_weights)
        object.__setattr__(self, "beta_x", beta_x)
        object.__setattr__(self, "validation", validation)


# ---------------------------------------------------------------------------
# event stepping


class StepResult(Frozen):
    __slots__ = ("state", "advance", "event")

    def __init__(self, state: CoverState, advance, event: str):
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "advance", advance)  # parameter length of this step
        # "right_edge" | "top_edge" | "corner" | "slit" | "partial"
        object.__setattr__(self, "event", event)


def _event_rule(zx, zy, dx, dy, hx=_HALF, hy=_HALF, div=operator.truediv):
    """The next-event rule of the flow in direction (dx, dy), built once per ray.

    Returns ``next_event(x, y) -> (s, kind)``: the parameter length s > 0
    from the cell position (x, y) to the next right-edge, top-edge, corner
    or slit event, in the cell [-hx, hx) x [-hy, hy).  The slit crossing
    solves (x, y) + s (dx, dy) = t z: with det = dy zx - dx zy,
    s = (zy x - zx y) / det and t = (dy x - dx y) / det.  Whether |t| <= 1
    (and whether t = +-1, a cone point) is decided by comparing
    |dy x - dx y| with |det|, so t is never divided out.  Every event time
    is one ``div``: true division for Fraction and ExactScalar parameters
    in the unit cell, ``_exact_div`` on the integer lattice of ``simulate``.
    """
    det = dy * zx - dx * zy
    adet = abs(det)
    nadet = -adet
    crossing, det_pos = det != 0, det > 0
    right, unit_dx, top = dx > 0, dx == 1, dy > 0  # simulate always has dx = 1

    def next_event(x, y):
        s = kind = None
        if right:
            s, kind = (hx - x if unit_dx else div(hx - x, dx)), "right_edge"
        if top:
            s_t = div(hy - y, dy)
            if s is None or s_t < s:
                s, kind = s_t, "top_edge"
            elif s_t == s:
                kind = "corner"
        if crossing:
            num = zy * x - zx * y
            if (num > 0) if det_pos else (num < 0):  # s > 0
                u = dy * x - dx * y
                if nadet <= u <= adet:
                    if u == adet or u == nadet:
                        raise SingularOrbitError("orbit hits a cone point")
                    s_c = div(num, det)
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


def step_flow(
    model: SurfaceModel, state: CoverState, dx, dy, max_advance=None
) -> StepResult:
    """Advance to the next boundary/slit event (or by max_advance if sooner)."""
    if dx < 0 or dy < 0 or (dx == 0 and dy == 0):
        raise ValueError("direction must be nonzero with nonnegative components")
    s, kind = _event_rule(model.zx, model.zy, dx, dy)(state.x, state.y)
    if max_advance is not None and max_advance < s:
        nx, ny = state.x + max_advance * dx, state.y + max_advance * dy
        return StepResult(
            CoverState(state.sheet, nx, ny, state.deck), max_advance, "partial"
        )
    # every event lands back in [-1/2, 1/2)^2: an edge event resets its
    # coordinate to -1/2, and the other one (or a slit point t z) is inside
    nx, ny = state.x + s * dx, state.y + s * dy
    sheet, deck = state.sheet, state.deck
    if kind == "slit":
        sheet = 1 - sheet
    else:
        if kind in ("right_edge", "corner"):
            nx = -_HALF
            deck += model.deck_weights[sheet]
        if kind in ("top_edge", "corner"):
            ny = -_HALF
    return StepResult(CoverState(sheet, nx, ny, deck), s, kind)


def _run_closed(model: SurfaceModel, state: CoverState, dx, dy, max_events=10000):
    """Flow until the (sheet, position) returns to the start.

    Returns (deck_shift, segments) where segments are
    (sheet, x0, y0, x1, y1) pieces of the orbit in cell coordinates.
    """
    start = (state.sheet, state.x, state.y)
    segments = []
    cur = state
    for _ in range(max_events):
        res = step_flow(model, cur, dx, dy)
        segments.append(
            (cur.sheet, cur.x, cur.y, cur.x + res.advance * dx, cur.y + res.advance * dy)
        )
        cur = res.state
        if (cur.sheet, cur.x, cur.y) == start:
            return cur.deck - state.deck, segments
    raise RuntimeError("orbit did not close within the event budget")


def _beta_crossings(model: SurfaceModel, segments) -> int:
    """Signed crossings of the counting cycle: the vertical circle at
    x = beta_x, oriented so sheet 0 counts +1 per rightward crossing and
    sheet 1 counts -1 (the cycle is anti-invariant under the sheet swap).
    """
    total = 0
    xb = model.beta_x
    for sheet, x0, _y0, x1, _y1 in segments:
        if x0 < xb <= x1:
            total += 1 if sheet == 0 else -1
        elif x1 < xb <= x0:
            total -= 1 if sheet == 0 else -1
    return total


# ---------------------------------------------------------------------------
# build + validation


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


def build_surface(z) -> SurfaceModel:
    """Validated surface model for a parameter z = (x, y).

    ``z`` may be a TorusPoint or a pair of scalars.  The deck rule is
    derived by checking candidate edge weights against the closed-curve
    constraints; a model that fails any constraint is refused.
    """
    if hasattr(z, "x") and hasattr(z, "y"):
        zx, zy = z.x, z.y
    else:
        zx, zy = z
    if isinstance(zx, ExactScalar) and zx.is_rational:
        zx = zx.as_fraction()
    if isinstance(zy, ExactScalar) and zy.is_rational:
        zy = zy.as_fraction()
    if zx == 0 and zy == 0:
        raise DegenerateSlitError("slit endpoints coincide")
    if not (-_HALF < zx < _HALF) or not (-_HALF < zy < _HALF):
        raise DegenerateSlitError(
            "slit endpoint on the square edge is not supported by the simulator"
        )

    beta_x = (abs(zx) + _HALF) / 2
    y_core = (abs(zy) + _HALF) / 2
    x_vert = beta_x  # also clear of the slit's x-extent

    for weights in ((1, -1), (-1, 1)):
        probe = SurfaceModel(
            zx=zx, zy=zy, deck_weights=weights, beta_x=beta_x,
            validation=None,  # filled below
        )
        h_shifts = []
        v_shifts = []
        ok = True
        geo_ok = True
        for sheet in (0, 1):
            shift, segs = _run_closed(probe, CoverState(sheet, -_HALF, y_core), 1, 0)
            h_shifts.append(shift)
            geo_ok &= _beta_crossings(probe, segs) == shift
            vshift, segs = _run_closed(probe, CoverState(sheet, x_vert, -_HALF), 0, 1)
            v_shifts.append(vshift)
            geo_ok &= _beta_crossings(probe, segs) == vshift
        ok &= h_shifts[0] == 1 and h_shifts[1] == -1  # core shifts +-1, anti-invariant
        ok &= v_shifts == [0, 0]
        # a loop that crosses the slit on both sheets must shift by 0
        cross_shift = None
        if zy != 0:
            y_s = zy / 2  # strictly inside the slit's height range, off-center
            if y_s == 0:
                y_s = zy * Fraction(1, 3)
            cross_shift, segs = _run_closed(probe, CoverState(0, -_HALF, y_s), 1, 0)
        else:
            x_s = zx / 2
            cross_shift, segs = _run_closed(probe, CoverState(0, x_s, -_HALF), 0, 1)
        ok &= cross_shift == 0
        geo_ok &= _beta_crossings(probe, segs) == cross_shift
        if ok and geo_ok:
            turns_plus = _cone_turns(zx, zy, True)
            turns_minus = _cone_turns(zx, zy, False)
            if turns_plus != 1 or turns_minus != 1:
                raise DegenerateSlitError(
                    f"cone-angle audit failed: {turns_plus}, {turns_minus} slit "
                    "crossings per circuit (expected 1 = angle 4*pi)"
                )
            report = ValidationReport(
                deck_weights=weights,
                horizontal_core_shifts=tuple(h_shifts),
                vertical_shifts=tuple(v_shifts),
                crossing_loop_shift=cross_shift,
                geometric_agreement=geo_ok,
                cone_turns=(turns_plus, turns_minus),
                area=2,
            )
            return SurfaceModel(
                zx=zx, zy=zy, deck_weights=weights, beta_x=beta_x, validation=report
            )
    raise DegenerateSlitError("no deck rule satisfies the closed-curve constraints")


# ---------------------------------------------------------------------------
# statistics


class OrbitStats:
    """Sample counts of one simulated orbit.  An empty or omitted
    ``cell_counts`` / ``deck_counts`` starts as zeros of the grid and deck
    window; every omitted list is a new one."""

    __slots__ = (
        "grid", "deck_window", "slope", "start", "samples", "cell_counts", "deck_counts",
        "deck_overflow", "deck_zero_returns", "discrepancy", "snapshot_samples",
        "total_advance", "terminated_early", "termination_reason",
    )

    def __init__(
        self,
        grid: int,
        deck_window: int,
        slope: tuple[int, int],  # simulated slope as (num, den)
        start: tuple[int, str, str, int],
        samples: int = 0,
        cell_counts: list | None = None,  # [sheet][i][j]
        deck_counts: list | None = None,
        deck_overflow: int = 0,
        deck_zero_returns: int = 0,
        discrepancy: list | None = None,
        snapshot_samples: list | None = None,
        total_advance: str = "0",
        terminated_early: bool = False,
        termination_reason: str = "",
    ):
        self.grid = grid
        self.deck_window = deck_window
        self.slope = slope
        self.start = start
        self.samples = samples
        self.cell_counts = cell_counts or [[[0] * grid for _ in range(grid)] for _ in range(2)]
        self.deck_counts = deck_counts or [0] * (2 * deck_window + 1)
        self.deck_overflow = deck_overflow
        self.deck_zero_returns = deck_zero_returns
        self.discrepancy = [] if discrepancy is None else discrepancy
        self.snapshot_samples = [] if snapshot_samples is None else snapshot_samples
        self.total_advance = total_advance
        self.terminated_early = terminated_early
        self.termination_reason = termination_reason

    def current_discrepancy(self) -> float:
        """Total-variation distance between the sampled cell distribution
        and the uniform one; 0 = equidistributed, 1 = fully concentrated."""
        if self.samples == 0:
            return 1.0
        g = self.grid
        target = 1.0 / (2 * g * g)
        total = 0.0
        for sheet in range(2):
            for row in self.cell_counts[sheet]:
                for count in row:
                    total += abs(count / self.samples - target)
        return total / 2.0

    def summary(self) -> dict:
        return {
            "samples": self.samples,
            "slope": [self.slope[0], self.slope[1]],
            "start": list(self.start),
            "grid": self.grid,
            "deck_window": self.deck_window,
            "deck_zero_returns": self.deck_zero_returns,
            "deck_overflow": self.deck_overflow,
            "discrepancy": self.discrepancy,
            "snapshot_samples": self.snapshot_samples,
            "total_advance": self.total_advance,
            "terminated_early": self.terminated_early,
            "termination_reason": self.termination_reason,
        }

    def write_csv(self, fh) -> None:
        """One row per (sheet, cell) and one per deck bin, no header."""
        for sheet in range(2):
            for i in range(self.grid):
                for j in range(self.grid):
                    fh.write(f"cell,{sheet},{i},{j},{self.cell_counts[sheet][i][j]}\n")
        for idx, count in enumerate(self.deck_counts):
            fh.write(f"deck,{idx - self.deck_window},0,0,{count}\n")


def slope_from_spec(spec: DirectionSpec, precision_bits: int = 32) -> Fraction:
    """Exact convergent of the stream with enclosure width <= 2**-bits."""
    target = Fraction(1, 1 << precision_bits)
    k = 8
    while True:
        conv = spec.convergents(k)
        lo, hi = conv.bracket(k)
        if hi - lo <= target:
            return conv.value(k)
        k += 8


DEFAULT_SAMPLE_SPACING = Fraction(1009, 1024)


def simulate(
    model: SurfaceModel,
    slope: Fraction,
    T,
    grid: int = 8,
    deck_window: int = 16,
    start: CoverState | None = None,
    event_log=None,
) -> OrbitStats:
    """Deterministic orbit statistics for the direction (1, slope).

    ``T`` is the total advance in the flow parameter (the x-extent for
    non-vertical directions).  Samples are taken every
    ``DEFAULT_SAMPLE_SPACING`` parameter units; grid occupation, deck histogram
    and returns to deck 0 are accumulated, and the grid discrepancy is
    snapshotted at T/4, T/2 and T.  Event times and positions are exact
    integers on a lattice with one common denominator for the ray (the
    per-event advances sum to exactly T); only the per-sample cell
    assignment is evaluated in floats, re-anchored to the exact position
    at every event, which keeps the statistics deterministic and
    drift-free.
    """
    slope = Fraction(slope)
    if slope < 0:
        raise ValueError("slope must be nonnegative")
    T = Fraction(T)
    if T <= 0 or grid < 1 or deck_window < 0:
        raise ValueError("T, grid, deck window must be positive")
    if start is None:
        start = CoverState(0, -_HALF, Fraction(0), 0)
    if not isinstance(model.zx, Fraction) or not isinstance(model.zy, Fraction):
        raise ValueError("simulate needs a rational surface parameter")
    stats = OrbitStats(
        grid=grid,
        deck_window=deck_window,
        slope=(slope.numerator, slope.denominator),
        start=(start.sheet, str(start.x), str(start.y), start.deck),
    )
    _simulate_loop(model, slope, T, start, DEFAULT_SAMPLE_SPACING, stats, event_log)
    return stats


def _ceil_div(a: Fraction) -> int:
    return -((-a.numerator) // a.denominator)


def _exact_div(a: int, b: int) -> int:
    """a / b for integers that must divide exactly; never floors."""
    quot, rem = divmod(a, b)
    if rem:
        raise LatticeExactnessError(f"event time {a}/{b} is not a lattice integer")
    return quot


def _scale(v: Fraction, k: int) -> int:
    """v * k, which must be an integer."""
    return _exact_div(v.numerator * k, v.denominator)


def _lattice_denominator(slope: Fraction, zx: Fraction, zy: Fraction, x0, y0, T) -> int:
    """The common denominator L of a ``simulate`` ray (see ``_simulate_loop``).

    With slope p/q, slit endpoint (zxn, zyn)/zd and detn = p zxn - q zyn,
    L = lcm(2, den x0, den y0, den T, zd) * p * |detn|, taking 1 for p or
    detn when it is 0.
    """
    p, q = slope.numerator, slope.denominator
    zd = math.lcm(zx.denominator, zy.denominator)
    detn = int((p * zx - q * zy) * zd)
    base = math.lcm(2, x0.denominator, y0.denominator, T.denominator, zd)
    return base * (p or 1) * (abs(detn) or 1)


def _simulate_loop(model, slope, T, start, ds, stats, event_log=None):
    """Run ``_event_rule`` on an integer lattice with one denominator per ray.

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
    LatticeExactnessError rather than floor.  Samples read X / L,
    Y / (L q) and S / L; Python's int true division is correctly
    rounded, so these equal ``float`` of the Fractions bit for bit.  The
    event log and ``total_advance`` are formatted from Fraction(S, L).
    """
    x0, y0 = Fraction(start.x), Fraction(start.y)
    p, q = slope.numerator, slope.denominator
    L = _lattice_denominator(slope, model.zx, model.zy, x0, y0, T)
    Lq = L * q
    hx, hy = L // 2, Lq // 2
    next_event = _event_rule(
        _scale(model.zx, L), _scale(model.zy, Lq), 1, p, hx, hy, _exact_div
    )
    w = model.deck_weights
    X, Y = _scale(x0, L), _scale(y0, Lq)
    sheet, deck = start.sheet, start.deck
    s_done, s_total = 0, _scale(T, L)
    slope_f = float(slope)
    ds_f = float(ds)
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
                x_f, y_f = X / L, Y / Lq
                s_done_f = s_done / L
                while m <= hi:
                    seg = m * ds_f - s_done_f
                    xs = x_f + seg
                    ys = y_f + slope_f * seg
                    i = int((xs + 0.5) * grid)
                    j = int((ys + 0.5) * grid)
                    if i > grid - 1:
                        i = grid - 1
                    elif i < 0:
                        i = 0
                    if j > grid - 1:
                        j = grid - 1
                    elif j < 0:
                        j = 0
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


# ---------------------------------------------------------------------------
# billiard correspondence (z = (0, lambda) models)


class BilliardState(Frozen):
    """A point mass in the half-open strip with barriers at integer x.

    ``x`` is unbounded, ``0 <= y <= 1/2``; the direction (vx, vy) is any
    nonzero vector.
    """

    __slots__ = ("x", "y", "vx", "vy")

    def __init__(self, x, y, vx, vy):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "vx", vx)
        object.__setattr__(self, "vy", vy)

def billiard_to_cover(b: BilliardState, lam) -> tuple[CoverState, tuple]:
    """Unfold a billiard state into (cover state, canonical direction).

    The canonical direction is (|vx|, |vy|); the sheet encodes the sign
    of vx, the sign of the cell height encodes the sign of vy, and the
    deck index is the barrier period containing the physical x.  The
    deck generator translates sheet 0 by +1 and sheet 1 by -1 (the
    unfolded coordinate there is -x), which is exactly the edge rule
    the surface validation derives.
    """
    if not (0 <= b.y <= _HALF):
        raise ValueError("billiard height outside [0, 1/2]")
    if b.vx == 0 and b.vy == 0:
        raise ValueError("zero direction")
    x_int = math.floor(b.x)
    if b.x == x_int and b.y < lam:
        raise ValueError("position on a barrier interior")
    sheet = 0 if b.vx >= 0 else 1
    deck = math.floor(b.x + _HALF)
    if sheet == 0:
        cell = b.x - deck
    else:
        cell = deck - b.x
        if cell == _HALF:  # sheet-1 convention is half-open on the other side
            cell, deck = -_HALF, deck - 1
    yb = b.y if b.vy >= 0 else -b.y
    state = CoverState(sheet, cell, _mod_cell(yb), deck)
    return state, (abs(b.vx), abs(b.vy))


def cover_to_billiard(state: CoverState, direction: tuple) -> BilliardState:
    """Inverse of the unfolding; exact round trip on interior states."""
    ddx, ddy = direction
    if ddx < 0 or ddy < 0:
        raise ValueError("canonical direction must have nonnegative components")
    if state.sheet == 0:
        x, vx = state.deck + state.x, ddx
    else:
        x, vx = state.deck - state.x, -ddx
    y = abs(state.y)
    vy_sign = 1 if state.y >= 0 else -1
    return BilliardState(x=x, y=y, vx=vx, vy=vy_sign * ddy)
