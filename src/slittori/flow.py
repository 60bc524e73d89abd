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
sheet 0 and by -1 on sheet 1.  That rule is the constant
``DECK_WEIGHTS``; ``simulate`` and both billiard maps read it from there
only.  ``DECK_RULE`` records the values the surface's closed loops and
cone points take under it, and every admissible z (z != 0, both
coordinates in the open interval (-1/2, 1/2), rational or in Q(sqrt D))
forces the same values, so ``build_surface`` checks only its input:

* the horizontal core on each sheet, at y = (|zy| + 1/2)/2, lies above
  every slit point (|y| <= |zy|) and below the edge, so one pass meets
  one right edge and no slit, and shifts the deck by DECK_WEIGHTS[sheet];
* the loop at height zy/2 (zy != 0) meets the slit's line at t = 1/2,
  x = zx/2, inside the slit and off the edges, so it crosses the slit
  once per pass and closes after one pass on each sheet, with one right
  edge on each: w0 + w1 = 0.  For a flat slit the loop is the vertical one
  at x = zx/2, which crosses the slit at t = 1/2 in the same way;
* a vertical loop meets top edges only, never a right edge, so it
  shifts by 0 and crosses no vertical cycle;
* the vertical cycle at x = (|zx| + 1/2)/2 lies right of every slit
  point, so each horizontal pass crosses it on the sheet of its right
  edge and counts DECK_WEIGHTS[sheet] as that edge does: each loop's
  signed crossings equal its shift (the geometric agreement);
* a small diamond around +z or -z, inside the square and short of the
  other endpoint, meets the slit once, because the slit runs from its
  centre out of it: one sheet swap per circuit, cone angle 4*pi;
* the area is that of two unit squares, 2.

``tests/oracle_flow.py`` traces these loops event by event, and the
tests compare its results with ``DECK_RULE`` on a seeded sweep of slits.

``simulate`` needs a rational parameter and a rational slope, and runs
on an integer lattice: one common denominator per ray, which the sample
spacing's denominator divides too, turns every position, event time and
sample time into an integer (``_simulate_loop`` gives the argument), and a
division that leaves a remainder raises LatticeExactnessError instead
of rounding.  On the lattice the events come from three clocks.  The
edge clocks have integral periods, L for the right edge and Lq/p for the
top edge.  The slit clock holds the integer time at which the current
straight piece meets the slit's line and the integer that places the
crossing on it; it starts as an exact quotient and moves by integer
steps at each edge reset, so the slit checks take comparisons
only.  The loop takes one straight piece (edge reset to edge reset) per
pass, with its at most one slit crossing inside, and the samples come
from a sample clock that steps by the integer ds L.  Each sample counts
in the half-open grid cell that holds its exact torus position,
(x0 + 1/2 + m ds, y0 + 1/2 + slope m ds) mod 1, read off two integer
bin clocks; a sample at an edge event counts in the cell before the
reset.  No sample is binned in floats.  A direction stream is simulated
through an exact convergent of its digit expansion, chosen so the
enclosure of the true slope is narrower than
``2**-SLOPE_PRECISION_BITS``; the simulated orbit is then an exactly
computed orbit of that nearby rational direction, with no positional
drift at all.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .directions import PERIOD, DigitStreamExhaustedError, DirectionSpec
from .exact import ExactScalar, Frozen, Record, mod_half_open

_HALF = Fraction(1, 2)
# deck shift of a rightward vertical-edge crossing on sheet 0 and sheet 1
DECK_WEIGHTS = (1, -1)
# a spec's slope is its convergent within 2**-SLOPE_PRECISION_BITS
SLOPE_PRECISION_BITS = 32


class SingularOrbitError(RuntimeError):
    """The orbit hits a cone point or runs along the slit."""


class DegenerateSlitError(ValueError):
    pass


class LatticeExactnessError(RuntimeError):
    """An event time on the integer lattice of ``simulate`` is not an
    integer: the common denominator does not cover the orbit."""


class CoverState(Frozen):
    __slots__ = ("sheet", "x", "y", "deck")

    def __init__(self, sheet: int, x, y, deck: int = 0):  # x, y: Fraction or ExactScalar
        if sheet not in (0, 1):
            raise ValueError("sheet must be 0 or 1")
        if not (-_HALF <= x < _HALF) or not (-_HALF <= y < _HALF):
            raise ValueError("cell position outside [-1/2, 1/2)^2")
        _set_sheet(self, sheet)
        _set_x(self, x)
        _set_y(self, y)
        _set_deck(self, deck)


_set_sheet, _set_x, _set_y, _set_deck = CoverState._setters


# what ``simulate`` prints under "deck_rule": the deck rule and the values
# every admissible slit's closed loops and cone points take under it (the
# module docstring gives the proof)
DECK_RULE = {
    "deck_weights": list(DECK_WEIGHTS),
    "horizontal_core_shifts": list(DECK_WEIGHTS),
    "vertical_shifts": [0, 0],
    "crossing_loop_shift": 0,
    "geometric_agreement": True,
    "cone_turns": [1, 1],
    "area": 2,
}


class SurfaceModel(Frozen):
    __slots__ = ("zx", "zy")


def build_surface(z) -> SurfaceModel:
    """Surface model for a parameter z = (x, y).

    ``z`` may be a TorusPoint or a pair of scalars, rational or quadratic;
    a rational ExactScalar becomes a Fraction.  Coinciding slit endpoints
    (z = 0) and an endpoint outside the open square raise
    DegenerateSlitError.  Every other z gives the loop values of
    ``DECK_RULE`` (see the module docstring), so nothing is traced here.
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
    return SurfaceModel(zx=zx, zy=zy)


# ---------------------------------------------------------------------------
# statistics


class OrbitStats(Record):
    """Sample counts of one simulated orbit, all starting at zero: the
    cell and deck counts are zeros of the grid and deck window, and every
    list is a new one."""

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
    ):
        self.grid = grid
        self.deck_window = deck_window
        self.slope = slope
        self.start = start
        self.samples = 0
        self.cell_counts = [[[0] * grid for _ in range(grid)] for _ in range(2)]  # [sheet][i][j]
        self.deck_counts = [0] * (2 * deck_window + 1)
        self.deck_overflow = 0
        self.deck_zero_returns = 0
        self.discrepancy = []
        self.snapshot_samples = []
        self.total_advance = "0"
        self.terminated_early = False
        self.termination_reason = ""

    def current_discrepancy(self) -> float:
        """Total-variation distance between the sampled cell distribution
        and the uniform one; 0 = equidistributed, 1 = fully concentrated.
        Each distinct count's term is computed once, then added per cell
        in cell order, so the sum is the float of the per-cell sum."""
        if self.samples == 0:
            return 1.0
        g = self.grid
        target = 1.0 / (2 * g * g)
        term = {}
        total = 0.0
        for sheet in self.cell_counts:
            for row in sheet:
                for count in row:
                    try:
                        total += term[count]
                    except KeyError:
                        term[count] = abs(count / self.samples - target)
                        total += term[count]
        return total / 2.0

    def as_json(self) -> dict:
        """The ``simulate`` summary, in its own key order; :meth:`write_csv` writes the counts."""
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


def slope_from_spec(spec: DirectionSpec) -> Fraction:
    """Exact convergent of the stream with enclosure width
    <= 2**-``SLOPE_PRECISION_BITS``.

    The enclosure ends at a whole block, so its digit count k is even and
    its lower end is the convergent p_k/q_k.  A finite stream that ends
    before the enclosure is narrow enough raises
    DigitStreamExhaustedError.
    """
    bits = SLOPE_PRECISION_BITS
    enc = spec.alpha_enclosure(bits, min_digits=PERIOD)
    if enc.hi - enc.lo > Fraction(1, 1 << bits):
        raise DigitStreamExhaustedError(
            f"digit stream ends before its enclosure is within 2**-{bits}"
        )
    return enc.lo


DEFAULT_SAMPLE_SPACING = Fraction(1009, 1024)
# largest grid side and deck window ``simulate`` allocates counters for:
# 2 grid^2 cell counters and 2 deck_window + 1 deck bins
MAX_GRID = 1024
MAX_DECK_WINDOW = 1 << 20
# least slope or T ``simulate`` refuses: no float reaches it, and an orbit
# that long would not finish
MAX_MAGNITUDE = 1 << 1024


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
    per-event advances sum to exactly T), kept by edge, slit and sample
    clocks (``_simulate_loop``).  Each sample counts in the half-open cell
    [k/grid, (k+1)/grid) on each axis that holds its exact position, read
    off integer bin clocks, except that a sample exactly at an edge event
    counts in the cell before the reset (grid - 1 on the axis that
    wraps); so the statistics are exact, deterministic and drift-free.
    ``grid`` above ``MAX_GRID`` or ``deck_window`` above
    ``MAX_DECK_WINDOW`` raises ValueError before any counter is allocated,
    and a slope or T of ``MAX_MAGNITUDE`` (2**1024, past every float) or
    more raises OverflowError before the lattice is formed.
    """
    slope = Fraction(slope)
    if slope < 0:
        raise ValueError("slope must be nonnegative")
    T = Fraction(T)
    if T <= 0 or grid < 1 or deck_window < 0:
        raise ValueError("T, grid, deck window must be positive")
    if slope >= MAX_MAGNITUDE or T >= MAX_MAGNITUDE:
        raise OverflowError("a slope or T of 2**1024 or more is refused")
    if grid > MAX_GRID or deck_window > MAX_DECK_WINDOW:
        raise ValueError(
            f"grid above {MAX_GRID} or deck window above {MAX_DECK_WINDOW} is refused"
        )
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
    _simulate_loop(model, slope, T, start, stats, event_log)
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

    With slope p/q, slit endpoint (zxn, zyn)/zd, detn = p zxn - q zyn and
    the sample spacing ds = ``DEFAULT_SAMPLE_SPACING``,
    L = lcm(2, den x0, den y0, den T, zd, den ds) * p * |detn|, taking 1
    for p or detn when it is 0.
    """
    p, q = slope.numerator, slope.denominator
    zd = math.lcm(zx.denominator, zy.denominator)
    detn = int((p * zx - q * zy) * zd)
    base = math.lcm(
        2, x0.denominator, y0.denominator, T.denominator, zd, DEFAULT_SAMPLE_SPACING.denominator
    )
    return base * (p or 1) * (abs(detn) or 1)


def _bin_clock(a: Fraction, b: Fraction, grid: int):
    """The integer clock of the bin coordinate (a + m b) grid mod grid of
    sample m, for 0 <= a < 1 and b >= 0.

    Returns (i, f, di, df, den): sample 0's bin i and fractional part
    f / den, and the step di + df / den with di reduced mod grid.
    """
    a, b = a * grid, b * grid
    den = math.lcm(a.denominator, b.denominator)
    i, f = divmod(a.numerator * (den // a.denominator), den)
    di, df = divmod(b.numerator * (den // b.denominator), den)
    return i, f, di % grid, df, den


def _simulate_loop(model, slope, T, start, stats, event_log=None):
    """Run the flow on an integer lattice with one denominator per ray,
    one straight piece per pass, driven by event clocks, a sample clock
    and two bin clocks.

    Scale x and the advance s by L (``_lattice_denominator``) and y by
    L q.  The ray becomes (1, p), the cell [-L/2, L/2) x [-Lq/2, Lq/2)
    and the slit endpoint (ZX, ZY) = (zx L, zy L q), all integers.  X and
    Y below are the scaled x and y, and s, e and every clock are lattice
    times (advances scaled by L) counted from the start.  Every event and
    sample time is an integer:

    * right edge: L/2 - X is an integer, as L is even;
    * top edge: Lq/2 - Y stays a multiple of p.  Y starts as y0 L q, a
      multiple of p because L is; it moves by S p, and resets to -Lq/2,
      also a multiple of p;
    * slit: with det = p ZX - ZY = L detn / zd, the straight piece through
      (X, Y) meets the slit's line at the time t_line = s + (ZY X - ZX Y)
      / det and the slit parameter u / det, where u = p X - Y; both stay
      constant as the ray advances.  t_line starts as
      L q (zyn x0 - zxn y0) / detn, an integer because L / |detn| clears
      x0 and y0.  A right-edge reset (X by -L) adds
      -ZY L / det = -zyn q L / detn to t_line and -p L to u, and a
      top-edge reset (Y by -Lq) adds ZX Lq / det = zxn L q / detn and Lq:
      integers, because |detn| divides L;
    * the final cut T L is an integer, because den T divides L;
    * sample m sits at m ds L, a multiple of the integer ds L, because
      den ds divides L.

    So no event needs a division after the start: the right-edge clock
    ``t_right`` advances by its period L at each right-edge reset, the
    top-edge clock ``t_top`` by its period Lq/p at each top-edge reset (a
    corner is both), the slit clock (t_line, u) by the steps above, and
    the sample clock ``m_clock`` by ds L per sample.  The position is
    read off two more integers, X = x_base + s and Y = y_base + p s, whose
    bases move by -L and -Lq at the resets; it is formed only for the
    event log.  ``_exact_div`` checks the first
    top time, the top period, t_line and its two steps at the start, and
    raises LatticeExactnessError rather than floor.

    Each pass walks one straight piece, from s to its edge event e (the
    earlier of the two edge clocks, both at a corner), cut at T L.  A
    straight piece meets the slit segment at most once, so its crossing
    is decided at the start of the piece, by comparisons: with the
    crossing ahead (s < t_line), |u| = |det| is a cone point, and for
    |u| < |det| the crossing is a slit event at t_line when t_line < e
    and a coincidence when t_line = e.  A slit event before the cut
    splits the piece: its samples up to t_line go to the old sheet, the
    sheet flips, and the rest go to the new one.  The deck is constant on
    a piece, so the piece's samples enter the deck histogram at once.
    For det = 0 the ray is parallel to the slit: t_line holds the
    numerator ZY X - ZX Y itself (constant along the ray, with the steps
    -ZY L and ZX Lq), and the ray runs along the slit line when it is 0.
    A segment (s, b] holds the samples with m_clock <= b (t = 0 falls in
    the first segment).

    A sample counts in the half-open cell [k/grid, (k+1)/grid) on each
    axis that holds its exact cell position, (x0 + 1/2 + m ds,
    y0 + 1/2 + slope m ds) mod 1, as an edge wraps by 1 and a slit
    crossing moves no point.  Its bin coordinates run on two integer
    clocks (``_bin_clock``), each a bin and the numerator of its
    fractional part; a sample adds the step, carries 1 into the bin when
    the fractional part passes 1, and subtracts grid once when the bin
    passes grid - 1.  The one exception is a sample at its piece's own
    edge event (m_clock = e): it lies on the edge that the reset wraps to
    0, and it counts in the cell before the reset, grid - 1 on x at a
    right edge, on y at a top edge and on both at a corner.  The event
    log and ``total_advance`` are formatted from Fraction(s, L).
    """
    x0, y0 = Fraction(start.x), Fraction(start.y)
    p, q = slope.numerator, slope.denominator
    L = _lattice_denominator(slope, model.zx, model.zy, x0, y0, T)
    Lq = L * q
    hx, hy = L // 2, Lq // 2
    zx, zy = _scale(model.zx, L), _scale(model.zy, Lq)
    w = DECK_WEIGHTS
    X, Y = _scale(x0, L), _scale(y0, Lq)
    sheet, deck = start.sheet, start.deck
    s, s_total = 0, _scale(T, L)
    t_right = hx - X
    if p:
        t_top, top_period = _exact_div(hy - Y, p), _exact_div(Lq, p)
    else:  # no top edge: a time past every right-edge time
        t_top, top_period = s_total + L, None
    det = p * zx - zy
    adet = abs(det)
    nadet = -adet
    u, u_dx = p * X - Y, -p * L
    # t_line and its right and top reset steps; the numerators for det = 0
    line = (zy * X - zx * Y, -zy * L, zx * Lq)
    t_line, line_dx, line_dy = (_exact_div(v, det) for v in line) if det else line
    x_base, y_base = X, Y
    ds = DEFAULT_SAMPLE_SPACING
    m_step = _scale(ds, L)
    m = m_clock = 0  # the next sample's index and lattice time m ds L
    grid = stats.grid
    top_cell = grid - 1
    i, fx, di, dfx, den_x = _bin_clock(x0 + _HALF, ds, grid)
    j, fy, dj, dfy, den_y = _bin_clock(y0 + _HALF, slope * ds, grid)
    di_carry, dj_carry = di + 1, dj + 1
    # sample indices of the T/4, T/2 and T snapshots, then one past every sample
    snaps = [_ceil_div(T / 4 / ds), _ceil_div(T / 2 / ds), _ceil_div(T / ds)]
    snaps.append(snaps[-1] + 1)
    next_snap = snaps[0]
    cells = stats.cell_counts
    rows = cells[sheet]
    deck_counts = stats.deck_counts
    N = stats.deck_window
    overflow = zero_returns = 0

    try:
        while True:
            # the straight piece from s to its edge event e, cut at s_total
            right, top = t_right <= t_top, t_top <= t_right
            e = t_right if right else t_top
            end = e if e < s_total else s_total
            bound = end  # the piece's slit event instead, if it has one before the cut
            if det:
                if s < t_line and nadet <= u <= adet:
                    if u == adet or u == nadet:
                        raise SingularOrbitError("orbit hits a cone point")
                    if t_line == e:
                        raise SingularOrbitError("slit crossing coincides with an edge event")
                    if t_line < end:
                        bound = t_line
            elif t_line == 0:
                raise SingularOrbitError("orbit runs along the slit line")

            m_piece = m
            while True:
                # samples in (s, bound]
                while m_clock <= bound:
                    if m_clock == e:  # on the piece's edge: the cell before the reset
                        rows[top_cell if right else i][top_cell if top else j] += 1
                    else:
                        rows[i][j] += 1
                    if m >= next_snap:
                        stats.samples = m + 1
                        while m >= snaps[0]:
                            del snaps[0]
                            stats.discrepancy.append(stats.current_discrepancy())
                            stats.snapshot_samples.append(m + 1)
                        next_snap = snaps[0]
                    m += 1
                    m_clock += m_step
                    fx += dfx
                    if fx >= den_x:
                        fx -= den_x
                        i += di_carry
                    else:
                        i += di
                    if i >= grid:
                        i -= grid
                    fy += dfy
                    if fy >= den_y:
                        fy -= den_y
                        j += dj_carry
                    else:
                        j += dj
                    if j >= grid:
                        j -= grid

                if event_log is not None:
                    if bound != end:
                        kind = "slit"
                    elif e >= s_total:
                        kind = "partial"
                    else:
                        kind = "corner" if right and top else "right_edge" if right else "top_edge"
                    event_log.write(
                        f"{Fraction(bound, L)},{kind},{sheet},"
                        f"{Fraction(x_base + bound, L)},{Fraction(y_base + p * bound, Lq)},{deck}\n"
                    )
                if bound == end:
                    break
                # the slit event: the rest of the piece runs on the other sheet
                s, bound = bound, end
                sheet = 1 - sheet
                rows = cells[sheet]

            if -N <= deck <= N:
                deck_counts[deck + N] += m - m_piece
            else:
                overflow += m - m_piece
            s = end
            if e >= s_total:  # the final cut
                break
            if right:
                x_base -= L
                t_right += L
                t_line += line_dx
                u += u_dx
                deck += w[sheet]
                if deck == 0:
                    zero_returns += 1
            if top:
                y_base -= Lq
                t_top += top_period
                t_line += line_dy
                u += Lq
    except SingularOrbitError as exc:
        stats.terminated_early = True
        stats.termination_reason = str(exc)
    stats.samples = m
    stats.deck_overflow = overflow
    stats.deck_zero_returns = zero_returns
    while len(stats.discrepancy) < 3:
        stats.discrepancy.append(stats.current_discrepancy())
        stats.snapshot_samples.append(m)
    stats.total_advance = str(Fraction(s, L))


# ---------------------------------------------------------------------------
# billiard correspondence (z = (0, lambda) models)


class BilliardState(Frozen):
    """A point mass in the half-open strip with barriers at integer x.

    ``x`` is unbounded, ``0 <= y <= 1/2``; the direction (vx, vy) is any
    nonzero vector.
    """

    __slots__ = ("x", "y", "vx", "vy")


def billiard_to_cover(b: BilliardState, lam) -> tuple[CoverState, tuple]:
    """Unfold a billiard state into (cover state, canonical direction).

    The canonical direction is (|vx|, |vy|); the sheet encodes the sign
    of vx, the sign of the cell height encodes the sign of vy, and the
    deck index is the barrier period containing the physical x.  The
    deck generator translates sheet ``s`` by ``DECK_WEIGHTS[s]`` (+1 on
    sheet 0, -1 on sheet 1, where the unfolded coordinate is -x), the
    edge rule behind ``DECK_RULE``.
    """
    if not (0 < lam < _HALF):
        raise ValueError("barrier length ratio must lie in (0, 1/2)")
    if not (0 <= b.y <= _HALF):
        raise ValueError("billiard height outside [0, 1/2]")
    if b.vx == 0 and b.vy == 0:
        raise ValueError("zero direction")
    x_int = math.floor(b.x)
    if b.x == x_int and b.y < lam:
        raise ValueError("position on a barrier interior")
    sheet = 0 if b.vx >= 0 else 1
    w = DECK_WEIGHTS[sheet]
    deck = math.floor(b.x + _HALF)
    cell = w * (b.x - deck)
    if cell == _HALF:  # only on sheet 1, whose cell is half-open on the other side
        cell, deck = -_HALF, deck + w
    yb = b.y if b.vy >= 0 else -b.y
    state = CoverState(sheet, cell, mod_half_open(yb), deck)
    return state, (abs(b.vx), abs(b.vy))


def cover_to_billiard(state: CoverState, direction: tuple) -> BilliardState:
    """Inverse of the unfolding; exact round trip on interior states."""
    ddx, ddy = direction
    if ddx < 0 or ddy < 0:
        raise ValueError("canonical direction must have nonnegative components")
    w = DECK_WEIGHTS[state.sheet]
    x, vx = state.deck + w * state.x, w * ddx
    y = abs(state.y)
    vy_sign = 1 if state.y >= 0 else -1
    return BilliardState(x=x, y=y, vx=vx, vy=vy_sign * ddy)
