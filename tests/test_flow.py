import io
import math
import random
import time
from fractions import Fraction

import pytest

from slittori import flow
from slittori.directions import DigitRule
from slittori.exact import ExactScalar, mod_half_open
from slittori.flow import (
    DECK_RULE,
    BilliardState,
    CoverState,
    DegenerateSlitError,
    SingularOrbitError,
    billiard_to_cover,
    build_surface,
    cover_to_billiard,
    simulate,
    slope_from_spec,
)
from slittori.irrational import direction_stream_irrational
from slittori.rational import RationalParam, direction_stream
from slittori.torus import TorusPoint

H = Fraction(1, 2)


@pytest.fixture(scope="module")
def quarter_model():
    return build_surface(TorusPoint.of(0, Fraction(1, 4)))


@pytest.fixture(scope="module")
def quarter_slope():
    spec = direction_stream(
        RationalParam.from_barrier_length(Fraction(1, 4)), DigitRule("const", (1,))
    )
    return slope_from_spec(spec)


def test_build_validation_vertical_slit(quarter_model):
    # the values ``simulate`` prints under "deck_rule", in this order
    assert (quarter_model.zx, quarter_model.zy) == (0, Fraction(1, 4))
    assert list(DECK_RULE.items()) == [
        ("deck_weights", [1, -1]),
        ("horizontal_core_shifts", [1, -1]),
        ("vertical_shifts", [0, 0]),
        ("crossing_loop_shift", 0),
        ("geometric_agreement", True),
        ("cone_turns", [1, 1]),
        ("area", 2),
    ]


def test_build_validation_diagonal_slit():
    # rational ExactScalar coordinates become Fractions
    m = build_surface(TorusPoint.of(Fraction(1, 4), Fraction(1, 4)))
    assert (m.zx, m.zy) == (Fraction(1, 4), Fraction(1, 4))
    assert type(m.zx) is Fraction and type(m.zy) is Fraction


def test_build_quadratic_parameter():
    zy = ExactScalar(0, 1, 4, 2)
    m = build_surface(TorusPoint(ExactScalar(0), zy))
    assert type(m.zx) is Fraction and m.zx == 0
    assert m.zy == zy and not m.zy.is_rational


def test_build_rejects_edge_and_degenerate():
    with pytest.raises(DegenerateSlitError):
        build_surface(TorusPoint.of(Fraction(-1, 2), Fraction(1, 4)))
    with pytest.raises(DegenerateSlitError):
        build_surface((Fraction(0), Fraction(0)))


def test_closed_loops_give_the_deck_rule():
    """The closed-loop validation of ``oracle_flow``, which traces the
    loops event by event, gives ``DECK_RULE`` on every slit that
    ``build_surface`` accepts: a seeded sweep of 200 rational and
    quadratic z with vertical, flat, diagonal, near-edge and generic
    slits (the proof is in ``slittori.flow``'s docstring)."""
    import oracle_flow as oracle

    rng = random.Random(3434)

    def rational():
        d = rng.randint(2, 60)
        n = (d - 1) // 2
        return Fraction(rng.randint(-n, n), d)

    def quadratic(D):
        while True:
            v = ExactScalar(rng.randint(-30, 30), rng.choice((-1, 1)) * rng.randint(1, 20),
                            rng.randint(2, 80), D)
            if -H < v < H:
                return v

    def near_edge(D):
        sign = rng.choice((1, -1))
        if D:  # 1/2 - (sqrt D - 1)/k, inside by less than 2/k
            k = rng.randint(100, 10**6)
            return sign * (H - ExactScalar(-1, 1, k, D))
        return sign * (H - Fraction(1, rng.randint(100, 10**6)))

    def nonzero(draw):
        while True:
            v = draw()
            if v != 0:
                return v

    zs = {"vertical": [], "flat": [], "diagonal": [], "near-edge": [], "generic": []}
    for n in range(40):
        D = (0, 2, 3, 5)[n % 4]
        coord = (lambda: quadratic(D)) if D else rational
        zs["vertical"].append((Fraction(0), nonzero(coord)))
        zs["flat"].append((nonzero(coord), Fraction(0)))
        v = nonzero(coord)
        zs["diagonal"].append((v, rng.choice((1, -1)) * v))
        edge, other = near_edge(D), coord()
        zs["near-edge"].append((edge, other) if n % 2 else (other, edge))
        zs["generic"].append((coord(), nonzero(coord)))
    for kind, cases in zs.items():
        for z in cases:
            model = build_surface(z)
            assert oracle.closed_loop_validation(model.zx, model.zy) == DECK_RULE, (kind, z)
    assert sum(map(len, zs.values())) == 200


def _loop_shifts(model):
    """The shifts of ``DECK_RULE``'s horizontal loops as ``simulate`` runs
    them at slope 0: each horizontal core from the left edge through its
    closing right edge (T = 3/2) and, for zy != 0, the loop at height
    zy/2 through its two slit crossings and two right edges, cut at
    T = 9/4, before its next crossing at x = zx/2 > -1/4.  The last event
    row gives the sheet, height and deck after the closing edge; a loop
    that does not return to its sheet and height gives None."""
    runs = [(CoverState(sheet, -H, (abs(model.zy) + H) / 2), Fraction(3, 2)) for sheet in (0, 1)]
    if model.zy:
        runs.append((CoverState(0, -H, model.zy / 2), Fraction(9, 4)))
    shifts = []
    for start, T in runs:
        log = io.StringIO()
        stats = simulate(model, Fraction(0), T, start=start, event_log=log)
        _t, _kind, sheet, _x, y, deck = log.getvalue().splitlines()[-1].split(",")
        closed = not stats.terminated_early and (int(sheet), Fraction(y)) == (start.sheet, start.y)
        shifts.append(int(deck) if closed else None)
    return shifts


def _deck_rule_models():
    """Seeded rational slits: vertical, diagonal, with negative zx, and
    flat (cores only)."""
    rng = random.Random(34)

    def coord():
        d = rng.randint(3, 40)
        return Fraction(rng.randint(1, (d - 1) // 2), d)

    zs = [(Fraction(0), Fraction(1, 4))]
    for _ in range(5):
        a, b = coord(), coord()
        zs += [(Fraction(0), rng.choice((1, -1)) * a), (a, rng.choice((1, -1)) * a),
               (-a, rng.choice((1, -1)) * b), (rng.choice((1, -1)) * a, Fraction(0))]
    return [build_surface(z) for z in zs]


def test_deck_anti_invariance():
    """``simulate``'s own deck counting gives ``DECK_RULE``'s horizontal
    core shifts, +1 on sheet 0 and -1 on sheet 1, and the crossing loop's
    shift w0 + w1 = 0, on the seeded rational slits."""
    rule = DECK_RULE["horizontal_core_shifts"] + [DECK_RULE["crossing_loop_shift"]]
    for model in _deck_rule_models():
        shifts = _loop_shifts(model)
        assert shifts == rule[:len(shifts)] and len(shifts) == (3 if model.zy else 2), model


def test_build_refuses_the_opposite_deck_rule(monkeypatch):
    """The closed curves, not the constant, decide the deck rule: with the
    opposite rule (-1, 1) the cores ``simulate`` runs on surfaces from
    ``build_surface`` contradict ``DECK_RULE``, and so does the reference
    closed-loop validation on a quadratic slit, which ``simulate`` does
    not take."""
    import oracle_flow as oracle

    rule = DECK_RULE["horizontal_core_shifts"]
    monkeypatch.setattr(flow, "DECK_WEIGHTS", (-1, 1))
    for model in _deck_rule_models():
        assert _loop_shifts(model)[:2] == [-1, 1] != rule, model
    monkeypatch.setattr(oracle, "DECK_WEIGHTS", (-1, 1))
    for z in (TorusPoint.of(0, Fraction(1, 4)), TorusPoint(ExactScalar(0), ExactScalar(0, 1, 4, 2))):
        model = build_surface(z)
        report = oracle.closed_loop_validation(model.zx, model.zy)
        assert report["horizontal_core_shifts"] == [-1, 1] != rule, z


def test_horizontal_orbit_above_slit_closes(quarter_model):
    log = io.StringIO()
    start = CoverState(0, -H, Fraction(3, 8))
    simulate(quarter_model, Fraction(0), Fraction(3, 2), start=start, event_log=log)
    assert log.getvalue() == "1,right_edge,0,1/2,3/8,0\n3/2,partial,0,0,3/8,1\n"  # closed, deck +1


def test_vertical_orbit_avoiding_slit():
    # the reference validation's vertical loop: one top edge, deck unchanged
    import oracle_flow as oracle

    shift, segments = oracle._run_closed(0, Fraction(1, 4), 0, Fraction(1, 4), -H, 0, 1)
    assert (shift, segments) == (0, [(0, Fraction(1, 4), -H, Fraction(1, 4), H)])


def test_slit_crossing_swaps_sheet(quarter_model):
    log = io.StringIO()
    start = CoverState(0, -H, Fraction(0))
    simulate(quarter_model, Fraction(1, 8), Fraction(3, 4), start=start, event_log=log)
    assert log.getvalue() == "1/2,slit,0,0,1/16,0\n3/4,partial,1,1/4,3/32,0\n"


def test_cone_point_hit_flagged(quarter_model):
    # the tip z on the second straight piece, on sheet 1: the orbit stops
    # at that piece's start, after its samples so far
    log = io.StringIO()
    start = CoverState(0, -H, Fraction(-1, 4))
    stats = simulate(quarter_model, Fraction(1, 3), 10, start=start, event_log=log)
    assert stats.terminated_early and stats.termination_reason == "orbit hits a cone point"
    assert stats.total_advance == "1" and stats.samples == 2
    assert log.getvalue() == "1/2,slit,0,0,-1/12,0\n1,right_edge,1,1/2,1/12,0\n"


def test_run_along_slit_flagged():
    flat = build_surface((Fraction(1, 4), Fraction(0)))
    stats = simulate(flat, Fraction(0), 10, start=CoverState(0, -H, Fraction(0)))
    assert stats.terminated_early and stats.termination_reason == "orbit runs along the slit line"
    assert stats.samples == 0 and stats.total_advance == "0"


def test_partial_advance(quarter_model):
    log = io.StringIO()
    start = CoverState(0, -H, Fraction(3, 8))
    stats = simulate(quarter_model, Fraction(0), Fraction(1, 4), start=start, event_log=log)
    assert log.getvalue() == "1/4,partial,0,-1/4,3/8,0\n"
    assert stats.total_advance == "1/4"


def test_billiard_round_trip_bulk():
    rng = random.Random(101)
    lam = Fraction(1, 4)
    for _ in range(10**4):
        x = Fraction(rng.randint(-4000, 4000), rng.randint(1, 50))
        y = Fraction(rng.randint(1, 49), 100)
        vx = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        vy = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        if vx == 0 and vy == 0:
            continue
        if x.denominator == 1 and y < lam:
            continue  # barrier interior
        b = BilliardState(x, y, vx, vy)
        state, direction = billiard_to_cover(b, lam)
        assert cover_to_billiard(state, direction) == b


def test_billiard_map_errors():
    with pytest.raises(ValueError):
        billiard_to_cover(BilliardState(Fraction(2), Fraction(1, 8), 1, 1), Fraction(1, 4))
    with pytest.raises(ValueError):
        billiard_to_cover(BilliardState(Fraction(1, 3), Fraction(3, 4), 1, 1), Fraction(1, 4))
    with pytest.raises(ValueError):
        billiard_to_cover(BilliardState(Fraction(1, 3), Fraction(1, 4), 0, 0), Fraction(1, 4))


def _event_rows(model, state, direction, T):
    """``simulate``'s event rows for the cover state and canonical
    direction (dx, dy), dx > 0, up to the x-extent T."""
    log = io.StringIO()
    simulate(model, Fraction(direction[1]) / direction[0], T, start=state, event_log=log)
    return [row.split(",") for row in log.getvalue().splitlines()]


def test_billiard_reflection_matches_cover_flow(quarter_model):
    # top-wall bounce: billiard state before the wall, flowed through it
    # on the cover, maps back to the reflected billiard state
    lam = Fraction(1, 4)
    b = BilliardState(Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5))
    state, direction = billiard_to_cover(b, lam)
    target = Fraction(1, 4)  # enough to cross y = 1/2 in the billiard
    rows = _event_rows(quarter_model, state, direction, target * direction[0])
    assert [row[1] for row in rows] == ["top_edge", "partial"]
    _t, _kind, sheet, x, y, deck = rows[-1]
    back = cover_to_billiard(CoverState(int(sheet), Fraction(x), Fraction(y), int(deck)), direction)
    # manual billiard flow with the same parameter: position advances by
    # s * (vx, vy); the top wall y = 1/2 is reached at s = 1/8, then vy flips
    s_wall = (Fraction(1, 2) - b.y) / b.vy
    s_rest = target - s_wall
    assert back.x == b.x + target * b.vx
    assert back.y == Fraction(1, 2) - s_rest * b.vy
    assert back.vx == b.vx and back.vy == -b.vy


def test_barrier_hit_is_sheet_swap(quarter_model):
    # billiard moving right toward the barrier at x=1 below its tip
    lam = Fraction(1, 4)
    b = BilliardState(Fraction(9, 10), Fraction(1, 10), 1, Fraction(1, 10))
    state, direction = billiard_to_cover(b, lam)
    # flow until past the barrier; the cover orbit swaps sheets at its first event
    rows = _event_rows(quarter_model, state, direction, Fraction(1, 5))
    (_t, kind, sheet, x, y, deck), after = rows[0], rows[1]
    assert kind == "slit" and int(sheet) == state.sheet and int(after[2]) == 1 - state.sheet
    back = cover_to_billiard(CoverState(1 - state.sheet, Fraction(x), Fraction(y), int(deck)), direction)
    assert back.vx == -1  # reflected off the barrier
    assert back.x == 1  # at the barrier line


def test_simulate_rejects_bad_inputs(quarter_model):
    with pytest.raises(ValueError):
        simulate(quarter_model, Fraction(-1, 2), 100)
    with pytest.raises(ValueError):
        simulate(quarter_model, Fraction(1, 2), 0)


def test_simulate_refuses_grid_and_deck_above_cap(quarter_model, monkeypatch):
    # refused before any counter is allocated
    def no_stats(*a, **k):
        raise AssertionError("OrbitStats allocated")

    monkeypatch.setattr(flow, "OrbitStats", no_stats)
    for kwargs in ({"grid": flow.MAX_GRID + 1}, {"deck_window": flow.MAX_DECK_WINDOW + 1}):
        with pytest.raises(ValueError, match="is refused"):
            simulate(quarter_model, Fraction(1, 3), 10, **kwargs)


@pytest.mark.parametrize("slope, T", [
    (Fraction(1, 3), Fraction(10**400)),
    (Fraction(10**400), Fraction(10)),
    (Fraction(1, 3), Fraction(2**1024)),
])
def test_simulate_refuses_a_slope_or_T_past_every_float(quarter_model, slope, T):
    # an orbit that long would never finish, so it is refused before it starts
    start = time.perf_counter()
    with pytest.raises(OverflowError, match="2\\*\\*1024 or more is refused"):
        simulate(quarter_model, slope, T)
    assert time.perf_counter() - start < 1


def _reference_slope(spec, precision_bits):
    """Reference for ``slope_from_spec``: a loop of its own over k = 8, 16, ..."""
    target = Fraction(1, 1 << precision_bits)
    k = 8
    while True:
        conv = spec.convergents(k)
        lo, hi = conv.bracket(k)
        if hi - lo <= target:
            return conv.value(k)
        k += 8


@pytest.mark.parametrize("bits", [0, 1, 32, 64, 256])
@pytest.mark.parametrize(
    "stream",
    [
        lambda: direction_stream(
            RationalParam.from_barrier_length(Fraction(1, 4)), DigitRule("const", (1,))
        ),
        lambda: direction_stream(
            RationalParam.from_barrier_length(Fraction(3, 10)), DigitRule("arith", (2, 1))
        ),
        lambda: direction_stream_irrational(ExactScalar(0, 1, 4, 2)),
    ],
    ids=["quarter-const1", "three-tenths-arith21", "sqrt2-over-4"],
)
def test_slope_from_spec_matches_reference_loop(stream, bits, monkeypatch):
    monkeypatch.setattr(flow, "SLOPE_PRECISION_BITS", bits)
    assert slope_from_spec(stream()) == _reference_slope(stream(), bits)


def test_simulate_exact_bookkeeping(quarter_model, quarter_slope):
    stats = simulate(quarter_model, quarter_slope, 5000)
    assert stats.total_advance == "5000"
    assert not stats.terminated_early
    assert stats.samples == sum(
        sum(sum(row) for row in sheet) for sheet in stats.cell_counts
    )
    assert stats.samples == sum(stats.deck_counts) + stats.deck_overflow


def test_simulate_csv_row_count(quarter_model, quarter_slope):
    stats = simulate(quarter_model, quarter_slope, 2000, grid=8, deck_window=16)
    buf = io.StringIO()
    stats.write_csv(buf)
    rows = buf.getvalue().strip().split("\n")
    assert len(rows) == 2 * 64 + 33
    assert rows[0].startswith("cell,0,0,0,")
    assert rows[-1].startswith("deck,16,")


def test_simulate_deterministic(quarter_model, quarter_slope):
    s1 = simulate(quarter_model, quarter_slope, 3000)
    s2 = simulate(quarter_model, quarter_slope, 3000)
    assert s1.as_json() == s2.as_json()
    b1, b2 = io.StringIO(), io.StringIO()
    s1.write_csv(b1)
    s2.write_csv(b2)
    assert b1.getvalue() == b2.getvalue()


def test_simulate_rational_slope_concentrates(quarter_model):
    stats = simulate(
        quarter_model, Fraction(1, 2), 20000,
        start=CoverState(0, -H, Fraction(1, 32)),
    )
    assert stats.discrepancy[-1] > 0.5  # periodic orbit: no equidistribution
    assert abs(stats.discrepancy[0] - stats.discrepancy[-1]) < 0.02


def test_simulate_singular_orbit_flagged(quarter_model):
    stats = simulate(quarter_model, Fraction(1, 2), 1000)  # default start hits the tip
    assert stats.terminated_early
    assert "cone" in stats.termination_reason


def test_deck_returns_positive(quarter_model, quarter_slope):
    stats = simulate(quarter_model, quarter_slope, 20000)
    assert stats.deck_zero_returns >= 10


@pytest.mark.slow
def test_equidistribution_ensemble(quarter_model, quarter_slope):
    # 20 fixed starts; the decrease across the three snapshots must hold
    # for at least 90% of them
    decreasing = 0
    for i in range(20):
        start = CoverState(0, -H, Fraction(2 * i + 1, 83))
        stats = simulate(quarter_model, quarter_slope, 40000, start=start)
        d = stats.discrepancy
        if d[0] > d[1] > d[2]:
            decreasing += 1
    assert decreasing >= 18


def test_event_log_dump(quarter_model, quarter_slope, tmp_path):
    import io as _io

    buf = _io.StringIO()
    simulate(quarter_model, quarter_slope, 50, event_log=buf)
    rows = [r.split(",") for r in buf.getvalue().strip().split("\n")]
    assert all(len(r) == 6 for r in rows)
    kinds = {r[1] for r in rows}
    assert {"right_edge", "top_edge", "slit"} <= kinds
    assert rows[-1][1] == "partial"  # the final cut lands exactly on T


def test_event_times_strictly_increase(quarter_model, quarter_slope):
    """Each event advances the time: the sink fails at the first event that
    does not, so a loop that repeats an event stops at once."""

    class IncreasingTimes:
        last = Fraction(-1)

        def write(self, row):
            t = Fraction(row.split(",", 1)[0])
            assert t > self.last, row
            self.last = t

    for slope, start in (
        (quarter_slope, CoverState(0, -H, Fraction(1, 3), 0)),
        (Fraction(1, 2), CoverState(0, -H, Fraction(1, 32), 0)),
        (Fraction(1), CoverState(1, Fraction(1, 5), Fraction(1, 7), 0)),
    ):
        sink = IncreasingTimes()
        stats = simulate(quarter_model, slope, 300, start=start, event_log=sink)
        assert sink.last == 300 and not stats.terminated_early


def test_event_count_is_bounded(quarter_model):
    """A short ``simulate`` has a bounded number of events: the sink fails
    past the bound, so a loop that stops advancing fails at once instead
    of running on.

    Over T = 50 at slope 1/3 there are at most 51 right-edge and 18
    top-edge events, one slit crossing per straight piece between them,
    and the final cut: at most 69 + 70 + 1 = 140 rows.
    """

    class BoundedLog:
        rows = slits = 0

        def write(self, row):
            self.rows += 1
            self.slits += row.split(",")[1] == "slit"
            assert self.rows <= 140, row

    sink = BoundedLog()
    stats = simulate(quarter_model, Fraction(1, 3), 50,
                     start=CoverState(0, -H, Fraction(1, 7), 0), event_log=sink)
    assert not stats.terminated_early and sink.slits > 0


def _outcome(fn):
    try:
        return fn()
    except SingularOrbitError as exc:
        return str(exc)


def test_event_rule_matches_oracle():
    """One-per-ray event rule against the original list-based solver.

    Every case must give the same (s, kind) or the same SingularOrbitError
    message.  Small denominators make exact ties (corners, slit tips, rays
    along the slit line, starts on the slit) frequent; the kinds tally at
    the end checks that each of them was exercised.
    """
    from types import SimpleNamespace

    import oracle_flow as oracle

    rng = random.Random(404)
    seen = {}

    def check(zx, zy, x, y, dx, dy):
        got = _outcome(lambda: oracle._event_rule(zx, zy, dx, dy)(x, y))
        want = _outcome(
            lambda: oracle._next_event(
                SimpleNamespace(zx=zx, zy=zy), SimpleNamespace(x=x, y=y), dx, dy
            )
        )
        assert got == want, (zx, zy, x, y, dx, dy)
        key = got if isinstance(got, str) else got[1]
        seen[key] = seen.get(key, 0) + 1

    def frac(den, lo=-H, hi=H):
        return Fraction(rng.randint(math.ceil(lo * den), math.ceil(hi * den) - 1), den)

    fixed = [(1, 0), (0, 1), (Fraction(3, 5), Fraction(4, 5)), (0, 0)]
    for _ in range(6000):
        d = rng.randint(2, 12)
        zx, zy = frac(d), frac(d)
        if zx == 0 and zy == 0:
            continue
        x, y = frac(rng.randint(1, 24)), frac(rng.randint(1, 24))
        if rng.random() < 0.5:
            dx, dy = rng.choice(fixed)
        else:
            dx, dy = 1, Fraction(rng.randint(0, 12), rng.randint(1, 12))
        check(zx, zy, x, y, dx, dy)
        # exact hits: aim at a slit endpoint, or start on the slit line
        s = Fraction(rng.randint(1, 4), 8)
        sgn = rng.choice((1, -1))
        if -H <= sgn * zx - s * dx < H and -H <= sgn * zy - s * dy < H:
            check(zx, zy, sgn * zx - s * dx, sgn * zy - s * dy, dx, dy)
        t = Fraction(rng.randint(-7, 7), 8)
        check(zx, zy, t * zx, t * zy, dx, dy)
        k = max(abs(zx), abs(zy))
        if zx >= 0 and zy >= 0:
            check(zx, zy, x * k, y * k, zx / k, zy / k)  # parallel to the slit
        # slit parameters outside the cell reach the slit/edge coincidence
        check(2 * zx, 2 * zy, x, y, dx, dy)

    # quadratic parameters: z = (0, sqrt2/4) and (1/4, sqrt3/8)
    for zx, zy in (
        (ExactScalar(0), ExactScalar(0, 1, 4, 2)),
        (ExactScalar(1, 0, 4), ExactScalar(0, 1, 8, 3)),
    ):
        for dx, dy in fixed + [(1, Fraction(1, 3)), (1, Fraction(5, 2)), (zx, zy)]:
            for _ in range(40):
                check(zx, zy, frac(rng.randint(1, 16)), frac(rng.randint(1, 16)), dx, dy)
            for s in (Fraction(1, 16), Fraction(1, 8)):
                for sgn in (1, -1):
                    check(zx, zy, sgn * zx - s * dx, sgn * zy - s * dy, dx, dy)
            for t in (Fraction(-1, 2), Fraction(0), Fraction(1, 3)):
                check(zx, zy, t * zx, t * zy, dx, dy)

    # a corner: (1/2 - x) = (1/2 - y) / slope
    check(Fraction(1, 4), Fraction(1, 8), Fraction(-1, 2), Fraction(0), 1, 1)
    expected = {
        "right_edge", "top_edge", "corner", "slit", "orbit hits a cone point",
        "orbit runs along the slit line", "zero direction",
        "slit crossing coincides with an edge event",
    }
    assert expected <= set(seen), seen


def test_simulate_matches_oracle():
    """Integer-lattice ``simulate`` against the Fraction loop it replaced.

    Seeded random rays on vertical (zx = 0) and oblique slits, slope 0,
    convergent slopes of rational streams at 32 and 64 bits, starts inside
    the cell, T = 7/2 and other fractional T, a small deck window (deck
    overflow), and starts aimed at a cone point, along the slit line, and
    (on a model whose slit leaves the cell) at a slit/edge coincidence.
    ``as_json()`` includes the termination reason.  The tallies at the end
    check that each of these cases was exercised.
    """
    from types import SimpleNamespace

    import oracle_flow as oracle
    from slittori.flow import DEFAULT_SAMPLE_SPACING, OrbitStats

    rng = random.Random(505)
    seen = {"overflow": 0, "slope0": 0, "kinds": set(), "reasons": set()}

    def check(model, slope, T, start, grid=8, deck_window=16):
        log, want_log = io.StringIO(), io.StringIO()
        got = simulate(model, slope, T, grid=grid, deck_window=deck_window,
                       start=start, event_log=log)
        want = OrbitStats(
            grid=grid, deck_window=deck_window, slope=(slope.numerator, slope.denominator),
            start=(start.sheet, str(start.x), str(start.y), start.deck),
        )
        oracle._simulate_loop(model, slope, T, start, DEFAULT_SAMPLE_SPACING, want, want_log)
        case = (model.zx, model.zy, slope, T, start)
        assert got.as_json() == want.as_json(), case
        assert got.cell_counts == want.cell_counts, case
        assert got.deck_counts == want.deck_counts, case
        assert log.getvalue() == want_log.getvalue(), case
        seen["overflow"] += got.deck_overflow > 0
        seen["slope0"] += slope == 0
        seen["kinds"] |= {row.split(",")[1] for row in log.getvalue().splitlines()}
        seen["reasons"].add(got.termination_reason)

    def frac(den):  # in [-1/2, 1/2)
        return Fraction(rng.randrange(-(den // 2), (den + 1) // 2), den)

    def inner(den):  # in (-1/2, 1/2)
        return Fraction(rng.randint(-((den - 1) // 2), (den - 1) // 2), den)

    models = {}

    def model_for(zx, zy):
        if (zx, zy) not in models:
            models[zx, zy] = build_surface((zx, zy))
        return models[zx, zy]

    def random_start():
        x = frac(rng.randint(1, 30)) if rng.random() < 0.6 else -H
        return CoverState(rng.randrange(2), x, frac(rng.randint(1, 40)), rng.randint(-3, 3))

    streams = (
        (Fraction(1, 4), DigitRule("const", (1,))),
        (Fraction(1, 6), DigitRule("arith", (2, 1))),
        (Fraction(3, 10), DigitRule("const", (2,))),
    )
    convergents = [
        _reference_slope(direction_stream(RationalParam.from_barrier_length(lam), rule), bits)
        for lam, rule in streams
        for bits in (32, 64)
    ]
    for _ in range(300):
        d = rng.randint(2, 10)
        zx = Fraction(0) if rng.random() < 0.4 else inner(d)
        zy = inner(d)
        if zy == 0 and zx == 0:
            zy = Fraction(1, d + 1)
        model = model_for(zx, zy)
        r = rng.random()
        if r < 0.15:
            slope = Fraction(0)
        elif r < 0.35:
            slope = rng.choice(convergents)
        else:
            slope = Fraction(rng.randint(0, 12), rng.randint(1, 12))
        T = rng.choice((Fraction(7, 2), Fraction(rng.randint(1, 150), rng.randint(1, 4))))
        check(model, slope, T, random_start(), grid=rng.choice((3, 8)),
              deck_window=rng.choice((0, 1, 16)))

        # aim at the slit endpoint +-z after n unit wraps: a cone point
        n, sgn = rng.randint(0, 3), rng.choice((1, -1))
        slope = Fraction(rng.randint(0, 7), rng.randint(1, 7))
        y0 = mod_half_open(sgn * zy - (n + sgn * zx + H) * slope)
        check(model, slope, Fraction(n + 2), CoverState(0, -H, y0, 0))
        # parallel to the slit, starting on its line after n wraps
        if zx != 0 and zy / zx >= 0:
            slope = zy / zx
            y0 = mod_half_open(-slope / 2 - n * slope)
            check(model, slope, Fraction(n + 2), CoverState(1, -H, y0, 0))

    # a slit leaving the cell reaches the slit/edge coincidence
    wide = SimpleNamespace(zx=Fraction(3, 4), zy=Fraction(1, 4))
    for y0 in (Fraction(-1, 2), Fraction(-1, 3), Fraction(1, 6)):
        for slope in (Fraction(1, 3), Fraction(0), Fraction(1, 2)):
            check(wide, slope, Fraction(5), CoverState(0, -H, y0, 0))

    assert seen["overflow"] and seen["slope0"], seen
    assert {"right_edge", "top_edge", "corner", "slit", "partial"} <= seen["kinds"], seen
    assert {
        "", "orbit hits a cone point", "orbit runs along the slit line",
        "slit crossing coincides with an edge event",
    } <= seen["reasons"], seen


def test_bin_clocks_match_oracle():
    """``simulate`` on its integer bin clocks against the Fraction loop of
    ``oracle_flow``, whose bins all come from the exact per-segment
    formula: summary, cell counts, deck counts and event log on 230 seeded
    rays.

    The rays: random slits, starts and deck windows at grids 3, 8 and 64,
    with slope 0, slopes of 1 and above, small slopes and fractional T;
    rays aimed at a cone point or along the slit line; rays whose start
    height puts one sample 10**-20 below or above a horizontal bin edge,
    where a float may land across the edge from the exact value; and
    left-edge starts at grid 1024, where every sample's x coordinate lies
    on a bin edge.  The tallies check that each case was exercised, and
    that on some near-edge ray a float evaluation of the bin rows,
    fl(A) + m fl(B) (the loop's bins before its integer bin clocks), is
    not the exact one, so a loop that binned those samples in floats
    would fail.
    """
    import oracle_flow as oracle
    from slittori.flow import DEFAULT_SAMPLE_SPACING as ds
    from slittori.flow import OrbitStats

    rng = random.Random(3232)
    seen = {"rays": 0, "grids": set(), "steep": 0, "slope0": 0, "reasons": set(), "floats": 0}

    def check(model, slope, T, start, grid=8, deck_window=16):
        log, want_log = io.StringIO(), io.StringIO()
        got = simulate(model, slope, T, grid=grid, deck_window=deck_window,
                       start=start, event_log=log)
        want = OrbitStats(
            grid=grid, deck_window=deck_window, slope=(slope.numerator, slope.denominator),
            start=(start.sheet, str(start.x), str(start.y), start.deck),
        )
        oracle._simulate_loop(model, slope, T, start, ds, want, want_log)
        case = (model.zx, model.zy, slope, T, start, grid)
        assert got.as_json() == want.as_json(), case
        assert got.cell_counts == want.cell_counts, case
        assert got.deck_counts == want.deck_counts, case
        assert log.getvalue() == want_log.getvalue(), case
        seen["rays"] += 1
        seen["grids"].add(grid)
        seen["steep"] += slope >= 1
        seen["slope0"] += slope == 0
        seen["reasons"].add(got.termination_reason)
        return got

    def frac(den):  # in [-1/2, 1/2)
        return Fraction(rng.randrange(-(den // 2), (den + 1) // 2), den)

    def inner(den):  # in (-1/2, 1/2)
        return Fraction(rng.randint(-((den - 1) // 2), (den - 1) // 2), den)

    quarter = build_surface((Fraction(0), Fraction(1, 4)))
    for _ in range(150):
        d = rng.randint(2, 10)
        zx = Fraction(0) if rng.random() < 0.4 else inner(d)
        zy = inner(d) or Fraction(1, d + 1)
        r = rng.random()
        if r < 0.15:
            slope = Fraction(0)
        elif r < 0.45:
            slope = Fraction(rng.randint(6, 24), rng.randint(1, 6))
        else:
            slope = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        T = Fraction(rng.randint(4, 120), rng.randint(1, 4)) / (1 + slope)
        x0 = -H if rng.random() < 0.3 else frac(rng.randint(1, 30))
        start = CoverState(rng.randrange(2), x0, frac(rng.randint(1, 40)), rng.randint(-3, 3))
        check(build_surface((zx, zy)), slope, T, start, grid=rng.choice((3, 8, 64)),
              deck_window=rng.choice((0, 1, 16)))

    for _ in range(30):
        d = rng.randint(2, 10)
        zx, zy = inner(d), inner(d) or Fraction(1, d + 1)
        model = build_surface((zx, zy))
        # aim at the slit endpoint +-z after n unit wraps, or run along the slit
        n, sgn = rng.randint(0, 3), rng.choice((1, -1))
        if rng.random() < 0.7 or zx == 0 or zy / zx < 0:
            slope = Fraction(rng.randint(0, 7), rng.randint(1, 7))
            y0 = mod_half_open(sgn * zy - (n + sgn * zx + H) * slope)
            check(model, slope, Fraction(n + 2), CoverState(0, -H, y0, 0), grid=3)
        else:
            slope = zy / zx
            y0 = mod_half_open(-slope / 2 - n * slope)
            check(model, slope, Fraction(n + 2), CoverState(1, -H, y0, 0), grid=3)

    eps = Fraction(1, 10**20)
    for _ in range(48):
        grid = rng.choice((8, 64))
        slope = Fraction(rng.randint(1, 30), rng.randint(1, 9))
        m = rng.randint(1, 40)
        edge = rng.randrange(1, grid)
        # sample m's height sits eps below or above the bin edge `edge`
        y0 = mod_half_open((edge + rng.choice((-eps, eps))) / grid - H - slope * m * ds)
        x0 = Fraction(rng.randrange(1, 7), 7) - H  # clear of the vertical bin edges
        start = CoverState(rng.randrange(2), x0, y0, 0)
        got = check(quarter, slope, m * ds + Fraction(rng.randint(1, 8), 3), start, grid=grid)
        # float bin rows against the exact ones, floor(v) of each sample's
        # exact height v: no sample meets an edge event here
        a, b = float((y0 + H) * grid), float(slope * ds * grid)
        exact, floats = [0] * grid, [0] * grid
        for k in range(got.samples):
            exact[math.floor((y0 + H + slope * k * ds) * grid) % grid] += 1
            floats[math.floor(a + k * b) % grid] += 1
        seen["floats"] += floats != exact

    spec = direction_stream(RationalParam.from_barrier_length(Fraction(1, 4)), DigitRule())
    for slope in (slope_from_spec(spec), Fraction(7, 5)):
        y0 = Fraction(rng.randrange(1, 1_000_003), 1_000_003) - H
        start = CoverState(rng.randrange(2), -H, y0, rng.randrange(-3, 4))
        check(quarter, slope, Fraction(rng.randint(60, 120), 2), start, grid=1024)

    assert seen["rays"] >= 200 and seen["grids"] == {3, 8, 64, 1024}, seen
    assert seen["steep"] and seen["slope0"] and seen["floats"], seen
    assert {"", "orbit hits a cone point", "orbit runs along the slit line"} <= seen["reasons"]


def test_lattice_rule_fails_closed(monkeypatch):
    """A wrong common denominator raises LatticeExactnessError, never floors."""
    import oracle_flow as oracle
    from slittori import flow

    # the per-event lattice rule: (hy - y) / p = 7 / 2 is not an integer
    rule = oracle._lattice_event_rule(0, 4, 1, 2, 10, 7)
    with pytest.raises(flow.LatticeExactnessError):
        rule(0, 0)
    assert issubclass(flow.LatticeExactnessError, RuntimeError)
    assert not issubclass(flow.LatticeExactnessError, SingularOrbitError)

    # simulate with L missing its factor p = 3 (top edge) or |detn| = 71
    # (slit): z = (-7, 10)/35, slope 3/5, detn = 3 * -7 - 5 * 10
    model = build_surface((Fraction(-1, 5), Fraction(2, 7)))
    orig = flow._lattice_denominator
    for factor in (3, 71):
        monkeypatch.setattr(
            flow, "_lattice_denominator", lambda *a, f=factor: orig(*a) // f
        )
        with pytest.raises(flow.LatticeExactnessError, match="not a lattice integer"):
            simulate(model, Fraction(3, 5), 50, start=CoverState(0, -H, Fraction(1, 8), 0))


def test_simulate_matches_lattice_oracle():
    """Clock-driven ``simulate`` against the per-event lattice loop it replaced.

    The slopes are those of the four flow-cli specs (lambda = 1/4, 1/6,
    1/3, 3/10, default digit rule, 32-bit convergent), at T near 8000,
    from seeded starts on the left edge at heights with denominator
    1,000,003.  Starting on the left edge puts right-edge events at whole
    times, so the sample at t = 1009 (m = 1024) falls exactly on an event
    and must be counted in the segment that ends there.
    """
    import oracle_flow as oracle
    from slittori.flow import OrbitStats

    rng = random.Random(16)
    for lam in ("1/4", "1/6", "1/3", "3/10"):
        spec = direction_stream(RationalParam.from_barrier_length(Fraction(lam)), DigitRule())
        slope = slope_from_spec(spec)
        model = build_surface(spec.z0)
        for _ in range(2):
            T = 8000 + rng.randrange(200)
            y0 = Fraction(rng.randrange(1, 1_000_003), 1_000_003) - H
            start = CoverState(rng.randrange(2), -H, y0, rng.randrange(-3, 4))
            log, want_log = io.StringIO(), io.StringIO()
            got = simulate(model, slope, T, start=start, event_log=log)
            want = OrbitStats(
                grid=8, deck_window=16, slope=(slope.numerator, slope.denominator),
                start=(start.sheet, str(start.x), str(start.y), start.deck),
            )
            oracle._lattice_simulate_loop(model, slope, Fraction(T), start, want, want_log)
            case = (lam, T, start)
            assert got.as_json() == want.as_json(), case
            assert got.cell_counts == want.cell_counts, case
            assert got.deck_counts == want.deck_counts, case
            # the first differing row, not a diff of two 14k-row logs
            rows, want_rows = log.getvalue().splitlines(), want_log.getvalue().splitlines()
            diff = next(
                (k for k, pair in enumerate(zip(rows, want_rows)) if pair[0] != pair[1]),
                None if len(rows) == len(want_rows) else min(len(rows), len(want_rows)),
            )
            assert diff is None, (case, diff, rows[diff:diff + 1], want_rows[diff:diff + 1])
            assert not got.terminated_early, case
            assert "\n1009," in log.getvalue(), case


def test_simulate_matches_billiard_oracle():
    """``simulate`` is the barrier billiard, checked against the exact table
    of ``oracle_billiard``, which does no unfolding.

    Every event row maps to the table point (deck + w x, |y|), with
    w = 1 on sheet 0 and -1 on sheet 1 (the unfolded x runs against the
    table's on sheet 1); it must be the billiard's position at the
    row's time, and w the sign of the billiard's vx on arrival there.
    The billiard's vy on arrival there must be the slope with the sign of
    the row's cell height (negative at height 0, where the table meets
    the floor), which the position check, on |y|, leaves open.
    ``deck_zero_returns`` must count the billiard's entries into the
    barrier period [-1/2, 1/2].  An orbit that stops at a cone point must
    meet a barrier tip on its next straight piece, within one time unit
    of its last row, and a complete orbit must meet none up to T.

    Every sample's cell must be that of the table point at its time
    t = m ds, for m ds up to the last row's time.  The point maps back to
    the cover cell by hand: sheet 0 where the arrival vx is +1, and the
    cell position shifted by 1/2 is ((vx x + 1/2) mod 1, (+-y + 1/2) mod 1)
    with the sign of vy (of the start height for slope 0).  Each coordinate
    counts in its half-open grid bin, or in grid - 1 where it is 0 at
    t > 0 (with a nonzero slope for y): there the table sits on a
    half-integer x or on the wall y = 1/2, the unfolded orbit's edge
    event.  The cells must equal ``cell_counts`` exactly.

    The rays are one flow-cli-shaped ray per lambda (the spec's 32-bit
    convergent, a left-edge start at a height with denominator 1,000,003,
    either sheet, deck -3..3, fractional T), small-denominator slopes
    aimed at a barrier tip after a few wraps, and the three rays of
    ``test_edge_samples_by_hand`` whose second sample meets a right-edge,
    top-edge and corner event (the only edge-event samples here).
    """
    import oracle_billiard

    rng = random.Random(10)
    rays = []
    for lam in ("1/4", "1/6", "1/3", "3/10"):
        spec = direction_stream(RationalParam.from_barrier_length(Fraction(lam)), DigitRule())
        y0 = Fraction(rng.randrange(1, 1_000_003), 1_000_003) - H
        start = CoverState(rng.randrange(2), -H, y0, rng.randrange(-3, 4))
        T = Fraction(rng.randint(500, 800), 2)
        rays.append((Fraction(lam), slope_from_spec(spec), T, start))
    for _ in range(8):
        lam = Fraction(rng.randint(1, 5), 12)
        slope = Fraction(rng.randint(0, 6), rng.randint(1, 6))
        n, sgn = rng.randint(0, 3), rng.choice((1, -1))
        y0 = mod_half_open(sgn * lam - (n + H) * slope)  # the tip sgn lam after n wraps
        rays.append((lam, slope, Fraction(n + 2), CoverState(rng.randrange(2), -H, y0, 0)))
    ds, grid = flow.DEFAULT_SAMPLE_SPACING, 8
    # sample 1 at a right-edge, a top-edge and a corner event
    quarter = Fraction(1, 4)
    rays += [
        (quarter, Fraction(0), ds, CoverState(0, H - ds, Fraction(-3, 8), 0)),
        (quarter, Fraction(1), ds, CoverState(0, Fraction(0), H - ds, 0)),
        (quarter, Fraction(2), ds, CoverState(0, H - ds, Fraction(-482, 1024), 0)),
    ]

    weights = (1, -1)  # written out, not read from flow.DECK_WEIGHTS
    stopped = returns = edge_events = vy_rows = 0
    for lam, slope, T, start in rays:
        case = (lam, slope, T, start)
        log = io.StringIO()
        stats = simulate(build_surface((Fraction(0), lam)), slope, T, start=start, event_log=log)
        w = weights[start.sheet]
        at_start = (lam, start.deck + w * start.x, abs(start.y), w,
                    slope if start.y >= 0 else -slope)
        table = oracle_billiard.Billiard(*at_start)
        for row in log.getvalue().splitlines():
            t, _kind, sheet, x, y, deck = row.split(",")
            w = weights[int(sheet)]
            table.run_to(Fraction(t))
            assert table.vx_in == w, (case, row)
            assert (table.x, table.y) == (int(deck) + w * Fraction(x), abs(Fraction(y))), (case, row)
            # vy on the piece that reaches the row has the sign of the cell height
            assert table.vy_in == (slope if Fraction(y) > 0 else -slope), (case, row)
            vy_rows += 1
        t_last = Fraction(stats.total_advance)
        if stats.terminated_early:
            assert stats.termination_reason == "orbit hits a cone point", case
            with pytest.raises(oracle_billiard.TipHit) as hit:
                table.run_to(t_last + 1)
            assert t_last < hit.value.t < t_last + 1, case
            stopped += 1
        else:
            assert t_last == T, case
            table.run_to(T)
        # an entry at T itself comes after the final cut
        assert stats.deck_zero_returns == sum(t < T for t in table.entries), case
        returns += stats.deck_zero_returns

        table, flat_sign = oracle_billiard.Billiard(*at_start), 1 if start.y >= 0 else -1
        cells = [[[0] * grid for _ in range(grid)] for _ in range(2)]
        # an orbit stopped on its first straight piece takes no sample, not even t = 0
        for m in range(math.floor(t_last / ds) + 1 if t_last else 0):
            table.run_to(m * ds)
            u = (table.vx_in * table.x + H) % 1
            v = (((table.vy > 0) - (table.vy < 0) or flat_sign) * table.y + H) % 1
            at_x, at_y = m and u == 0, m and slope and v == 0
            i = grid - 1 if at_x else math.floor(u * grid)
            j = grid - 1 if at_y else math.floor(v * grid)
            cells[weights.index(table.vx_in)][i][j] += 1
            edge_events += bool(at_x or at_y)
        assert cells == stats.cell_counts, case
    assert 0 < stopped < len(rays) and returns > 0 and edge_events == 3 and vy_rows > 0, (
        stopped, returns, edge_events, vy_rows)


def test_simulate_bins_on_bin_edges_match_oracle(quarter_model):
    """A sample exactly on a bin edge counts in the cell above the edge,
    and a sample at a top-edge event in the cell below it, grid - 1.

    At grid 64, slopes a/3 and a/9 put some samples exactly on a
    horizontal bin edge: from start heights on the 1/192 lattice, or from
    heights that put sample m0 at a top-edge event, whose later samples
    lie on a bin edge when 48 or 144 divides a (m - m0).  Starts at
    x0 = k/7 - 1/2 keep the x coordinate off every vertical bin edge.  ``simulate`` must match the exact lattice
    loop of ``oracle_flow``, and its bin rows must be floor(v) mod grid of
    each sample's exact scaled height v, or grid - 1 where v is a positive
    multiple of grid.  On some samples exactly on an interior edge a float
    fl(A) + m fl(B) (the loop's bins before its integer bin clocks) is
    inexact and may fall on either side of the edge; those samples and the
    edge events are counted with Fractions.
    """
    import oracle_flow as oracle
    from slittori.flow import DEFAULT_SAMPLE_SPACING as ds
    from slittori.flow import OrbitStats

    rng = random.Random(2801)
    grid, inexact, events = 64, 0, 0
    for n in range(16):
        slope = Fraction(rng.randint(1, 20), rng.choice((3, 9)))
        if n % 2:
            y0 = Fraction(rng.randrange(3 * grid), 3 * grid) - H
        else:
            y0 = mod_half_open(H - slope * rng.randint(1, 60) * ds)
        start = CoverState(rng.randrange(2), Fraction(rng.randrange(1, 7), 7) - H, y0, 0)
        T = Fraction(rng.randint(100, 200))
        got = simulate(quarter_model, slope, T, grid=grid, start=start)
        want = OrbitStats(grid=grid, deck_window=16, slope=(slope.numerator, slope.denominator),
                          start=(start.sheet, str(start.x), str(start.y), start.deck))
        oracle._lattice_simulate_loop(quarter_model, slope, T, start, want)
        case = (slope, T, start)
        assert got.as_json() == want.as_json(), case
        assert got.cell_counts == want.cell_counts, case
        ay, by = float((y0 + H) * grid), float(slope * ds * grid)
        rows = [0] * grid
        for m in range(got.samples):
            vy = (y0 + H + slope * m * ds) * grid
            at_event = m > 0 and vy % grid == 0
            rows[grid - 1 if at_event else math.floor(vy) % grid] += 1
            events += at_event
            inexact += vy.denominator == 1 and Fraction(ay + m * by) != vy
        assert rows == [sum(sheet[i][j] for sheet in got.cell_counts for i in range(grid))
                        for j in range(grid)], case
    assert inexact >= 10 and events > 0, (inexact, events)


def _occupied(stats):
    return {(sheet, i, j): count for sheet, rows in enumerate(stats.cell_counts)
            for i, row in enumerate(rows) for j, count in enumerate(row) if count}


def test_edge_samples_by_hand(quarter_model):
    """Hand-computed cells at grid 8 of samples on a bin edge and at an
    edge event.

    A flow-cli ray (lambda = 1/4, default digit rule, a left-edge start
    at height 193705/2000006 on sheet 0, deck -1) puts sample 384 at
    x + 1/2 = 384 ds - 378 = 3/8, exactly on the edge between x cells 2
    and 3, and at the scaled height 552.06 (y cell 0); the float formula
    of earlier versions rounded it into cell 2.  Cutting the ray just
    before that sample and at it leaves the sample's cell as the
    difference.

    Then three rays of two samples, with ds = 1009/1024 and the quarter
    slit, each with sample 1 at an edge event, which counts in the cell
    before the reset:

    * slope 0 from (1/2 - ds, -3/8): sample 0 at x + 1/2 = 15/1024 and
      exactly on the y edge 1/8, cell (0, 1); sample 1 at the right edge,
      (7, 1), not the wrapped (0, 1);
    * slope 1 from (0, 1/2 - ds): sample 0 in (4, 0), on the x edge 1/2;
      a right-edge reset at t = 1/2, then sample 1 at the top edge with
      x + 1/2 = 497/1024, (3, 7), not the wrapped (3, 0);
    * slope 2 from (1/2 - ds, -482/1024): sample 0 in (0, 0); a top-edge
      reset at x = 0, off the slit, then sample 1 at the corner, (7, 7).
    """
    ds = flow.DEFAULT_SAMPLE_SPACING
    spec = direction_stream(RationalParam.from_barrier_length(Fraction(1, 4)), DigitRule())
    start = CoverState(0, -H, Fraction(193705, 2000006), -1)
    model, slope = build_surface(spec.z0), slope_from_spec(spec)
    before = _occupied(simulate(model, slope, 383 * ds + ds / 2, start=start))
    at = _occupied(simulate(model, slope, 384 * ds, start=start))
    moved = {cell: n - before.get(cell, 0) for cell, n in at.items() if n != before.get(cell, 0)}
    assert moved == {(0, 3, 0): 1}

    cases = [
        (Fraction(0), CoverState(0, H - ds, Fraction(-3, 8), 0), {(0, 0, 1): 1, (0, 7, 1): 1}),
        (Fraction(1), CoverState(0, Fraction(0), H - ds, 0), {(0, 4, 0): 1, (0, 3, 7): 1}),
        (Fraction(2), CoverState(0, H - ds, Fraction(-482, 1024), 0), {(0, 0, 0): 1, (0, 7, 7): 1}),
    ]
    for slope, start, want in cases:
        assert _occupied(simulate(quarter_model, slope, ds, start=start)) == want, slope


@pytest.mark.parametrize("grid, samples", [(3, 0), (3, 40), (8, 500), (64, 30_000), (1024, 50_000)])
def test_discrepancy_matches_the_per_cell_sum(grid, samples):
    """current_discrepancy, with one term per distinct count, is the same
    float as the sum of every cell's own term in cell order, on seeded
    count grids; an empty grid gives 1."""
    import oracle_flow as oracle
    from slittori.flow import OrbitStats

    rng = random.Random(grid * 7 + samples)
    stats = OrbitStats(grid=grid, deck_window=4, slope=(1, 2), start=(0, "0", "0", 0))
    cells = stats.cell_counts
    for _ in range(samples):
        # a few heavy cells beside a uniform spread, so counts repeat and differ
        if rng.random() < 0.2:
            cells[0][0][rng.randrange(min(grid, 3))] += 1
        else:
            cells[rng.randrange(2)][rng.randrange(grid)][rng.randrange(grid)] += 1
    stats.samples = samples
    want = oracle.current_discrepancy(stats)
    assert stats.current_discrepancy() == want
    assert (want == 1.0) == (samples == 0)
