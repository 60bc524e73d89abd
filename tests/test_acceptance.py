"""Acceptance gate: one test per criterion, each printing a PASS line
with its measured runtime (run with ``pytest -s tests/test_acceptance.py``
to see them).  Budgets are wall-clock ceilings, generous on purpose; the
substance of each criterion is the asserted content.
"""

import io
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from slittori.criterion import masur_structural, verify
from slittori.dimension import (
    DimensionProblem,
    dimension_certificate,
    divergence_minorant,
    solve_su,
    sqrt_contraction,
)
from slittori.directions import DigitRule
from slittori.exact import ExactScalar
from slittori.flow import (
    DECK_RULE,
    BilliardState,
    CoverState,
    billiard_to_cover,
    build_surface,
    cover_to_billiard,
    simulate,
    slope_from_spec,
)
from slittori.irrational import direction_stream_irrational
from slittori.rational import (
    RationalParam,
    block_for,
    certify_fixing,
    direction_stream,
)
from slittori.torus import (
    TorusPoint,
    canonical_entries,
    entries_fix_beta,
    in_region_E,
    involution_minus_id,
    involution_theta,
    trace_word,
)
from slittori.words import GenWord, IntMat2, THETA, check_relations

import oracle_torus
from conftest import explicit_spec
from oracle_criterion import masur_entries


class Budget:
    def __init__(self, name, seconds):
        self.name, self.seconds = name, seconds
        self.t0 = time.time()

    def done(self, detail=""):
        dt = time.time() - self.t0
        assert dt < self.seconds, f"{self.name} exceeded {self.seconds}s ({dt:.1f}s)"
        print(f"ACCEPTANCE {self.name}: PASS in {dt:.2f}s {detail}")


@pytest.mark.acceptance
def test_criterion_1_block_reproduction():
    b = Budget("1 (block reproduction)", 1.0)
    cases = {
        Fraction(1, 4): (5, 1, 1, 7, 1, 1, 2),
        Fraction(1, 6): (8, 1, 1, 11, 1, 1, 3),
        Fraction(1, 3): (7, 1, 3, 8, 1, 3, 1),
    }
    for lam, digits in cases.items():
        param = RationalParam.from_barrier_length(lam)
        assert block_for(param) == digits, lam
    b.done("B(1/4), B(1/6), B(1/3) exact")


@pytest.mark.acceptance
def test_criterion_2_fixing_certification_exhaustive():
    b = Budget("2 (fixing certification, q <= 50)", 60.0)
    count = 0
    for q in range(2, 51):
        for s in range(-q + 1, q):
            if s == 0 or gcd(s, q) != 1:
                continue
            for r in range(-q + 1, q):
                count += 1
                cert = certify_fixing(RationalParam(r, s, q))
                assert cert.fixes_point and cert.action_is_identity, (r, s, q)
    b.done(f"{count} parameters certified")


@pytest.mark.acceptance
def test_criterion_3_verification_and_faults():
    b = Budget("3 (criterion verification)", 10.0)
    spec = direction_stream(
        RationalParam.from_barrier_length(Fraction(1, 4)), DigitRule("const", (1,))
    )
    report = verify(spec, 10)
    assert report.overall
    for rec in report.records:
        assert rec.homology_fixes_beta and rec.y_in_bounds
        assert rec.digit_inequality  # 5 >= 2/(1 - 2/4) = 4
        assert rec.sigma_bounded and rec.wedge_bounded

    # sigma entries certified within [-1, 1] at 256 bits, every checkpoint
    alpha = spec.alpha_enclosure(256, min_digits=82)
    for n in range(1, 11):
        conv = spec.convergents(8 * n)
        assert all(e.certified_abs_le(1) for e in masur_entries(conv, 8 * n, alpha))
    # parity violation breaks the structural route
    assert not masur_structural(spec.convergents(8), 7)

    # fault injection: each mutation flips exactly the matching boolean
    z14 = TorusPoint.of(0, Fraction(1, 4))
    block = (5, 1, 1, 7, 1, 1, 2, 1)
    mut_digit = explicit_spec(z14, (Fraction(1, 4), Fraction(1, 4)), [block, (3,) + block[1:]])
    rec = verify(mut_digit, 1).records[0]
    assert not rec.digit_inequality
    assert rec.homology_fixes_beta and rec.y_in_bounds and rec.sigma_bounded and rec.wedge_bounded

    mut_y = explicit_spec(z14, (Fraction(3, 8), Fraction(3, 8)), [block, block])
    rec = verify(mut_y, 1).records[0]
    assert not rec.y_in_bounds
    assert rec.digit_inequality and rec.homology_fixes_beta and rec.sigma_bounded and rec.wedge_bounded
    b.done("horizon 10 verified; mutations flip matching booleans")


@pytest.mark.acceptance
def test_criterion_4_irrational_construction():
    b = Budget("4 (irrational construction)", 120.0)
    lam = ExactScalar(0, 1, 4, 2)  # sqrt(2)/4
    spec = direction_stream_irrational(lam)
    z = spec.z0
    lo, hi = Fraction(1, 6), Fraction(1, 3)
    for n in (1, 2, 3):
        blk = spec.block(n)
        assert blk.digits[0] >= 6
        final, action = trace_word(z, GenWord.from_digits(blk.digits))
        assert final == blk.endpoint
        assert lo <= final.y <= hi
        assert entries_fix_beta(*action)
        z = blk.endpoint
    other = direction_stream_irrational(lam, DigitRule("const", (2,)))
    assert spec.digits_prefix(8) != other.digits_prefix(8)
    b.done("3 certified blocks; distinct d-choices diverge")


@pytest.mark.acceptance
def test_criterion_5_dimension_bound():
    b = Budget("5 (dimension bound)", 30.0)
    toy = dimension_certificate(DimensionProblem((1, 1, 1), 1, 0))
    assert toy.route == "direct" and toy.u_used <= 10**4
    assert toy.achieved_su > 0.5
    assert toy.sqrt_sum_at_u > 1  # exact rational certificate for s_u > 1/2

    quarter = DimensionProblem((5, 1, 1, 7, 1, 1, 2), 1, 0)
    cert = dimension_certificate(quarter)
    assert cert.route == "divergence" and cert.exceeds_target
    for l in range(1, 1001):
        assert sqrt_contraction(quarter, l) >= divergence_minorant(quarter, l)
    sus = [solve_su(quarter, u) for u in (2, 4, 8, 16, 32)]
    assert all(y >= x - 1e-12 for x, y in zip(sus, sus[1:]))
    assert cert.achieved_su < 0.5  # direct truncation certifiably insufficient
    b.done("direct route (toy) + divergence route (barrier block)")


@pytest.mark.acceptance
def test_criterion_6_homology_consistency():
    b = Budget("6 (homology calculus)", 10.0)
    ok, failures = check_relations()
    assert ok, failures

    rng = random.Random(2024)

    def rand_point():
        while True:
            d = rng.randint(3, 23)
            try:
                return TorusPoint.of(
                    Fraction(rng.randint(-d, d), 2 * d + 1),
                    Fraction(rng.randint(-d, d), 2 * d + 1),
                )
            except ValueError:
                continue

    def rand_word():
        k = rng.randint(1, 5)
        return GenWord.from_digits(
            tuple(rng.randint(1, 4) for _ in range(k)),
            leading=rng.choice(["h+", "h-"]),
        )

    for _ in range(1000):  # composition law
        z, w1, w2 = rand_point(), rand_word(), rand_word()
        final1, action1 = trace_word(z, w1)
        _, action2 = trace_word(final1, w2)
        product = IntMat2(*action1) * IntMat2(*action2)
        assert canonical_entries(*trace_word(z, w1 * w2)[1]) == canonical_entries(*product.entries())

    for _ in range(1000):  # theta conjugation
        z, w = rand_point(), rand_word()
        _, lhs = trace_word(involution_theta(z), w.theta_conjugate())
        _, rhs = trace_word(z, w)
        assert canonical_entries(*lhs) == canonical_entries(*(THETA * IntMat2(*rhs) * THETA).entries())

    checked = 0  # -id symmetry on generic orbits
    while checked < 1000:
        z, w = rand_point(), rand_word()
        zm = involution_minus_id(z)
        (_, action), (_, action_m) = trace_word(z, w), trace_word(zm, w)
        (_, pts, _), (_, pts_m, _) = oracle_torus.trace_word(z, w), oracle_torus.trace_word(zm, w)
        pts = (z,) + pts + (zm,) + pts_m
        if not all(
            in_region_E(p) and abs(p.x + p.y) != ExactScalar(1, 0, 2) for p in pts
        ):
            continue
        checked += 1
        assert action == action_m
    b.done("relations + 3 x 1000 randomized identities")


@pytest.mark.acceptance
def test_criterion_7_simulator_validation():
    b = Budget("7 (simulator validation)", 300.0)
    model = build_surface(TorusPoint.of(0, Fraction(1, 4)))

    # deck rules: horizontal core +-1, vertical 0, geometric agreement
    v = DECK_RULE
    assert v["horizontal_core_shifts"] == [1, -1]
    assert v["vertical_shifts"] == [0, 0]
    assert v["geometric_agreement"] and v["cone_turns"] == [1, 1]
    # simulate's own deck counting: the sheet-0 core closes through one
    # rightward edge crossing with deck +1
    log = io.StringIO()
    core = CoverState(0, Fraction(-1, 2), Fraction(3, 8))
    simulate(model, Fraction(0), Fraction(3, 2), start=core, event_log=log)
    rows = [row.split(",") for row in log.getvalue().splitlines()]
    crossings = sum(v["deck_weights"][int(r[2])] for r in rows if r[1] == "right_edge")
    assert (rows[-1][2], rows[-1][4]) == ("0", "3/8")
    assert int(rows[-1][5]) == 1 == crossings

    # billiard round trip on 10^4 states
    rng = random.Random(7)
    lam = Fraction(1, 4)
    done = 0
    while done < 10**4:
        x = Fraction(rng.randint(-3000, 3000), rng.randint(1, 60))
        y = Fraction(rng.randint(1, 49), 100)
        vx = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        vy = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        if (vx == 0 and vy == 0) or (x.denominator == 1 and y < lam):
            continue
        bst = BilliardState(x, y, vx, vy)
        state, direction = billiard_to_cover(bst, lam)
        assert cover_to_billiard(state, direction) == bst
        done += 1

    # equidistribution proxy at T = 1e6 (snapshots at T/4, T/2, T)
    spec = direction_stream(
        RationalParam.from_barrier_length(lam), DigitRule("const", (1,))
    )
    slope = slope_from_spec(spec)
    stats = simulate(model, slope, 10**6)
    assert stats.total_advance == str(10**6)  # exact bookkeeping
    assert not stats.terminated_early
    d = stats.discrepancy
    assert d[0] > d[1] > d[2], d
    assert stats.deck_zero_returns >= 10

    control = simulate(
        model, Fraction(1, 2), 10**6, start=CoverState(0, Fraction(-1, 2), Fraction(1, 32))
    )
    dc = control.discrepancy
    assert dc[-1] > 0.5 and dc[-1] >= dc[0] - 0.01  # no decay
    b.done(f"cert direction TV {d} vs rational {dc[-1]:.3f}")


@pytest.mark.acceptance
def test_criterion_8_determinism(tmp_path):
    b = Budget("8 (determinism)", 60.0)
    from slittori.cli import main

    for name, argv in {
        "spec": ["build", "--lambda", "1/4", "--nk", "const:1", "--blocks", "3"],
        "irr": ["build", "--lambda", "0:1:4:2", "--blocks", "2"],
        "dim": ["dimension", "--block", "1,1,1", "--prog", "1,0"],
    }.items():
        p1, p2 = tmp_path / f"{name}1.json", tmp_path / f"{name}2.json"
        assert main(argv + ["-o", str(p1)]) == 0
        assert main(argv + ["-o", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes(), name

    model = build_surface(TorusPoint.of(0, Fraction(1, 4)))
    spec = direction_stream(
        RationalParam.from_barrier_length(Fraction(1, 4)), DigitRule("const", (1,))
    )
    slope = slope_from_spec(spec)
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        simulate(model, slope, 5000).write_csv(buf)
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]
    b.done("byte-identical rebuilds (spec, irrational spec, certificate, stats)")
