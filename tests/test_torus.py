import random
from fractions import Fraction
from itertools import islice, product
from math import isqrt

import pytest

import oracle_torus as oracle
from oracle_torus import apply_generator_inverse, generator_homology_factor, in_region_S
from slittori.exact import ExactScalar, FieldMismatchError, mod_half_open
from slittori.torus import (
    EXCLUDED_POINTS,
    ExcludedPointError,
    Lattice,
    TorusPoint,
    _trace_lattice,
    canonical_entries,
    entries_are_identity,
    entries_fix_beta,
    in_region_E,
    involution_minus_id,
    involution_theta,
    m_sequence,
    trace_word,
)
from slittori.words import GenWord, H_PLUS, H_MINUS, IntMat2, THETA

P = TorusPoint.of


def rand_point(rng, den_max=23):
    while True:
        d = rng.randint(3, den_max)
        x = Fraction(rng.randint(-d, d), 2 * d + 1)
        y = Fraction(rng.randint(-d, d), 2 * d + 1)
        try:
            return P(x, y)
        except ExcludedPointError:
            continue


def rand_word(rng, max_syllables=5, max_exp=4):
    k = rng.randint(1, max_syllables)
    digits = tuple(rng.randint(1, max_exp) for _ in range(k))
    return GenWord.from_digits(digits, leading=rng.choice(["h+", "h-"]))


def test_region_S_examples():
    assert in_region_S(P(0, Fraction(1, 4)))
    assert not in_region_S(P(Fraction(1, 4), Fraction(1, 4)))  # sum = 1/2
    # literal coordinates: sum = -3/4 < -1/2
    assert not in_region_S(P(Fraction(-7, 16), Fraction(-5, 16)))


def test_region_E_examples():
    assert in_region_E(P(0, Fraction(1, 4)))
    assert not in_region_E(P(Fraction(-1, 2), Fraction(1, 4)))
    assert in_region_E(P(Fraction(-1, 4), Fraction(-1, 4)))


def test_apply_generator_inverse_examples():
    z = P(0, Fraction(1, 4))
    assert apply_generator_inverse(z, "h+", 1) == P(Fraction(-1, 4), Fraction(1, 4))
    assert apply_generator_inverse(z, "h+", 2) == P(Fraction(-1, 2), Fraction(1, 4))
    z2 = P(Fraction(-1, 4), Fraction(1, 4))
    assert apply_generator_inverse(z2, "h-", 1) == P(Fraction(-1, 4), Fraction(-1, 2))


def test_generator_factor_examples():
    assert generator_homology_factor(P(0, Fraction(1, 4)), "h+") == H_PLUS
    assert generator_homology_factor(P(Fraction(1, 4), Fraction(1, 4)), "h+") == H_PLUS.inverse()
    assert generator_homology_factor(P(0, Fraction(1, 4)), "h-") == H_MINUS


def test_trace_h_plus_cubed():
    z, w = P(0, Fraction(1, 4)), GenWord.from_digits((3,))
    final, action = trace_word(z, w)
    _, points, _ = oracle.trace_word(z, w)
    assert [(p.x.as_fraction(), p.y.as_fraction()) for p in points] == [
        (Fraction(-1, 4), Fraction(1, 4)),
        (Fraction(-1, 2), Fraction(1, 4)),
        (Fraction(1, 4), Fraction(1, 4)),
    ]
    assert action == H_PLUS.entries()
    assert final == P(Fraction(1, 4), Fraction(1, 4))


def test_trace_empty_word():
    z = P(0, Fraction(1, 4))
    final, action = trace_word(z, GenWord.from_digits(()))
    assert final == z and entries_are_identity(*action)


def test_m_sequence_examples():
    z = P(0, Fraction(1, 4))
    assert m_sequence(z, "h+", 3) == [1, 2, 1]
    assert m_sequence(z, "h+", 1) == [1]


def test_m_sequence_steps_by_one():
    rng = random.Random(23)
    for _ in range(50):
        z = rand_point(rng)
        seq = m_sequence(z, rng.choice(["h+", "h-"]), 30)
        prev = 0
        for m in seq:
            assert abs(m - prev) == 1
            prev = m


def test_m_sequence_drifts_up_for_irrational():
    z = TorusPoint(ExactScalar(0, 1, 8, 2), ExactScalar(0, 1, 4, 2))
    seq = m_sequence(z, "h+", 10**4)
    assert seq[-1] > 1000
    peak = max(seq)
    assert set(range(1, peak + 1)) <= set(seq)  # takes all natural values up to max


def test_trace_matches_m_sequence():
    rng = random.Random(29)
    for _ in range(100):
        z = rand_point(rng)
        n = rng.randint(1, 12)
        gen = rng.choice(["h+", "h-"])
        _, action = trace_word(z, GenWord.from_digits((n,), gen))
        m = m_sequence(z, gen, n)[-1]
        base = H_PLUS if gen == "h+" else H_MINUS
        assert action == canonical_entries(*oracle.matrix_power(base, m).entries())


def test_composition_law():
    rng = random.Random(31)
    for _ in range(1000):
        z = rand_point(rng)
        w1, w2 = rand_word(rng), rand_word(rng)
        final, action = trace_word(z, w1 * w2)
        final1, action1 = trace_word(z, w1)
        final2, action2 = trace_word(final1, w2)
        composed = IntMat2(*action1) * IntMat2(*action2)
        assert canonical_entries(*action) == canonical_entries(*composed.entries())
        assert final == final2


def test_theta_conjugation():
    rng = random.Random(37)
    for _ in range(1000):
        z = rand_point(rng)
        w = rand_word(rng)
        _, lhs = trace_word(involution_theta(z), w.theta_conjugate())
        _, rhs = trace_word(z, w)
        assert canonical_entries(*lhs) == canonical_entries(*(THETA * IntMat2(*rhs) * THETA).entries())


def test_minus_id_symmetry():
    rng = random.Random(41)
    checked = 0
    attempts = 0
    while checked < 1000 and attempts < 20000:
        attempts += 1
        z = rand_point(rng)
        w = rand_word(rng)
        _, action = trace_word(z, w)
        zm = involution_minus_id(z)
        _, action_m = trace_word(zm, w)
        pts = (z,) + oracle.trace_word(z, w)[1] + (zm,) + oracle.trace_word(zm, w)[1]
        generic = all(
            in_region_E(p) and abs(p.x + p.y) != ExactScalar(1, 0, 2) for p in pts
        )
        if not generic:
            continue
        checked += 1
        assert action == action_m
    assert checked == 1000


def test_involutions():
    z = P(0, Fraction(1, 4))
    assert involution_theta(z) == P(Fraction(1, 4), 0)
    assert involution_theta(involution_theta(z)) == z
    assert involution_minus_id(z) == P(0, Fraction(-1, 4))
    assert involution_minus_id(P(Fraction(-1, 2), Fraction(1, 4))) == P(
        Fraction(-1, 2), Fraction(-1, 4)
    )
    assert involution_minus_id(P(Fraction(1, 4), Fraction(1, 4))) == P(
        Fraction(-1, 4), Fraction(-1, 4)
    )


def test_excluded_points_rejected_and_preserved():
    for x, y in EXCLUDED_POINTS:
        with pytest.raises(ExcludedPointError):
            P(x, y)
    rng = random.Random(43)
    for _ in range(300):
        z = rand_point(rng)
        w = rand_word(rng, max_syllables=6, max_exp=5)
        trace_word(z, w)  # constructing any excluded point would raise


def rand_kernel_point(rng, D, den_max=40):
    """A point with coordinates in Q(sqrt(D)), reduced mod 1.

    Rational coordinates have even denominators too, including 0 and -1/2,
    and some points have x - y = 1/2, so orbits land exactly on the
    boundaries of S and of the wrap.
    """
    def coord(irrational):
        w = rng.randint(1, den_max)
        if irrational:
            return ExactScalar(rng.randint(-w, w), rng.randint(-w, w) or 1, w, D)
        return ExactScalar(rng.choice((0, -1, rng.randint(-w, w))), 0, 2 * w)

    while True:
        kinds = [rng.random() < 0.7 for _ in range(2)] if D else [False, False]
        if D and not any(kinds):
            continue
        x = coord(kinds[0])
        y = x - ExactScalar(1, 0, 2) if rng.random() < 0.2 else coord(kinds[1])
        try:
            return P(x, y)
        except ExcludedPointError:
            continue


def lattice_points(z, word):
    """Every intermediate point of ``word`` traced from z, stepped one unit
    at a time by Lattice.run."""
    lat = Lattice(z.x, z.y)
    x, y = lat.embed(z.x), lat.embed(z.y)
    points = []
    for gen, exp in oracle.syllables_of(word):
        if gen == "h+":
            for _, u, v in islice(lat.run(x, y), exp):
                points.append(lat.point((u, v), y))
            x = (u, v)
        else:
            for _, u, v in islice(lat.run(y, x), exp):
                points.append(lat.point(x, (u, v)))
            y = (u, v)
    return tuple(points)


def test_kernel_matches_oracle():
    """The integer kernel against ExactScalar stepping: endpoints, actions,
    the points of Lattice.run and running counts, on rational points and in
    three quadratic fields, with long exponents."""
    rng = random.Random(47)
    for D in (0, 2, 3, 5):
        for _ in range(40):
            z = rand_kernel_point(rng, D)
            w = rand_word(rng, max_syllables=6, max_exp=60)
            final, points, action = oracle.trace_word(z, w)
            traced, entries = trace_word(z, w)
            assert (traced, canonical_entries(*entries)) == (final, action)
            assert lattice_points(z, w) == points
            gen = rng.choice(["h+", "h-"])
            assert m_sequence(z, gen, 80) == oracle.m_sequence(z, gen, 80)


def syllable_by_steps(lat, moving, fixed, n):
    m, u, v = next(islice(lat.run(moving, fixed), n - 1, None))
    return (u, v), m


def rand_coord(rng, lat, bits=0):
    """A lattice coordinate in [-1/2, 1/2): rational when lat.D == 0, else
    with a nonzero sqrt(D) part of at least ``bits`` bits."""
    W, D = lat.W, lat.D
    if not D:
        return rng.randrange(W) - lat.half, 0
    v = rng.choice((-1, 1)) * rng.randint(1 << bits, 1 << (bits + 8))
    return lat.embed(mod_half_open(ExactScalar(rng.randrange(W), v, W, D)))


def boundary_start(rng, lat, fixed, n):
    """A moving coordinate whose n-step value t has t + W/2 within 1/W of a
    multiple of W: exactly on it when rational, just above it when the
    sqrt(D) part of t is positive and just below it when negative."""
    W, D = lat.W, lat.D
    v = rng.choice((-1, 1)) * rng.randint(1, 1 << rng.choice((4, 2048))) if D else 0
    s = isqrt(v * v * D)
    u = -lat.half + (s if v < 0 else -s) + W * rng.randint(-3, 3)
    return lat.embed(mod_half_open(ExactScalar(u + n * fixed[0], v + n * fixed[1], W, D)))


def closed_form_syllable(lat, moving, fixed, n):
    """The moving coordinate and running count of one syllable of n steps,
    read from _trace_lattice on the one-syllable words (h+)^n and (h-)^n:
    the action of g^n from the identity is the generator to the power m,
    so m is its b entry for h+ and its c entry for h-."""
    xu, xv, _, _, a, m, c, d = _trace_lattice(lat.W, lat.D, *moving, *fixed, "h+", (n,))
    assert (a, c, d) == (1, 0, 1)
    _, _, yu, yv, a, b, m_minus, d = _trace_lattice(lat.W, lat.D, *fixed, *moving, "h-", (n,))
    assert (a, b, d) == (1, 0, 1) and (yu, yv, m_minus) == (xu, xv, m)
    return (xu, xv), m


def test_syllable_closed_form_matches_stepping():
    """One closed-form syllable of _trace_lattice against n steps of
    Lattice.run: exponents up to 10^5, starts whose syllable ends on or next
    to the wrap boundary, fixed coordinates 0 and -1/2, and quadratic
    coefficients of 2 kbit."""
    rng = random.Random(53)
    lattices = [Lattice(ExactScalar(1, 0, w)) for w in (2, 6, 40, 1001)]
    lattices += [Lattice(ExactScalar(1, 0, w), ExactScalar(0, 1, 1, D)) for w, D in
                 ((2, 2), (8, 2), (12, 3), (70, 5))]
    for lat in lattices:
        fixed_cases = [(0, 0), (-lat.half, 0)]
        fixed_cases += [rand_coord(rng, lat, bits) for bits in (0, 0, 0, 2048)]
        for fixed in fixed_cases:
            for n in (1, 2, 3, rng.randint(4, 300), rng.choice((10**4, 10**5))):
                starts = [rand_coord(rng, lat), boundary_start(rng, lat, fixed, n)]
                if lat.D:
                    starts.append(rand_coord(rng, lat, 2048))
                for moving in starts:
                    if n > 300 and max(map(abs, moving + fixed)).bit_length() > 64:
                        continue  # 10^5 steps on 2-kbit values would take seconds
                    assert closed_form_syllable(lat, moving, fixed, n) == syllable_by_steps(
                        lat, moving, fixed, n
                    ), (lat.W, lat.D, moving, fixed, n)


def test_closed_form_trace_matches_oracle_on_wide_coefficients():
    """_trace_lattice against Lattice.run stepping and ExactScalar stepping
    on quadratic starts with coefficients of 2 kbit and more."""
    rng = random.Random(59)
    for D in (2, 3, 5):
        lat = Lattice(ExactScalar(1, 0, 8 * D), ExactScalar(0, 1, 1, D))
        for _ in range(6):
            x, y = rand_coord(rng, lat, 2048), rand_coord(rng, lat, rng.choice((0, 2048)))
            z = lat.point(x, y)
            w = rand_word(rng, max_syllables=6, max_exp=30)
            final, points, action = oracle.trace_word(z, w)
            xu, xv, yu, yv, *mat = _trace_lattice(lat.W, lat.D, *x, *y, w.leading, w.digits)
            assert lat.point((xu, xv), (yu, yv)) == final == lattice_points(z, w)[-1] == points[-1]
            assert canonical_entries(*mat) == action


def test_kernel_matches_syllable_oracle():
    """_trace_lattice on a leading generator and exponents against the
    syllable-form oracle on the same seeded alternating words: both leading
    generators, rational points and three quadratic fields, and exponents
    up to 50 W, which wrap many times in one syllable."""
    rng = random.Random(67)
    for D in (0, 2, 3, 5):
        for w in (2, 6, 40, 1001):
            lat = Lattice(ExactScalar(1, 0, w), *([ExactScalar(0, 1, 1, D)] if D else []))
            for _ in range(25):
                x, y = rand_coord(rng, lat, rng.choice((0, 64))), rand_coord(rng, lat)
                leading = rng.choice(("h+", "h-"))
                exponents = tuple(rng.randint(1, 50 * lat.W) for _ in range(rng.randint(1, 9)))
                syllables = oracle.syllables_of(GenWord.from_digits(exponents, leading))
                assert _trace_lattice(lat.W, lat.D, *x, *y, leading, exponents) == (
                    oracle._trace_lattice(lat.W, lat.D, *x, *y, syllables)
                ), (lat.W, lat.D, x, y, leading, exponents)


def test_trace_rational_matches_stepping():
    """The kernel on a rational lattice (D = 0), from integer numerators
    over W, against the reference stepping one unit at a time from the same
    rational point."""
    rng = random.Random(61)
    for W in (4, 6, 40, 2002):  # every point of Z/2 is a puncture
        for _ in range(40):
            while True:
                x, y = rng.randrange(-W // 2, W // 2), rng.randrange(-W // 2, W // 2)
                try:
                    z = P(Fraction(x, W), Fraction(y, W))
                    break
                except ExcludedPointError:
                    continue
            w = rand_word(rng, max_syllables=7, max_exp=min(3 * W, 120))
            final, _, action = oracle.trace_word(z, w, record_points=False)
            x1, v1, y1, v2, *traced = _trace_lattice(W, 0, x, 0, y, 0, w.leading, w.digits)
            assert v1 == v2 == 0
            assert P(Fraction(x1, W), Fraction(y1, W)) == final
            assert canonical_entries(*traced) == action


@pytest.mark.parametrize("syllable", [("hx", 3), ("h+", -2), ("h-", 0)])
def test_trace_rational_rejects_bad_syllables(syllable):
    """An unknown leading generator or an exponent below 1 fails closed,
    alone and after a valid exponent, instead of tracing as h- or a
    negative count."""
    leading, n = syllable
    for exponents in ((n,), (1, n)):
        with pytest.raises(ValueError):
            _trace_lattice(6, 0, 1, 0, 2, 0, leading, exponents)


def test_mixed_fields_fail_closed():
    z = TorusPoint(ExactScalar(0, 1, 8, 2), ExactScalar(0, 1, 8, 3))
    for word in (GenWord.from_digits(()), GenWord.from_digits((3, 2))):
        with pytest.raises(FieldMismatchError):
            trace_word(z, word)
    with pytest.raises(FieldMismatchError):
        m_sequence(z, "h-", 4)


def test_orbit_through_puncture_fails_closed():
    # TorusPoint refuses a puncture, so forge one to start the orbit there
    z = object.__new__(TorusPoint)
    object.__setattr__(z, "x", ExactScalar(-1, 0, 2))
    object.__setattr__(z, "y", ExactScalar(0))
    with pytest.raises(ExcludedPointError):
        trace_word(z, GenWord.from_digits((2, 1)))


def test_homology_action_canonical_sign():
    """The action's one form is its canonical entries: the sign that makes
    the first nonzero entry positive, and only for |det| = 1."""
    assert canonical_entries(-1, 0, -3, -1) == (1, 0, 3, 1)
    assert entries_fix_beta(1, 0, 3, 1)
    assert entries_are_identity(*canonical_entries(-1, 0, 0, -1))
    assert not entries_fix_beta(*canonical_entries(1, 1, 0, 1))
    assert canonical_entries(0, -1, 1, 0) == (0, 1, -1, 0)
    assert canonical_entries(0, 1, -1, 3) == (0, 1, -1, 3)
    for det_not_unit in ((2, 0, 0, 1), (1, 0, 0, 2), (1, 1, 1, 1), (0, 0, 0, 0), (-1, 2, 1, 0)):
        with pytest.raises(ValueError, match="det"):
            canonical_entries(*det_not_unit)


def test_action_rules_on_identity_and_h_minus_powers():
    """The shared rules on +-I and +-(h-)^k: each sign has the one
    canonical form, every power fixes beta and only k = 0 is the identity.
    diag(1, -1) and the h+ powers are neither."""
    for k in range(-3, 4):
        for sign in (1, -1):
            e = (sign, 0, sign * k, sign)
            assert canonical_entries(*e) == (1, 0, k, 1)
            assert entries_fix_beta(*e)
            assert entries_are_identity(*e) == (k == 0)
        if k:
            assert canonical_entries(-1, -k, 0, -1) == (1, k, 0, 1)
            assert not entries_fix_beta(1, k, 0, 1) and not entries_are_identity(1, k, 0, 1)
    for e in ((1, 0, 0, -1), (-1, 0, 0, 1), (1, 0, 2, -1)):
        assert canonical_entries(*e)[0] == 1
        assert not entries_fix_beta(*e) and not entries_are_identity(*e)
    assert canonical_entries(0, -1, 1, 0) == (0, 1, -1, 0)


def test_homology_action_agrees_with_the_rules():
    """On seeded random unimodular matrices (shear products, times -1,
    theta or omega), canonical_entries gives +-the entries with the first
    nonzero one positive, and the rules give the same verdict on the raw
    and the canonical entries, which agrees with the definitions written
    out on the canonical matrix."""
    rng = random.Random(20)
    factors = (H_PLUS, H_MINUS, THETA, IntMat2(0, 1, -1, 0), IntMat2(-1, 0, 0, -1))
    hits = {"identity": 0, "beta": 0}
    for _ in range(400):
        m = IntMat2(1, 0, 0, 1)
        for _ in range(rng.randrange(4)):
            m = m * rng.choice(factors)
        if rng.random() < 0.3:  # +-(h-)^k, so both verdicts are often true
            k, sign = rng.randrange(-4, 5), rng.choice((1, -1))
            m = IntMat2(sign, 0, sign * k, sign)
        e = m.entries()
        canon = canonical_entries(*e)
        assert canon in (e, tuple(-v for v in e))
        assert next(v for v in canon if v) > 0
        a, b, c, d = canon
        identity = (a, b, c, d) == (1, 0, 0, 1)
        beta = a == 1 and b == 0 and d == 1
        for rule, want in ((entries_are_identity, identity), (entries_fix_beta, beta)):
            assert rule(*e) == rule(*canon) == want
        hits["identity"] += identity
        hits["beta"] += beta
    assert min(hits.values()) > 20, hits


def test_rules_are_exact_on_any_integer_entries():
    """On every integer matrix with entries in [-3, 3], unimodular or not,
    each rule holds exactly when |det| = 1 and the rule as first written
    (``oracle_torus``: canonicalise, then test) holds."""
    hits = {"identity": 0, "beta": 0, "not unimodular": 0}
    for e in product(range(-3, 4), repeat=4):
        a, b, c, d = e
        unit = abs(a * d - b * c) == 1
        identity = unit and oracle.entries_are_identity(*e)
        beta = unit and oracle.entries_fix_beta(*e)
        assert entries_are_identity(*e) == identity, e
        assert entries_fix_beta(*e) == beta, e
        hits["identity"] += identity
        hits["beta"] += beta
        hits["not unimodular"] += not unit and b == 0 and a == d
    assert hits == {"identity": 2, "beta": 14, "not unimodular": 35}, hits


def test_non_unimodular_action_is_a_failed_verdict(monkeypatch):
    """A kernel that returned the entries 2 I, of det 4, fails each
    verdict that reads them instead of raising: the fixing certificate is
    not ok (its end point, which the forged kernel leaves right, still
    returns to z, and the h- period is the congruence, read from no
    entries), find_block raises DerivationError, and verify records
    fixes_beta false at every checkpoint."""
    from slittori import irrational, rational, torus
    from slittori.criterion import verify
    from slittori.directions import DigitRule
    from slittori.irrational import DerivationError, find_block
    from slittori.rational import FixingCertificate, RationalParam, certify_fixing, direction_stream

    def forged(*args):
        return (*_trace_lattice(*args)[:4], 2, 0, 0, 2)

    param = RationalParam.from_barrier_length(Fraction(1, 4))
    spec = direction_stream(param, DigitRule("const", (1,)))
    monkeypatch.setattr(rational, "_trace_lattice", forged)
    assert certify_fixing(param) == FixingCertificate(True, False, 1)
    monkeypatch.setattr(irrational, "_trace_lattice", forged)
    with pytest.raises(DerivationError, match="fails its trace certificate"):
        find_block(TorusPoint(ExactScalar(0), ExactScalar(0, 1, 4, 2)))
    monkeypatch.setattr(torus, "_trace_lattice", forged)  # verify reads it through trace_word
    report = verify(spec, 2)
    assert [rec.homology_fixes_beta for rec in report.records] == [False, False]
    assert all(rec.endpoint_consistent for rec in report.records)
    assert not report.overall
