from fractions import Fraction

import pytest

from slittori.criterion import masur_structural, verify
from slittori.directions import DigitRule
from slittori.exact import ExactScalar
from slittori.rational import RationalParam, direction_stream
from slittori.torus import TorusPoint
from slittori.words import Convergents

from conftest import explicit_spec
from oracle_criterion import masur_entries, wedge_threshold

QUARTER_BLOCK = (5, 1, 1, 7, 1, 1, 2, 1)
Z14 = lambda: TorusPoint.of(0, Fraction(1, 4))
Y14 = (Fraction(1, 4), Fraction(1, 4))


def test_verify_quarter_horizon3(quarter_spec):
    report = verify(quarter_spec, 3)
    assert report.overall
    conv = quarter_spec.convergents(24)
    for n, rec in enumerate(report.records, start=1):
        assert rec.ok and rec.k == 8 * n
        assert rec.strip.k == 1
        assert rec.strip.v == (conv.q(8 * n), conv.p(8 * n))
        assert rec.strip.area == ExactScalar(1, 0, 2)
        assert rec.z == quarter_spec.z0
    assert report.records[0].strip.v == (625, 113)


def test_strip_area_equals_one_minus_height():
    spec = direction_stream(RationalParam(0, 2, 5), DigitRule("const", (1,)))
    report = verify(spec, 2)
    assert report.overall
    # area = (q - s)/q exactly
    assert report.records[0].strip.area == ExactScalar(3, 0, 5)


def test_digit_mutation_flips_only_digit_inequality():
    mutated = QUARTER_BLOCK[:8]
    spec = explicit_spec(Z14(), Y14, [mutated, (3, 1, 1, 7, 1, 1, 2, 1)])
    report = verify(spec, 1)
    rec = report.records[0]
    assert not rec.digit_inequality  # 3 < 2/(1 - 1/2) = 4
    assert rec.homology_fixes_beta
    assert rec.y_in_bounds
    assert rec.sigma_bounded
    assert rec.wedge_bounded
    assert rec.endpoint_consistent
    assert not report.overall


def test_y_bounds_mutation_flips_only_y(quarter_spec):
    spec = explicit_spec(
        Z14(), (Fraction(3, 8), Fraction(3, 8)), [QUARTER_BLOCK, QUARTER_BLOCK]
    )
    report = verify(spec, 1)
    rec = report.records[0]
    assert not rec.y_in_bounds
    assert rec.digit_inequality and rec.homology_fixes_beta
    assert rec.sigma_bounded and rec.wedge_bounded and rec.endpoint_consistent


def test_boundary_digit_satisfies_inequality():
    # a_{k+1} exactly ceil(2/(1-2y)) = 4 still passes (>= is closed)
    spec = explicit_spec(Z14(), Y14, [QUARTER_BLOCK, (4, 1, 1, 7, 1, 1, 2, 1)])
    rec = verify(spec, 1).records[0]
    assert rec.digit_inequality and rec.wedge_bounded


def test_masur_entries_quarter(quarter_spec):
    conv = quarter_spec.convergents(8)
    alpha = quarter_spec.alpha_enclosure(256, min_digits=10)
    entries = masur_entries(conv, 8, alpha)
    for e in entries:
        assert e.certified_abs_le(1)
    # |q8 (q7 a - p7)| = 625 |448 a - 81| is close to but below 1
    assert abs(entries[1]).lo > Fraction(8, 10)
    assert masur_structural(conv, 8)
    assert all(rec.sigma_bounded for rec in verify(quarter_spec, 2).records)


def test_masur_structural_rejects_odd_k(quarter_spec):
    conv = quarter_spec.convergents(8)
    assert not masur_structural(conv, 7)


def _entries_at(conv, k, alpha):
    """The four matrix entries at an exact rational alpha."""
    qk, pk, qk1, pk1 = conv.q(k), conv.p(k), conv.q(k - 1), conv.p(k - 1)
    return (qk * (qk * alpha - pk), qk * (qk1 * alpha - pk1),
            pk / (alpha * qk), pk1 / (alpha * qk))


def test_masur_structural_refuses_k_below_two():
    """At k = 0 the entry p_{-1} / (alpha q_0) is 1/alpha > 1, so the lemma
    needs k >= 2; a negative k, where the table has no index k - 1, is
    refused too, not an IndexError."""
    conv = Convergents((2, 3, 1, 4, 1))
    alpha = conv.value(5)
    assert _entries_at(conv, 0, alpha)[3] == 1 / alpha > 1
    for k in (0, -2):
        assert masur_structural(conv, k) is False
    assert masur_structural(conv, 2) and masur_structural(conv, 4)


def test_masur_structural_needs_the_next_digit():
    """The lemma reads x = [a_{k+1}; ...] >= 1, so a table that stops at
    digit k does not certify checkpoint k."""
    digits = (5, 1, 1, 7, 1, 1, 2, 1)
    assert not masur_structural(Convergents(digits), 8)
    assert masur_structural(Convergents(digits + (1,)), 8)


def test_mediant_lemma_holds_at_both_ends():
    """On seeded even-length prefixes the four entries, exact at both ends
    of [p_k/q_k, (p_k + p_{k-1})/(q_k + q_{k-1})], lie in [-1, 1] (each
    entry is monotone in alpha there, so they do on the whole interval),
    at the ends the docstring gives, and every alpha with the k + 1 digits
    lies in the interval."""
    import random

    rng = random.Random(36)
    for _ in range(400):
        k = 2 * rng.randint(1, 12)
        digits = tuple(rng.choice((1, 1, 2, 3, rng.randint(1, 60))) for _ in range(k + 1))
        conv = Convergents(digits)
        assert masur_structural(conv, k), digits
        qk, pk, qk1, pk1 = conv.q(k), conv.p(k), conv.q(k - 1), conv.p(k - 1)
        lo, hi = Fraction(pk, qk), Fraction(pk + pk1, qk + qk1)
        e_lo, e_hi = _entries_at(conv, k, lo), _entries_at(conv, k, hi)
        assert e_lo == (0, -1, 1, Fraction(pk1, pk)), digits
        assert e_hi[:2] == (Fraction(qk, qk + qk1), Fraction(-qk, qk + qk1)), digits
        assert all(-1 <= e <= 1 for e in e_lo + e_hi), digits
        tail = Convergents(digits + tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 4))))
        assert lo <= tail.value() <= hi, digits


def test_convergent_bracket_alone_admits_e1_above_one():
    """The bracket [p_k/q_k, p_{k-1}/q_{k-1}] that masur_structural once
    tested alpha against does not bound e1: digits (1, 1) at k = 2 give the
    bracket [1/2, 1], and alpha = 9/10 in it has e1 = 8/5.  The mediant 2/3
    excludes 9/10, whose digits are (1, 9)."""
    conv = Convergents((1, 1, 1))
    assert (conv.value(2), conv.value(1)) == (Fraction(1, 2), 1)
    assert _entries_at(conv, 2, Fraction(9, 10))[0] == Fraction(8, 5)
    assert Fraction(conv.p(2) + conv.p(1), conv.q(2) + conv.q(1)) == Fraction(2, 3)
    assert Convergents((1, 9)).value() == Fraction(9, 10)
    assert masur_structural(conv, 2)


def test_wedge_check_values(quarter_spec):
    """The first tail digit decides the wedge, and the reference's interval
    route, on the threshold it compares with, agrees."""
    rec = verify(quarter_spec, 1).records[0]
    assert rec.wedge_bounded and (rec.wedge_route, rec.wedge_digits) == ("direct+implied", 1)
    conv = quarter_spec.convergents(8)
    alpha = quarter_spec.alpha_enclosure(256, min_digits=10)
    wedge = abs(alpha * conv.q(8) - conv.p(8))
    thr = wedge_threshold(ExactScalar(1, 0, 4), 625)
    assert thr == ExactScalar(1, 0, 2500)
    assert wedge.certified_le(thr)
    # the halved threshold genuinely fails for this stream: the margin
    # ratio sits around 0.64, not below 1/2
    assert not wedge.certified_le(thr * Fraction(1, 2))


def test_wedge_mutation_fails():
    # first digit of the next block = 2 < 4 breaks the wedge bound too
    spec = explicit_spec(Z14(), Y14, [QUARTER_BLOCK, (2, 1, 1, 7, 1, 1, 2, 1)])
    rec = verify(spec, 1).records[0]
    assert not rec.digit_inequality
    assert not rec.wedge_bounded
    assert rec.sigma_bounded and rec.homology_fixes_beta and rec.y_in_bounds


def _quarter_tail(tail, goes_on=True):
    """The quarter block, then ``tail`` as block 2, then the quarter block
    again if the stream ``goes_on``.  At checkpoint 1, y = 1/4 and
    t = 4 - q_7/q_8 = 4 - 448/625 = 2052/625 = [3; 3, 1, 1, 7, 1, 1, 5]."""
    return explicit_spec(Z14(), Y14, [QUARTER_BLOCK, tail] + [QUARTER_BLOCK] * goes_on)


def _wedge(spec):
    """(wedge_bounded, wedge_digits) at checkpoint 1."""
    rec = verify(spec, 1).records[0]
    return rec.wedge_bounded, rec.wedge_digits


def test_wedge_flips_its_sense_at_odd_depth():
    """A tail (3, 1, ...) meets floor(t) = 3 at depth 0; at depth 1 it is
    below t_1 = 625/177, so x > t and the wedge holds, although a_9 = 3 < 4
    fails the digit inequality.  A tail (3, 4, ...) is above t_1, and the
    wedge fails."""
    assert _wedge(_quarter_tail((3, 1, 1, 7, 1, 1, 2, 1))) == (True, 2)
    assert _wedge(_quarter_tail((3, 4, 1, 1, 7, 1, 1, 2))) == (False, 2)


def test_wedge_reads_the_floor_of_t():
    """floor(t) = 3: a first tail digit 4 is above t, 2 is below it, each
    decided by that digit alone, and 3 goes on to the next digit."""
    assert _wedge(_quarter_tail((4, 1, 1, 7, 1, 1, 2, 1))) == (True, 1)
    assert _wedge(_quarter_tail((2, 1, 1, 7, 1, 1, 2, 1))) == (False, 1)
    assert _wedge(_quarter_tail((3, 1, 1, 7, 1, 1, 2, 1)))[1] == 2


def test_wedge_at_an_integral_t_i():
    """A tail that follows t's digits to t_7 = 5, an integer, where the
    eighth tail digit decides.  With a_16 = 5 the stream goes on, so
    x_7 = 5 + 1/x_8 > t_7 at odd depth: x < t and the wedge fails.  With
    a_16 = 4, x_7 < 5 and the wedge holds; with a_16 = 6 it fails."""
    assert _wedge(_quarter_tail((3, 3, 1, 1, 7, 1, 1, 5))) == (False, 8)
    assert _wedge(_quarter_tail((3, 3, 1, 1, 7, 1, 1, 4))) == (True, 8)
    assert _wedge(_quarter_tail((3, 3, 1, 1, 7, 1, 1, 6))) == (False, 8)


def test_wedge_fails_closed_at_the_depth_cap(monkeypatch):
    """A comparison that no WEDGE_DEPTH tail digits decide records the
    wedge as failed, with a note; here the cap is lowered to 4 on a tail
    that t's own digits decide only at the ninth."""
    from slittori import criterion

    monkeypatch.setattr(criterion, "WEDGE_DEPTH", 4)
    rec = verify(_quarter_tail((3, 3, 1, 1, 7, 1, 1, 5)), 1).records[0]
    assert (rec.wedge_bounded, rec.wedge_route, rec.wedge_digits) == (False, "none", 4)
    assert rec.notes == ["wedge undecided: x and t agree in 4 tail digits"]
    assert rec.sigma_bounded and rec.homology_fixes_beta and not rec.ok


@pytest.mark.parametrize("last", [4, 5, 6])
def test_finite_tail_is_decided_at_its_last_digit(last):
    """A stream that ends with block 2 has x = [3; 3, 1, 1, 7, 1, 1, last + s]
    for whatever digits follow, with 0 < s < 1.  x is monotone in s, so
    x - t keeps one sign on that open range when t lies outside the open
    interval between its ends, computed here with Fractions; then the last
    digit a_16 decides the wedge, and no digit past the stream is read."""
    tail = (3, 3, 1, 1, 7, 1, 1, last)
    t = 4 - Fraction(448, 625)

    def x(s):
        value = last + Fraction(s)
        for a in reversed(tail[:-1]):
            value = a + 1 / value
        return value

    lo, hi = sorted((x(0), x(1)))
    assert lo >= t or hi <= t
    assert (lo >= t) == (last == 4)
    assert _wedge(_quarter_tail(tail, goes_on=False)) == (lo >= t, 8)


def test_finite_tail_that_does_not_decide_raises():
    """When the tail digits a finite stream has agree with t's, no verdict
    holds for every continuation, and the comparison's read past the end
    raises, as any read past a truncated stream does: with
    t = [3; 3, 1, 1, 7, 1, 1, 5, 2], the ninth tail digit is missing."""
    from slittori.criterion import _quotient_ge
    from slittori.directions import DigitStreamExhaustedError

    spec = _quarter_tail((3, 3, 1, 1, 7, 1, 1, 5), goes_on=False)
    t = 1 / Convergents((3, 3, 1, 1, 7, 1, 1, 5, 2)).value()  # [0; digits] = 1/[digits]
    with pytest.raises(DigitStreamExhaustedError):
        _quotient_ge(spec, 8, t, [])


def _forged(base, rng):
    """``base`` with the first digit of every block forged: 1, 2, 3, 4, the
    real digit or a random one, so that the digit inequality often fails.
    The blocks keep their recorded endpoints."""
    from itertools import count

    from slittori.directions import BlockRecord, DirectionSpec

    def source():
        for n in count(1):
            rec = base.block(n)
            first = rng.choice((1, 2, 3, 4, rec.digits[0], rng.randint(1, 60)))
            yield BlockRecord(n, (first,) + rec.digits[1:], rec.endpoint, rec.meta)

    return DirectionSpec(base.z0, base.y_bounds, base.provenance, source())


def test_wedge_matches_interval_reference():
    """Differential test of the wedge comparison against the interval route
    it replaced, ``oracle_criterion.wedge_at``: the verdicts agree at every
    checkpoint of the streams of ``test_verify_matches_oracle`` and of 400
    seeded forged streams, on the quadratic and barrier streams of
    ``_stream`` and on eight seeded barrier streams.  The comparison itself
    gives each record's digit count too, 1 wherever the digit inequality
    holds.  Where the digit inequality fails, the wedge both holds and
    fails."""
    import random

    import oracle_criterion
    from slittori.criterion import _quotient_ge

    rng = random.Random(4101)
    cases = [(_stream(name), horizon) for name, horizon in ORACLE_CASES]
    bases = [_stream(name) for name in ("sqrt2", "sqrt3_d2", "quarter", "sixth_arith")]
    for _ in range(8):
        lam = Fraction(rng.randint(1, 12), rng.randint(25, 60))
        rule = DigitRule("arith", (rng.randint(1, 5), rng.randint(0, 9)))
        bases.append(direction_stream(RationalParam.from_barrier_length(lam), rule))
    forged = [(_forged(bases[i % len(bases)], random.Random(rng.random())), rng.randint(1, 3))
              for i in range(400)]
    seen = set()
    for spec, horizon in cases + forged:
        for rec in verify(spec, horizon).records:
            conv = spec.convergents(rec.k)
            threshold = wedge_threshold(rec.z.y, conv.q(rec.k))
            bounded = oracle_criterion.wedge_at(
                spec, conv, rec.k, threshold, rec.digit_inequality, []
            )[0]
            assert rec.wedge_bounded == bounded, (spec.provenance, rec.n)
            t = 2 / (1 - 2 * rec.z.y) - Fraction(conv.q(rec.k - 1), conv.q(rec.k))
            assert _quotient_ge(spec, rec.k, t, []) == (bounded, rec.wedge_digits)
            assert rec.wedge_digits == 1 or not rec.digit_inequality
            seen.add((rec.digit_inequality, rec.wedge_bounded, rec.wedge_digits > 1))
    assert {(False, True, True), (False, False, False), (True, True, False)} <= seen


def test_verify_irrational(sqrt2_spec):
    report = verify(sqrt2_spec, 2)
    assert report.overall
    for rec in report.records:
        assert rec.y_in_bounds and rec.homology_fixes_beta
        assert rec.strip.area == ExactScalar(1) - 2 * rec.z.y


def test_reports_monotone(quarter_spec):
    r2 = verify(quarter_spec, 2)
    r4 = verify(quarter_spec, 4)
    assert [r.as_json() for r in r2.records] == [r.as_json() for r in r4.records[:2]]
    assert r4.overall


def test_report_serialization(quarter_spec):
    d = verify(quarter_spec, 1).as_json()
    assert d["overall"] is True
    assert d["horizon"] == 1
    rec = d["checkpoints"][0]
    assert rec["strip"]["v"] == [625, 113]
    assert rec["z"] == [[0, 0, 1, 0], [1, 0, 4, 0]]
    assert isinstance(rec["wedge_ratio"], list)


def test_wedge_ratio_below_one(quarter_spec):
    rec = verify(quarter_spec, 1).records[0]
    assert rec.wedge_ratio.hi < 1
    assert rec.wedge_ratio.lo > Fraction(1, 2)  # and above the halved bound


def test_horizon_validation(quarter_spec):
    with pytest.raises(ValueError):
        verify(quarter_spec, 0)


@pytest.mark.parametrize("inconclusive", [False, True])
@pytest.mark.parametrize("bits", [1, 256])
@pytest.mark.parametrize("stream", ["quarter", "sixth_arith", "sqrt2"])
def test_check_helpers_equal_verify_records(stream, bits, inconclusive, monkeypatch):
    """verify bounds sigma and the wedge at every checkpoint, and the
    reference's interval route (``oracle_criterion.wedge_at``) agrees from
    any starting precision ``PRECISION_BITS``.  (verify is the one check;
    the name is kept from the standalone helpers it replaced.)

    With ``inconclusive`` every certified interval comparison raises, as a
    too-wide enclosure would: verify makes none, so its records are the
    same, and the reference falls back to its implied route.
    """
    import oracle_criterion
    from slittori.intervals import InconclusiveIntervalError, RatInterval

    expected = [rec.as_json() for rec in verify(_stream(stream), 3).records]
    if inconclusive:
        def undecided(self, bound):
            raise InconclusiveIntervalError("forced")

        monkeypatch.setattr(RatInterval, "certified_le", undecided)
        monkeypatch.setattr(RatInterval, "certified_abs_le", undecided)
    monkeypatch.setattr(oracle_criterion, "PRECISION_BITS", bits)
    spec = _stream(stream)
    report = verify(spec, 3)
    assert [rec.as_json() for rec in report.records] == expected
    for rec in report.records:
        assert (rec.sigma_route, rec.wedge_route) == ("structural", "direct+implied")
        assert rec.sigma_bounded and rec.wedge_bounded
        conv = spec.convergents(rec.k)
        threshold = wedge_threshold(rec.z.y, conv.q(rec.k))
        bounded, route, _, _ = oracle_criterion.wedge_at(
            spec, conv, rec.k, threshold, rec.digit_inequality, []
        )
        assert bounded and route == ("implied" if inconclusive else "direct+implied")


@pytest.mark.parametrize("stream", ["quarter", "sixth_arith", "sqrt2"])
def test_verdicts_do_not_depend_on_starting_precision(stream, monkeypatch):
    """The reference verifier, whose interval routes must agree with the
    mediant lemma and the wedge comparison at every checkpoint, gives the
    same records at starting precisions 1, 64, 256 and 1024: the precision
    only decides how many doublings an interval comparison takes."""
    import oracle_criterion

    reports = set()
    for bits in (1, 64, 256, 1024):
        monkeypatch.setattr(oracle_criterion, "PRECISION_BITS", bits)
        reports.add(repr(oracle_criterion.verify(_stream(stream), 3).as_json()))
    assert len(reports) == 1
    assert verify(_stream(stream), 3).overall


def _recording_enclosures(monkeypatch):
    """The precisions ``alpha_enclosure`` is asked for, in order, from now on."""
    from slittori.directions import DirectionSpec

    asked = []
    enclosure = DirectionSpec.alpha_enclosure

    def recording(self, bits=256, min_digits=0):
        asked.append(bits)
        return enclosure(self, bits, min_digits)

    monkeypatch.setattr(DirectionSpec, "alpha_enclosure", recording)
    return asked


def test_precision_retry_reports_last_precision_tried(monkeypatch):
    """With every interval comparison inconclusive and the digit inequality
    failing, so that the implied route is closed, the reference's wedge
    route doubles the precision three times and names the last precision
    tried, not one doubling more.  verify decides the same checkpoint from
    its digits, with no enclosure."""
    import oracle_criterion
    from slittori.intervals import InconclusiveIntervalError, RatInterval

    def undecided(self, bound):
        raise InconclusiveIntervalError("forced")

    spec = _stream("mut_digit")
    asked = _recording_enclosures(monkeypatch)
    monkeypatch.setattr(RatInterval, "certified_le", undecided)
    rec = verify(spec, 1).records[0]
    assert asked == []
    assert not rec.digit_inequality and rec.wedge_bounded and rec.wedge_route == "direct"
    conv = spec.convergents(8)
    notes = []
    got = oracle_criterion.wedge_at(spec, conv, 8, wedge_threshold(rec.z.y, conv.q(8)), False, notes)
    assert asked == [256, 512, 1024, 2048]
    assert got == (False, "inconclusive", None, 2048)
    assert notes == ["wedge inconclusive: forced"]


@pytest.mark.parametrize("stream, horizon", [("quarter", 6), ("sqrt2", 4)])
def test_verify_reads_no_enclosure(stream, horizon, monkeypatch):
    """The sigma and wedge checks read the stream's digits, so verify asks
    for no enclosure of alpha and reads no block past block H + 1."""
    spec = _stream(stream)
    asked = _recording_enclosures(monkeypatch)
    report = verify(spec, horizon)
    assert report.overall and asked == []
    assert spec.cached_blocks == horizon + 1


def _stream(name):
    """A fresh spec for a differential or trace-count case."""
    from slittori.irrational import direction_stream_irrational

    if name == "quarter":
        return direction_stream(
            RationalParam.from_barrier_length(Fraction(1, 4)), DigitRule("const", (1,))
        )
    if name == "sixth_arith":
        return direction_stream(
            RationalParam.from_barrier_length(Fraction(1, 6)), DigitRule("arith", (2, 1))
        )
    if name == "sqrt2":
        return direction_stream_irrational(ExactScalar(0, 1, 4, 2))
    if name == "sqrt3_d2":
        return direction_stream_irrational(ExactScalar(0, 1, 6, 3), DigitRule("const", (2,)))
    if name == "mut_digit":
        return explicit_spec(Z14(), Y14, [QUARTER_BLOCK, (3,) + QUARTER_BLOCK[1:]])
    if name == "mut_y":
        return explicit_spec(Z14(), (Fraction(3, 8), Fraction(3, 8)), [QUARTER_BLOCK] * 2)
    if name == "mut_endpoint":
        # block 2 claims to end at (1/8, 1/4); every block really returns to z0
        forged = TorusPoint.of(Fraction(1, 8), Fraction(1, 4))
        return explicit_spec(Z14(), Y14, [QUARTER_BLOCK] * 4, [Z14(), forged, Z14(), Z14()])
    if name == "mut_action":
        # block 1's action does not fix beta; each later block's own action
        # does, but the running product never does
        return explicit_spec(Z14(), Y14, [(6, 4, 2, 1, 4, 1, 4, 4)] + [QUARTER_BLOCK] * 3)
    raise ValueError(name)


def test_forged_endpoint_fails_only_its_checkpoint():
    """verify traces from its own point, never from the builder's claimed
    endpoint: a forged block-2 endpoint fails checkpoint 2 and no other."""
    report = verify(_stream("mut_endpoint"), 3)
    assert [rec.ok for rec in report.records] == [True, False, True]
    rec = report.records[1]
    assert not rec.endpoint_consistent and rec.notes == []
    assert rec.homology_fixes_beta and rec.y_in_bounds and rec.digit_inequality
    assert not report.overall


def test_fixes_beta_reads_the_running_action():
    """The action checked at checkpoint n is that of digits 1..k_n, not
    that of block n alone."""
    from slittori.torus import entries_fix_beta, trace_word
    from slittori.words import GenWord

    spec = _stream("mut_action")
    report = verify(spec, 3)
    assert [rec.homology_fixes_beta for rec in report.records] == [False, False, False]
    z, alone = spec.z0, []
    for n in (1, 2, 3):
        z, action = trace_word(z, GenWord.from_digits(spec.block(n).digits))
        alone.append(entries_fix_beta(*action))
    assert alone == [False, True, True]


def test_word_matrix_mismatch_is_noted(quarter_spec, monkeypatch):
    """A word matrix whose first column is not (q_k, p_k) fails the
    holonomy cross-check at every checkpoint, and only that check."""
    from slittori.words import GenWord, IntMat2

    monkeypatch.setattr(GenWord, "matrix", lambda self: IntMat2(1, 0, 0, 1))
    for rec in verify(quarter_spec, 2).records:
        assert rec.notes == ["holonomy/convergent mismatch"]
        assert not rec.endpoint_consistent and not rec.ok
        assert rec.homology_fixes_beta and rec.y_in_bounds and rec.digit_inequality
        assert rec.sigma_bounded and rec.wedge_bounded


@pytest.mark.parametrize("stream, horizon", [("quarter", 10), ("sqrt2", 12)])
def test_trace_work_is_linear_in_horizon(stream, horizon, monkeypatch):
    """verify traces each digit once: one block word per checkpoint, and
    the traced steps sum to the digits a_1 + ... + a_{8H}."""
    from slittori import criterion

    traced = []
    trace = criterion.trace_word

    def counted(z, word):
        traced.append(word)
        return trace(z, word)

    monkeypatch.setattr(criterion, "trace_word", counted)
    spec = _stream(stream)
    assert verify(spec, horizon).overall
    assert [len(word.digits) for word in traced] == [8] * horizon
    assert sum(word.step_count for word in traced) == sum(spec.digits_prefix(8 * horizon))


ORACLE_CASES = [
    ("quarter", 10),
    ("sixth_arith", 16),
    ("sqrt2", 4),
    ("sqrt2", 16),
    ("sqrt2", 40),
    ("sqrt3_d2", 16),
    ("mut_digit", 1),
    ("mut_y", 1),
    ("mut_endpoint", 3),
    ("mut_action", 3),
]


@pytest.mark.parametrize("stream, horizon", ORACLE_CASES)
def test_verify_matches_oracle(stream, horizon):
    """The block-by-block verifier against the reference that re-traces
    the whole prefix at every checkpoint and multiplies the word matrix
    out of generator powers."""
    import oracle_criterion

    spec = _stream(stream)
    expected = oracle_criterion.verify(_stream(stream), horizon).as_json()
    assert verify(spec, horizon).as_json() == expected


def test_lemma_agrees_with_interval_entries():
    """Differential test of the mediant lemma against the interval route it
    replaced: wherever ``masur_structural`` holds, the oracle's interval
    entries certify within [-1, 1] on a 2**-256 enclosure of alpha.  The
    streams are those of ``test_verify_matches_oracle`` and seeded barrier
    streams whose free digits follow a ``list`` rule."""
    import random

    import oracle_criterion

    rng = random.Random(3602)
    cases = [(_stream(name), min(horizon, 16)) for name, horizon in ORACLE_CASES]
    for _ in range(16):
        lam = Fraction(rng.randint(1, 12), rng.randint(25, 60))
        rule = DigitRule("list", tuple(rng.choice((1, 2, 5, rng.randint(1, 400))) for _ in range(40)))
        cases.append((direction_stream(RationalParam.from_barrier_length(lam), rule), 6))
    checked = 0
    for spec, horizon in cases:
        for n in range(1, horizon + 1):
            k = spec.checkpoint_index(n)
            spec.ensure_digits(k + 1)
            conv = spec.convergents(k)
            assert masur_structural(conv, k), (spec.provenance, n)
            alpha = spec.alpha_enclosure(256, min_digits=k + 2)
            entries = oracle_criterion.masur_entries(conv, k, alpha)
            assert all(e.certified_abs_le(1) for e in entries), (spec.provenance, n)
            checked += 1
    assert checked == sum(h for _, h in cases)
