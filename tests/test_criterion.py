from fractions import Fraction

import pytest

from slittori.criterion import masur_structural, verify, wedge_threshold
from slittori.directions import DigitRule
from slittori.exact import ExactScalar
from slittori.rational import RationalParam, direction_stream
from slittori.torus import TorusPoint
from slittori.words import Convergents

from conftest import explicit_spec
from oracle_criterion import masur_entries

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
    assert verify(quarter_spec, 1).records[0].wedge_bounded
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
    """verify bounds sigma and the wedge at every checkpoint, at any
    starting precision ``criterion.PRECISION_BITS``.  (verify is the one
    check; the name is kept from the standalone helpers it replaced.)

    With ``inconclusive`` every certified interval comparison raises, as a
    too-wide enclosure would, so the decision falls to verify's structural
    and implied routes, which must still bound both.
    """
    from slittori import criterion
    from slittori.intervals import InconclusiveIntervalError, RatInterval
    from slittori.irrational import direction_stream_irrational

    def make():
        if stream == "quarter":
            return direction_stream(
                RationalParam.from_barrier_length(Fraction(1, 4)), DigitRule("const", (1,))
            )
        if stream == "sixth_arith":
            return direction_stream(
                RationalParam.from_barrier_length(Fraction(1, 6)), DigitRule("arith", (2, 1))
            )
        return direction_stream_irrational(ExactScalar(0, 1, 4, 2))

    if inconclusive:
        def undecided(self, bound):
            raise InconclusiveIntervalError("forced")

        monkeypatch.setattr(RatInterval, "certified_le", undecided)
        monkeypatch.setattr(RatInterval, "certified_abs_le", undecided)
    monkeypatch.setattr(criterion, "PRECISION_BITS", bits)
    report = verify(make(), 3)
    for rec in report.records:
        if inconclusive:
            assert (rec.sigma_route, rec.wedge_route) == ("structural", "implied")
        assert rec.sigma_bounded and rec.wedge_bounded


@pytest.mark.parametrize("stream", ["quarter", "sixth_arith", "sqrt2"])
def test_verdicts_do_not_depend_on_starting_precision(stream, monkeypatch):
    """Every per-record boolean is the same at starting precisions 1, 64,
    256 and 1024: the precision only decides how many doublings a
    comparison takes, which is why it is a constant and not an option."""
    from slittori import criterion

    verdicts = set()
    for bits in (1, 64, 256, 1024):
        monkeypatch.setattr(criterion, "PRECISION_BITS", bits)
        report = verify(_stream(stream), 3)
        verdicts.add(tuple(
            (r.endpoint_consistent, r.homology_fixes_beta, r.y_in_bounds,
             r.digit_inequality, r.sigma_bounded, r.wedge_bounded, r.ok)
            for r in report.records
        ))
    assert len(verdicts) == 1
    (records,) = verdicts
    assert len(records) == 3 and all(ok for *_, ok in records)


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
    """With every wedge comparison inconclusive and the digit inequality
    failing, so that the implied route is closed, the wedge check doubles
    the precision three times and the report names the last precision
    tried, not one doubling more."""
    from slittori.intervals import InconclusiveIntervalError, RatInterval

    def undecided(self, bound):
        raise InconclusiveIntervalError("forced")

    spec = _stream("mut_digit")
    asked = _recording_enclosures(monkeypatch)
    monkeypatch.setattr(RatInterval, "certified_le", undecided)
    report = verify(spec, 1)
    rec = report.records[0]
    assert asked == [256, 512, 1024, 2048]
    assert report.precision_bits == 2048
    assert not rec.digit_inequality and not rec.wedge_bounded
    assert (rec.wedge_route, rec.wedge_ratio) == ("inconclusive", None)
    assert rec.notes == ["wedge inconclusive: forced"]
    assert rec.sigma_bounded and rec.sigma_route == "structural"


@pytest.mark.parametrize("stream, horizon", [("quarter", 6), ("sqrt2", 4)])
def test_one_enclosure_per_checkpoint(stream, horizon, monkeypatch):
    """The sigma check reads no enclosure, so where the wedge decides at
    the starting precision verify asks for one enclosure per checkpoint."""
    spec = _stream(stream)
    asked = _recording_enclosures(monkeypatch)
    report = verify(spec, horizon)
    assert report.overall and report.precision_bits == 256
    assert asked == [256] * horizon


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
