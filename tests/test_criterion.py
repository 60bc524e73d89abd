from fractions import Fraction

import pytest

from slittori.criterion import masur_entries, masur_structural, verify, wedge_threshold
from slittori.directions import DigitRule
from slittori.exact import ExactScalar
from slittori.rational import RationalParam, direction_stream
from slittori.torus import TorusPoint

from conftest import explicit_spec

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
    assert masur_structural(conv, 8, alpha)
    assert all(rec.sigma_bounded for rec in verify(quarter_spec, 2).records)


def test_masur_structural_rejects_odd_k(quarter_spec):
    conv = quarter_spec.convergents(8)
    alpha = quarter_spec.alpha_enclosure(256, min_digits=10)
    assert not masur_structural(conv, 7, alpha)


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
    assert [r.as_dict() for r in r2.records] == [r.as_dict() for r in r4.records[:2]]
    assert r4.overall


def test_report_serialization(quarter_spec):
    d = verify(quarter_spec, 1).as_dict()
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


def _verify_forced_inconclusive(spec, monkeypatch):
    """verify(spec, 1) with every certified comparison inconclusive
    and the structural sigma route closed: the report and the precisions
    alpha_enclosure was asked for, in order."""
    from slittori import criterion
    from slittori.directions import DirectionSpec
    from slittori.intervals import InconclusiveIntervalError, RatInterval

    asked = []
    enclosure = DirectionSpec.alpha_enclosure

    def recording(self, bits=256, min_digits=0):
        asked.append(bits)
        return enclosure(self, bits, min_digits)

    def undecided(self, bound):
        raise InconclusiveIntervalError("forced")

    monkeypatch.setattr(DirectionSpec, "alpha_enclosure", recording)
    monkeypatch.setattr(RatInterval, "certified_le", undecided)
    monkeypatch.setattr(RatInterval, "certified_abs_le", undecided)
    monkeypatch.setattr(criterion, "masur_structural", lambda conv, k, alpha: False)
    return verify(spec, 1), asked


def test_precision_retry_reports_last_precision_tried(quarter_spec, monkeypatch):
    """When every retry is inconclusive the report names the last precision
    tried, 256 doubled three times, not one doubling more."""
    report, asked = _verify_forced_inconclusive(quarter_spec, monkeypatch)
    assert asked == [256, 512, 1024, 2048, 256]  # four sigma tries, one wedge
    assert report.precision_bits == 2048


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


@pytest.mark.parametrize(
    "stream, horizon",
    [
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
    ],
)
def test_verify_matches_oracle(stream, horizon):
    """The block-by-block verifier against the reference that re-traces
    the whole prefix at every checkpoint and multiplies the word matrix
    out of generator powers."""
    import oracle_criterion

    spec = _stream(stream)
    expected = oracle_criterion.verify(_stream(stream), horizon).as_dict()
    assert verify(spec, horizon).as_dict() == expected
