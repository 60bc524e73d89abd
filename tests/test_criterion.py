from fractions import Fraction

import pytest

from slittori.criterion import masur_entries, masur_structural, verify, wedge_threshold
from slittori.exact import ExactScalar
from slittori.rational import NkRule, RationalParam, direction_stream
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
    spec = direction_stream(RationalParam(0, 2, 5), NkRule("const", (1,)))
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
    starting precision.  (verify is the one check; the name is kept from
    the standalone helpers it replaced.)

    With ``inconclusive`` every certified interval comparison raises, as a
    too-wide enclosure would, so the decision falls to verify's structural
    and implied routes, which must still bound both.
    """
    from slittori.intervals import InconclusiveIntervalError, RatInterval
    from slittori.irrational import direction_stream_irrational

    def make():
        if stream == "quarter":
            return direction_stream(
                RationalParam.from_barrier_length(Fraction(1, 4)), NkRule("const", (1,))
            )
        if stream == "sixth_arith":
            return direction_stream(
                RationalParam.from_barrier_length(Fraction(1, 6)), NkRule("arith", (2, 1))
            )
        return direction_stream_irrational(ExactScalar(0, 1, 4, 2))

    if inconclusive:
        def undecided(self, bound):
            raise InconclusiveIntervalError("forced")

        monkeypatch.setattr(RatInterval, "certified_le", undecided)
        monkeypatch.setattr(RatInterval, "certified_abs_le", undecided)
    report = verify(make(), 3, precision_bits=bits)
    for rec in report.records:
        if inconclusive:
            assert (rec.sigma_route, rec.wedge_route) == ("structural", "implied")
        assert rec.sigma_bounded and rec.wedge_bounded
