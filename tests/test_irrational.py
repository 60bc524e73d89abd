import random
from fractions import Fraction

import pytest

import oracle_torus as oracle
from oracle_torus import in_region_S
from slittori import irrational
from slittori.exact import ExactScalar, FieldMismatchError
from slittori.irrational import (
    DChoiceRule,
    DerivationError,
    SearchBudgetExceededError,
    _a_candidates,
    _b_candidates,
    _Budget,
    _c_candidates,
    _d_candidates,
    direction_stream_irrational,
    find_block,
)
from slittori.torus import ActionTrace, HomologyAction, Lattice, TorusPoint, trace_word
from slittori.words import H_PLUS, GenWord

SQRT2_OVER_4 = ExactScalar(0, 1, 4, 2)
J = (Fraction(1, 6), Fraction(1, 3))
LAMBDAS = (SQRT2_OVER_4, ExactScalar(0, 1, 4, 3), ExactScalar(-1, 1, 3, 5))


def test_rational_lambda_rejected():
    with pytest.raises(ValueError):
        direction_stream_irrational(ExactScalar(1, 0, 4))
    with pytest.raises(ValueError):
        direction_stream_irrational(ExactScalar(3, 1, 1, 2))  # 3+sqrt(2) > 1/2


def test_golden_blocks_sqrt2_over_4():
    # frozen after the first run; the trace certificate is the oracle
    spec = direction_stream_irrational(SQRT2_OVER_4)
    assert spec.block(1).digits == (7, 1, 1, 12, 1, 1, 3, 2)
    assert spec.block(2).digits == (9, 1, 1, 14, 1, 1, 7, 3)
    assert spec.block(3).digits == (15, 1, 1, 19, 1, 1, 4, 3)


def test_block_certificates():
    spec = direction_stream_irrational(SQRT2_OVER_4)
    z = spec.z0
    for n in (1, 2, 3):
        blk = spec.block(n)
        assert blk.digits[0] >= 6
        assert blk.digits[1:3] == (1, 1) and blk.digits[4:6] == (1, 1)
        tr = trace_word(z, GenWord.from_digits(blk.digits))
        assert tr.final == blk.endpoint
        assert J[0] <= tr.final.y <= J[1]
        assert tr.action.fixes_beta
        z = blk.endpoint


def test_block_region_crosschecks():
    # the traced orbit must visit the regions the window search promises:
    # after the first long shear run the next four single steps alternate
    # outside/inside S, and every traced coordinate is irrational
    z = TorusPoint(ExactScalar(0), SQRT2_OVER_4)
    blk = find_block(z)
    a, b = blk.a, blk.b
    _, pts, _ = oracle.trace_word(z, GenWord.from_digits(blk.digits))
    z2, z3 = pts[a], pts[a + 1]
    z5, z6 = pts[a + 2 + b], pts[a + 3 + b]
    assert not in_region_S(z2)
    assert in_region_S(z3)
    assert z3.x.sign() < 0
    assert not in_region_S(z5)
    assert in_region_S(z6)
    for p in pts:
        assert not p.x.is_rational and not p.y.is_rational
    assert 0 < blk.eps1 < (1 - 2 * SQRT2_OVER_4) / 2 + SQRT2_OVER_4 / 2  # inside window
    assert blk.eps2.sign() > 0


def test_d_choice_produces_distinct_streams():
    s1 = direction_stream_irrational(SQRT2_OVER_4)
    s2 = direction_stream_irrational(SQRT2_OVER_4, DChoiceRule("const", (2,)))
    d1, d2 = s1.digits_prefix(8), s2.digits_prefix(8)
    assert d1[:7] == d2[:7]
    assert d1[7] != d2[7]
    s3 = direction_stream_irrational(SQRT2_OVER_4, DChoiceRule("list", (1, 2)))
    assert s3.digits_prefix(8) == d1
    assert s3.digits_prefix(16) != s1.digits_prefix(16)


def _fail_certificates(monkeypatch):
    """Make every trace certificate of find_block fail, by giving its trace
    an action that does not fix beta; returns the list of traced words."""
    words = []

    def trace(z, word):
        words.append(word)
        return ActionTrace(trace_word(z, word).final, HomologyAction(H_PLUS))

    monkeypatch.setattr(irrational, "trace_word", trace)
    return words


def test_failed_certificate_fails_closed(monkeypatch):
    # one certificate per block: a failed one names the block's digits, and
    # neither the next d nor the next a is tried
    z = TorusPoint(ExactScalar(0), SQRT2_OVER_4)
    words = _fail_certificates(monkeypatch)
    with pytest.raises(
        DerivationError, match=r"^block \(7, 1, 1, 12, 1, 1, 3, 2\) fails its trace certificate$"
    ):
        find_block(z)
    assert len(words) == 1
    with pytest.raises(DerivationError, match=r"^block \(7, 1, 1, 12, 1, 1, 3, 4\) "):
        find_block(z, d_index=2)
    assert len(words) == 2


def test_budget_exhaustion():
    with pytest.raises(SearchBudgetExceededError):
        find_block(TorusPoint(ExactScalar(0), SQRT2_OVER_4), budget=5)


def test_other_quadratic_fields():
    for lam in (ExactScalar(0, 1, 4, 3), ExactScalar(-1, 1, 3, 5), ExactScalar(1, 1, 8, 2)):
        assert ExactScalar(0) < lam < ExactScalar(1, 0, 2)
        spec = direction_stream_irrational(lam)
        blk = spec.block(1)
        tr = trace_word(spec.z0, GenWord.from_digits(blk.digits))
        assert tr.action.fixes_beta and J[0] <= tr.final.y <= J[1]


def test_chained_blocks_heights_stay_in_J():
    spec = direction_stream_irrational(SQRT2_OVER_4)
    for n in (1, 2, 3, 4):
        y = spec.block(n).endpoint.y
        assert J[0] <= y <= J[1]
        # digit inequality a_{n+1} >= 6 >= 2/(1-2y_n) since y_n <= 1/3
        assert (ExactScalar(1) - 2 * y) * 6 >= 2


def _first(candidates, budget, n=3):
    """The first n candidates, each with the budget spent to reach it."""
    out = []
    try:
        for item in candidates:
            out.append((item, budget.used))
            if len(out) == n:
                break
    except SearchBudgetExceededError:
        out.append(("exhausted", budget.used))
    return out


def test_window_searches_match_oracle():
    rng = random.Random(53)
    for lam in LAMBDAS:
        D = lam.D
        for trial in range(3):
            if trial == 0:
                z = TorusPoint(ExactScalar(0), lam)
            else:
                w = rng.randint(2, 30)
                z = TorusPoint.of(ExactScalar(rng.randint(-w, w), rng.randint(1, w), w, D), lam)
            x, y = z.x, z.y
            J_exact = tuple(ExactScalar.from_fraction(j) for j in J)
            lat = Lattice(x, y, *J_exact)
            ex, ey = lat.embed(x), lat.embed(y)
            lat_J = tuple(lat.embed(j) for j in J_exact)

            def scalars(items):
                return [
                    (item if item == "exhausted" else item[:-1] + (lat.scalar(item[-1]),), used)
                    for item, used in items
                ]

            searches = [
                (lambda b: _a_candidates(lat, ex, ey, b),
                 lambda b: oracle.a_candidates(z, 6, b)),
                (lambda b: _b_candidates(lat, ex, ey, 1, b),
                 lambda b: oracle.b_candidates(z, 1, b)),
                (lambda b: _c_candidates(lat, ex, ey, 2, b),
                 lambda b: oracle.c_candidates(z, 2, b)),
                (lambda b: _d_candidates(lat, ex, ey, lat_J, b),
                 lambda b: oracle.d_candidates(z, J, b)),
            ]
            for new, old in searches:
                new_budget, old_budget = _Budget(3000), _Budget(3000)
                got = scalars(_first(new(new_budget), new_budget))
                assert got == _first(old(old_budget), old_budget)


def test_budget_boundary_matches_oracle():
    for lam in LAMBDAS:
        z = TorusPoint(ExactScalar(0), lam)
        for d_index in (1, 2):
            digits, z_out, eps1, eps2, used = oracle.find_block(z, d_index=d_index)
            blk = find_block(z, d_index=d_index, budget=used)
            assert (blk.a, blk.b, blk.c, blk.d) == digits
            assert (blk.z_out, blk.eps1, blk.eps2) == (z_out, eps1, eps2)
            with pytest.raises(SearchBudgetExceededError):
                find_block(z, d_index=d_index, budget=used - 1)


def test_mixed_fields_fail_closed_in_search():
    z = TorusPoint(ExactScalar(0, 1, 8, 3), SQRT2_OVER_4)
    with pytest.raises(FieldMismatchError):
        find_block(z)
