import random
from fractions import Fraction
from math import isqrt

import pytest

import oracle_torus as oracle
from oracle_torus import in_region_S
from slittori import irrational
from slittori.criterion import verify
from slittori.directions import DigitRule
from slittori.exact import ExactScalar, FieldMismatchError, mod_half_open
from slittori.irrational import (
    DerivationError,
    SearchBudgetExceededError,
    direction_stream_irrational,
    find_block,
)
from slittori.torus import TorusPoint, entries_fix_beta, trace_word
from slittori.words import H_PLUS, GenWord, IntMat2

SQRT2_OVER_4 = ExactScalar(0, 1, 4, 2)
J = (Fraction(1, 6), Fraction(1, 3))
LAMBDAS = (SQRT2_OVER_4, ExactScalar(0, 1, 4, 3), ExactScalar(-1, 1, 3, 5))
SEARCH_CAP = 3000  # steps per search in the differential window test


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
        final, action = trace_word(z, GenWord.from_digits(blk.digits))
        assert final == blk.endpoint
        assert J[0] <= final.y <= J[1]
        assert entries_fix_beta(*action)
        z = blk.endpoint


def test_block_region_crosschecks():
    # the traced orbit must visit the regions the window search promises:
    # the a and b runs end inside their windows, after the first long shear
    # run the next four single steps alternate outside/inside S, and every
    # traced coordinate is irrational
    z = TorusPoint(ExactScalar(0), SQRT2_OVER_4)
    blk = find_block(z)
    a, b = blk.a, blk.b
    _, pts, _ = oracle.trace_word(z, GenWord.from_digits(blk.digits))
    z1, z2, z3 = pts[a - 1], pts[a], pts[a + 1]
    z4, z5, z6 = pts[a + 1 + b], pts[a + 2 + b], pts[a + 3 + b]
    half = ExactScalar(1, 0, 2)
    assert 0 < z1.x + half < min(z.y, half - z.y) / 2  # eps1 inside its window
    assert 0 < half - z4.y < min(-z3.x, half + z3.x) / 2  # eps2 inside its window
    assert not in_region_S(z2)
    assert in_region_S(z3)
    assert z3.x.sign() < 0
    assert not in_region_S(z5)
    assert in_region_S(z6)
    for p in pts:
        assert not p.x.is_rational and not p.y.is_rational


def test_d_choice_produces_distinct_streams():
    s1 = direction_stream_irrational(SQRT2_OVER_4)
    s2 = direction_stream_irrational(SQRT2_OVER_4, DigitRule("const", (2,)))
    d1, d2 = s1.digits_prefix(8), s2.digits_prefix(8)
    assert d1[:7] == d2[:7]
    assert d1[7] != d2[7]
    s3 = direction_stream_irrational(SQRT2_OVER_4, DigitRule("list", (1, 2)))
    assert s3.digits_prefix(8) == d1
    assert s3.digits_prefix(16) != s1.digits_prefix(16)


def _forge_certificates(monkeypatch, forge):
    """Pass every trace of find_block's certificate, (xu, xv, yu, yv, a, b,
    c, d) on the search's lattice (Z + Z sqrt(D))/W, through ``forge(W, D,
    x, y, a, b, c, d)`` with x = (xu, xv) and y = (yu, yv); returns the
    list of traced digit tuples."""
    traced = []
    trace = irrational._trace_lattice

    def forged(W, D, xu, xv, yu, yv, leading, exponents):
        traced.append(tuple(exponents))
        xu, xv, yu, yv, *action = trace(W, D, xu, xv, yu, yv, leading, exponents)
        (xu, xv), (yu, yv), *action = forge(W, D, (xu, xv), (yu, yv), *action)
        return xu, xv, yu, yv, *action

    monkeypatch.setattr(irrational, "_trace_lattice", forged)
    return traced


def _fail_certificates(monkeypatch):
    """Make every trace certificate of find_block fail, by giving its trace
    an action that does not fix beta; returns the list of traced digits."""
    return _forge_certificates(monkeypatch, lambda W, D, x, y, *action: (x, y, *H_PLUS.entries()))


def test_failed_certificate_fails_closed(monkeypatch):
    # one certificate per block: a failed one names the block's digits, and
    # neither the next d nor the next a is tried
    z = TorusPoint(ExactScalar(0), SQRT2_OVER_4)
    words = _fail_certificates(monkeypatch)
    with pytest.raises(
        DerivationError, match=r"^block \(7, 1, 1, 12, 1, 1, 3, 2\) fails its trace certificate$"
    ):
        find_block(z)
    assert words == [(7, 1, 1, 12, 1, 1, 3, 2)]
    with pytest.raises(DerivationError, match=r"^block \(7, 1, 1, 12, 1, 1, 3, 4\) "):
        find_block(z, d_index=2)
    assert len(words) == 2


def _toward_middle_of_J(W, D, c):
    """The height c moved by 1/W toward 1/4; a height in J stays there."""
    u, v = c
    moved = (u - 1, v) if ExactScalar(u, v, W, D) >= Fraction(1, 4) else (u + 1, v)
    assert J[0] <= ExactScalar(*moved, W, D) <= J[1]
    return moved


@pytest.mark.parametrize("forge", [
    lambda W, D, x, y, *action: (x, _toward_middle_of_J(W, D, y), *action),
    lambda W, D, x, y, *action: ((x[0] + 1, x[1]), y, *action),
], ids=["height", "x"])
def test_certificate_compares_the_traced_end_point(monkeypatch, forge):
    """A traced end point 1/W off the searched one, in either coordinate,
    fails the certificate, even with the height still in J."""
    z = TorusPoint(ExactScalar(0), SQRT2_OVER_4)
    _forge_certificates(monkeypatch, forge)
    with pytest.raises(DerivationError, match="fails its trace certificate"):
        find_block(z)


def test_certificate_builds_no_word_or_matrix(monkeypatch):
    """find_block certifies on the search's lattice integers alone: with
    the constructors of GenWord and IntMat2 and torus.trace_word made to
    raise, every block comes back the same."""
    from slittori import torus

    starts = [TorusPoint(ExactScalar(0), lam) for lam in LAMBDAS]
    want = [find_block(z, d_index) for z in starts for d_index in (1, 2)]

    def refuse(*args, **kwargs):
        raise AssertionError("word, matrix or trace_word used by find_block")

    for cls in (GenWord, IntMat2):
        monkeypatch.setattr(cls, "__init__", refuse)
    monkeypatch.setattr(torus, "trace_word", refuse)
    assert [find_block(z, d_index) for z in starts for d_index in (1, 2)] == want


@pytest.mark.parametrize("budget", [True, 1000.0, "1000", None])
def test_stream_budget_must_be_an_int(budget):
    """A bool budget used to write a JSON true that the spec loader
    refuses; it raises TypeError like any other non-int."""
    with pytest.raises(TypeError, match="^budget must be an int, got "):
        direction_stream_irrational(SQRT2_OVER_4, budget=budget)


@pytest.mark.parametrize("budget", [0, -5])
def test_stream_budget_must_be_positive(budget):
    with pytest.raises(ValueError, match="^budget must be positive"):
        direction_stream_irrational(SQRT2_OVER_4, budget=budget)


def test_budget_exhaustion():
    with pytest.raises(SearchBudgetExceededError):
        find_block(TorusPoint(ExactScalar(0), SQRT2_OVER_4), budget=5)


def test_other_quadratic_fields():
    for lam in (ExactScalar(0, 1, 4, 3), ExactScalar(-1, 1, 3, 5), ExactScalar(1, 1, 8, 2)):
        assert ExactScalar(0) < lam < ExactScalar(1, 0, 2)
        spec = direction_stream_irrational(lam)
        blk = spec.block(1)
        final, action = trace_word(spec.z0, GenWord.from_digits(blk.digits))
        assert entries_fix_beta(*action) and J[0] <= final.y <= J[1]


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


def _starts(rng, per_lambda=2):
    """For each lambda of LAMBDAS: (0, lambda) and ``per_lambda`` seeded
    starts (x, lambda) with x in the lambda's field."""
    starts = []
    for lam in LAMBDAS:
        starts.append(TorusPoint(ExactScalar(0), lam))
        for _ in range(per_lambda):
            w = rng.randint(2, 30)
            x = ExactScalar(rng.randint(-w, w), rng.randint(1, w), w, lam.D)
            starts.append(TorusPoint.of(x, lam))
    return starts


def _spy_searches(monkeypatch, starts):
    """Run find_block from each start with a spy on ``irrational._search``;
    per block, its four searches as (lat, moving, fixed, left, hit, found)."""
    calls = []
    search = irrational._search

    def spy(lat, moving, fixed, left, hit, nth=1):
        found = search(lat, moving, fixed, left, hit, nth)
        calls.append((lat, moving, fixed, left, hit, found))
        return found

    with monkeypatch.context() as patch:
        patch.setattr(irrational, "_search", spy)
        for z in starts:
            find_block(z)
    assert len(calls) == 4 * len(starts)
    return [calls[i:i + 4] for i in range(0, len(calls), 4)]


def _landing(lat, fixed, point, k):
    """The start whose k-th step against ``fixed`` lands on ``point``."""
    return lat.embed(mod_half_open(lat.scalar(point) + lat.scalar(fixed) * k))


def _search_hits(lat, moving, fixed, hit, with_m, left=SEARCH_CAP, n=3):
    """The first n hits of ``_search``, each with the budget spent to reach
    it, which is its step j, in the form of ``_first`` on the oracle."""
    out = []
    for nth in range(1, n + 1):
        try:
            j, m, c = irrational._search(lat, moving, fixed, left, hit, nth)
        except SearchBudgetExceededError:
            return out + [("exhausted", left + 1)]
        out.append(((j, m, lat.scalar(c)) if with_m else (j, lat.scalar(c)), j))
    return out


def _window_ends(lat, ends):
    """The coordinates of those ``ends`` that lie on the lattice; a window
    end off it is met by no orbit point."""
    coords = []
    for end in ends:
        try:
            coords.append(lat.embed(end))
        except ValueError:
            continue
    return coords


def test_window_searches_match_oracle(monkeypatch):
    # every search of find_block is re-run with its own window test, from
    # its own start and from starts whose k-th step lands on its hit (a, b),
    # on an end of its window that lies on the lattice (a, b) or on either
    # end of J (d); each must give the first three candidates of the
    # oracle's search and the budget spent on each.  The height
    # (sqrt(3) - 1)/3, with an odd denominator, puts the far ends of the a
    # and b windows of its block on the lattice
    rng = random.Random(53)
    budget = irrational.DEFAULT_BUDGET
    half = ExactScalar(1, 0, 2)
    odd_height = TorusPoint(ExactScalar(0), ExactScalar(-1, 1, 3, 3))
    for block in _spy_searches(monkeypatch, _starts(rng) + [odd_height]):
        (a, a_prime, x1), (b, b_prime, y4), (c, _, _), _ = (call[-1] for call in block)
        lat = block[0][0]
        assert [call[3] for call in block] == [
            budget, budget - a, budget - a - b, budget - a - b - c
        ]
        y, x3 = lat.scalar(block[0][2]), -lat.scalar(block[1][2])
        a_ends = _window_ends(lat, [-half, min(y, half - y) * half - half])
        b_ends = _window_ends(lat, [half - min(x3, half - x3) * half])
        searches = [
            # (oracle search from (moving, fixed), whether it reports m, landing points)
            (lambda mv, fx, bud: oracle.a_candidates(TorusPoint(mv, fx), 6, bud), True,
             [x1, *a_ends]),
            (lambda mv, fx, bud: oracle.b_candidates(TorusPoint(fx, mv), a_prime, bud),
             True, [y4, *b_ends]),
            (lambda mv, fx, bud: oracle.c_candidates(TorusPoint(mv, fx), b_prime - a_prime, bud),
             False, []),
            (lambda mv, fx, bud: oracle.d_candidates(TorusPoint(fx, mv), J, bud),
             False, [lat.embed(ExactScalar.from_fraction(j)) for j in J]),
        ]
        for (_, moving, fixed, _, hit, _), (old, with_m, points) in zip(block, searches):
            starts = [moving] + [
                _landing(lat, fixed, p, k) for p in points for k in range(1, 13)
            ]
            for start in starts:
                got = _search_hits(lat, start, fixed, hit, with_m)
                old_budget = oracle.Budget(SEARCH_CAP)
                mv, fx = lat.scalar(start), lat.scalar(fixed)
                assert got == _first(old(mv, fx, old_budget), old_budget)


def test_budget_is_the_digit_sum():
    # one unit per search step, up to the step each search returns, and the
    # four single steps are free: a block needs exactly a + b + c + d
    for z in _starts(random.Random(71)):
        for d_index in (1, 2, 3):
            blk = find_block(z, d_index)
            spent = blk.a + blk.b + blk.c + blk.d
            assert find_block(z, d_index, budget=spent) == blk
            with pytest.raises(
                SearchBudgetExceededError,
                match=f"^budget of {spent - 1} generator applications exhausted$",
            ):
                find_block(z, d_index, budget=spent - 1)


def test_budget_boundary_matches_oracle():
    for lam in LAMBDAS:
        z = TorusPoint(ExactScalar(0), lam)
        for d_index in (1, 2):
            digits, z_out, _, _, used = oracle.find_block(z, d_index=d_index)
            blk = find_block(z, d_index=d_index, budget=used)
            assert (blk.a, blk.b, blk.c, blk.d) == digits
            assert blk.z_out == z_out
            with pytest.raises(SearchBudgetExceededError):
                find_block(z, d_index=d_index, budget=used - 1)


def test_mixed_fields_fail_closed_in_search():
    z = TorusPoint(ExactScalar(0, 1, 8, 3), SQRT2_OVER_4)
    with pytest.raises(FieldMismatchError):
        find_block(z)


def _sweep_lambdas():
    """Every lambda = (u + v sqrt(D))/w in (0, 1/2) with D in {2, 3, 5, 6, 7,
    10, 11, 13}, w <= 12 and 1 <= |v| <= 2, each once, in a fixed order."""
    zero, half = ExactScalar(0), ExactScalar(1, 0, 2)
    found = set()
    for D in (2, 3, 5, 6, 7, 10, 11, 13):
        for w in range(1, 13):
            for v in (-2, -1, 1, 2):
                root = isqrt(v * v * D)  # |v| sqrt(D) lies in (root, root + 1)
                for u in range(-root - 1, w + root + 2):
                    lam = ExactScalar(u, v, w, D)
                    if zero < lam < half:
                        found.add(lam.as_tuple())
    return sorted(found)


def test_builder_sweep_slice_verifies_or_exhausts_budget():
    """A seeded slice of the builder sweep: three blocks at budget 20,000
    and verify at horizon 3 either verify every hypothesis or run out of
    budget; no lambda raises anything else or fails a check."""
    lambdas = _sweep_lambdas()
    assert len(lambdas) > 1000
    outcomes = set()
    for u, v, w, D in random.Random(26).sample(lambdas, 60):
        lam = ExactScalar(u, v, w, D)
        try:
            spec = direction_stream_irrational(lam, budget=20_000)
            spec.block(3)
            overall = verify(spec, 3).overall  # it reads the first digit of block 4
        except SearchBudgetExceededError:
            outcomes.add("budget")
            continue
        assert overall, lam
        outcomes.add("verified")
    assert outcomes == {"verified", "budget"}
