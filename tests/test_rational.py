import json
from fractions import Fraction
from math import gcd

import pytest

import oracle_rational as oracle
import slittori.rational as rational
from slittori.cli import main
from slittori.directions import DigitStreamExhaustedError
from slittori.exact import ExactScalar
from slittori.irrational import DChoiceRule, direction_stream_irrational
from slittori.rational import (
    Block,
    CongruenceError,
    NkRule,
    NkRuleError,
    RationalParam,
    block_for,
    certify_fixing,
    direction_stream,
    fixing_word,
    solve_congruences,
)
from slittori.torus import TorusPoint, trace_word


def barrier(lam) -> RationalParam:
    return RationalParam.from_barrier_length(Fraction(lam))


def all_params(q_max):
    for q in range(2, q_max + 1):
        for s in range(-q + 1, q):
            if s == 0 or gcd(s, q) != 1:
                continue
            for r in range(-q + 1, q):
                yield RationalParam(r, s, q)


def test_param_validation():
    with pytest.raises(ValueError):
        RationalParam(0, 0, 2)
    with pytest.raises(ValueError):
        RationalParam(2, 1, 2)
    with pytest.raises(ValueError):
        RationalParam(0, 2, 4)  # gcd(s, q) != 1
    with pytest.raises(ValueError):
        RationalParam.from_barrier_length(Fraction(1, 2))


def test_from_barrier_length():
    assert barrier("1/4") == RationalParam(0, 1, 2)
    assert barrier("1/6") == RationalParam(0, 1, 3)
    assert barrier("1/3") == RationalParam(0, 2, 3)
    assert barrier("2/5") == RationalParam(0, 4, 5)


def test_congruence_examples():
    assert solve_congruences(RationalParam(0, 1, 2)) == solve_congruences(barrier("1/4"))
    pair = solve_congruences(RationalParam(0, 1, 2))
    assert (pair.a, pair.b, pair.parity_case) == (2, 1, "odd")
    pair = solve_congruences(RationalParam(1, 1, 2))
    assert (pair.a, pair.b) == (1, 2)
    pair = solve_congruences(RationalParam(0, 2, 3))
    assert (pair.a, pair.b, pair.parity_case) == (1, 2, "even")


def test_congruences_match_scan():
    for param in all_params(30):
        assert solve_congruences(param) == oracle.solve_congruences(param), param


def test_congruence_without_solution_fails_closed():
    with pytest.raises(CongruenceError):
        rational._least_solution(2, 1, 6)  # 2a = 1 (mod 6)
    assert rational._least_solution(2, 4, 6) == 2  # least of 2 and 5


def test_r_zero_odd_case_closed_form():
    # barrier case, odd s: the congruences are solved by a = q, b = q - 1
    # for every odd s, so the block is (3q-1, 1, 1, 4q-1, 1, 1, q)
    for q in range(2, 51):
        for p in range(1, q):
            if gcd(p, q) != 1 or p % 2 == 0:
                continue
            pair = solve_congruences(RationalParam(0, p, q))
            assert (pair.a, pair.b) == (q, q - 1)
            block = block_for(RationalParam(0, p, q))
            assert block.digits == (3 * q - 1, 1, 1, 4 * q - 1, 1, 1, q)


def test_block_examples():
    assert block_for(barrier("1/4")).digits == (5, 1, 1, 7, 1, 1, 2)
    assert block_for(barrier("1/6")).digits == (8, 1, 1, 11, 1, 1, 3)
    assert block_for(barrier("1/3")).digits == (7, 1, 3, 8, 1, 3, 1)


def test_even_case_closed_form_r_zero():
    # p even: (2q+a, p-1, p+1, 2q+2a, p-1, p+1, a) with ap = -1 mod q
    for q in range(3, 51, 2):
        for p in range(2, q, 2):
            if gcd(p, q) != 1:
                continue
            a = next(a for a in range(1, q + 1) if (a * p + 1) % q == 0)
            assert block_for(RationalParam(0, p, q)).digits == (
                2 * q + a, p - 1, p + 1, 2 * q + 2 * a, p - 1, p + 1, a
            )


def test_fixing_word_shape():
    w = fixing_word(barrier("1/4"))
    assert w.syllables == (
        ("h+", 5), ("h-", 1), ("h+", 1), ("h-", 7), ("h+", 1), ("h-", 1), ("h+", 2)
    )
    w = fixing_word(barrier("1/3"))
    assert w.digits() == (7, 1, 3, 8, 1, 3, 1)
    assert w.syllables[0][0] == "h+" and w.syllables[-1][0] == "h+"


def test_certify_examples():
    c = certify_fixing(barrier("1/4"))
    assert (c.fixes_point, c.action_is_identity, c.h_minus_period) == (True, True, 1)
    c = certify_fixing(barrier("1/3"))
    assert (c.fixes_point, c.action_is_identity, c.h_minus_period) == (True, True, 1)
    c = certify_fixing(RationalParam(1, 1, 2))
    assert (c.fixes_point, c.action_is_identity, c.h_minus_period) == (True, True, 4)


def test_certify_exhaustive_small_q():
    for param in all_params(12):
        assert certify_fixing(param).ok, param


def test_certificate_matches_oracle():
    for param in all_params(20):
        assert certify_fixing(param) == oracle.certify_fixing(param), param


def test_perturbed_block_fails_both_certificates(monkeypatch):
    for param in (barrier("1/4"), barrier("1/3"), RationalParam(1, 1, 2), RationalParam(-3, 5, 7)):
        good = block_for(param).digits
        for i in range(7):
            digits = good[:i] + (good[i] + 1,) + good[i + 1:]
            monkeypatch.setattr(rational, "block_for", lambda _, d=digits: Block(d))
            new, old = certify_fixing(param), oracle.certify_fixing(param)
            assert not new.ok and new == old, (param, digits)
            monkeypatch.undo()


def test_negative_s_reduction():
    p = RationalParam(1, -1, 3)
    assert p.reduced() == RationalParam(-1, 1, 3)
    assert certify_fixing(p).ok
    # the word certifies at the original point too
    z = p.point()
    tr = trace_word(z, fixing_word(p), record_points=False)
    assert tr.final == z and tr.action.is_identity


def test_first_digit_dominates_height():
    for param in all_params(10):
        red = param.reduced()
        digits = block_for(param).digits
        q, s = red.q, red.s
        assert digits[0] > 2 * q
        # 2q >= 2/(1 - 2 (s/2q)) = 2q/(q - s) whenever s <= q - 1
        assert Fraction(2, 1) / (1 - 2 * Fraction(s, 2 * q)) == Fraction(2 * q, q - s)
        assert Fraction(2 * q, q - s) <= 2 * q
        assert all(d >= 1 for d in digits)


def test_direction_stream_digits():
    spec = direction_stream(barrier("1/4"), NkRule("const", (1,)))
    assert spec.digits_prefix(16) == (5, 1, 1, 7, 1, 1, 2, 1) * 2
    assert spec.z0 == TorusPoint.of(0, Fraction(1, 4))
    assert spec.y_bounds[0] == spec.y_bounds[1] == Fraction(1, 4)
    spec6 = direction_stream(barrier("1/6"), NkRule("arith", (6, 0)))
    assert spec6.digits_prefix(16) == (8, 1, 1, 11, 1, 1, 3, 6, 8, 1, 1, 11, 1, 1, 3, 12)


def test_nk_constraint_for_nonzero_r():
    param = RationalParam(1, 1, 2)  # z = (1/4, 1/4), period 2q = 4
    with pytest.raises(NkRuleError):
        direction_stream(param, NkRule("const", (3,)))
    spec = direction_stream(param, NkRule("const", (4,)))
    assert spec.digits_prefix(8)[-1] == 4
    with pytest.raises(NkRuleError):
        direction_stream(param, NkRule("list", (4, 6)))
    with pytest.raises(NkRuleError):  # n_1 = 4 but n_2 = 5
        direction_stream(param, NkRule("arith", (1, 3)))
    with pytest.raises(NkRuleError):  # the default digit 1
        direction_stream(param, NkRule())


def test_nk_list_exhaustion():
    spec = direction_stream(barrier("1/4"), NkRule("list", (1, 2)))
    assert spec.digits_prefix(16)[-1] == 2
    with pytest.raises(DigitStreamExhaustedError):
        spec.digits_prefix(24)


def test_d_choice_list_exhaustion(capsys):
    spec = direction_stream_irrational(ExactScalar(0, 1, 4, 2), DChoiceRule("list", (1, 2)))
    assert len(spec.digits_prefix(16)) == 16
    with pytest.raises(DigitStreamExhaustedError):
        spec.digits_prefix(24)
    code = main(["build", "--lambda", "0:1:4:2", "--d-choices", "list:1,2", "--blocks", "3"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert "DigitStreamExhaustedError" in json.loads(out.err)["error"]


def test_nk_rule_validation():
    with pytest.raises(ValueError):
        NkRule("const", (0,))
    with pytest.raises(ValueError):
        NkRule("arith", (0, 0))
    with pytest.raises(ValueError):
        NkRule("nope", (1,))


def test_checkpoints_return_to_start():
    spec = direction_stream(barrier("1/4"), NkRule("const", (1,)))
    for n in (1, 2, 3):
        assert spec.checkpoint_point(n) == spec.z0


def test_fixing_word_matrix_sanity():
    # the fixing word's matrix maps the surface point back to itself mod 1
    w = fixing_word(barrier("1/4"))
    m = w.matrix()
    assert m.entries() == (177, 448, 32, 81) and m.det() == 1
    x, y = m.apply(Fraction(0), Fraction(1, 4))
    assert (x, y) == (112, Fraction(81, 4))
    assert (x - 0) % 1 == 0 and (y - Fraction(1, 4)) % 1 == 0
