import json
import random
import re
from fractions import Fraction
from math import gcd

import pytest

import oracle_rational as oracle
import oracle_torus
import slittori.rational as rational
from slittori.cli import main
from slittori.directions import DigitRule, DigitStreamExhaustedError
from slittori.exact import ExactScalar
from slittori.irrational import direction_stream_irrational
from slittori.rational import (
    CongruenceError,
    NkRuleError,
    RationalParam,
    block_for,
    certify_fixing,
    direction_stream,
    fixing_word,
    solve_congruences,
)
from slittori.torus import TorusPoint, entries_are_identity, trace_word
from slittori.words import GenWord


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


@pytest.mark.parametrize("field, args", [
    ("r", (0.5, 1, 2)),
    ("r", (Fraction(0), 1, 3)),
    ("s", (0, 1.0, 3)),
    ("s", (0, Fraction(1), 3)),
    ("q", (0, 1, 3.0)),
    ("q", (0, 1, "3")),
    ("r", (True, 1, 3)),
    ("s", (0, True, 3)),
    ("q", (0, 1, True)),
])
def test_param_fields_must_be_ints(field, args):
    """A float, Fraction, str or bool field raises TypeError naming the
    field: a float r used to reach the congruences, and a Fraction r
    certified and then broke the stream's JSON provenance, as a bool r
    did by writing a JSON true that the spec loader refuses."""
    with pytest.raises(TypeError, match=f"^{field} must be an int, got "):
        RationalParam(*args)


def test_from_barrier_length():
    assert barrier("1/4") == RationalParam(0, 1, 2)
    assert barrier("1/6") == RationalParam(0, 1, 3)
    assert barrier("1/3") == RationalParam(0, 2, 3)
    assert barrier("2/5") == RationalParam(0, 4, 5)


def test_congruence_examples():
    assert solve_congruences(RationalParam(0, 1, 2)) == solve_congruences(barrier("1/4"))
    assert solve_congruences(RationalParam(0, 1, 2)) == (2, 1, None)
    assert solve_congruences(RationalParam(1, 1, 2)) == (1, 2, None)
    assert solve_congruences(RationalParam(0, 2, 3)) == (1, 2, 1)


def test_congruences_match_scan():
    for param in all_params(30):
        assert solve_congruences(param) == oracle.solve_congruences(param), param


def test_congruences_build_no_second_param(monkeypatch):
    """solve_congruences normalises s < 0 on the integers: with the
    RationalParam constructor made to raise, it still equals the oracle's
    scan on every parameter with q <= 12, those with s < 0 included."""
    params = list(all_params(12))
    assert any(p.s < 0 for p in params)
    expected = [oracle.solve_congruences(param) for param in params]

    def refuse(self, *args, **kwargs):
        raise AssertionError("RationalParam built while solving")

    monkeypatch.setattr(RationalParam, "__init__", refuse)
    for param, want in zip(params, expected):
        assert solve_congruences(param) == want, param


def forged_param(r, s, q) -> RationalParam:
    """A parameter that skips the validation, to reach a congruence that
    no valid one has."""
    param = object.__new__(RationalParam)
    for setter, value in zip(RationalParam._setters, (r, s, q)):
        setter(param, value)
    return param


def test_congruence_without_solution_fails_closed():
    # s not coprime to q; the error names the first congruence that fails
    for param, text in (
        (forged_param(0, 2, 2), "2 a = 1 (mod 4)"),  # even, both right-hand sides 1
        (forged_param(1, 3, 3), "3 a = -4 (mod 6)"),  # odd, -4 and 1: both fail
        (forged_param(2, 6, 3), "6 a = 4 (mod 6)"),  # even, 0 and 4: only the second fails
        (forged_param(-2, 6, 3), "6 a = 4 (mod 6)"),  # even, 4 and 0: only the first fails
    ):
        with pytest.raises(CongruenceError, match=f"^{re.escape(text)} has no solution$"):
            solve_congruences(param)
    # 2a = 0 and 2a = 4 (mod 6): the least of 3 and 6, and of 2 and 5
    assert solve_congruences(RationalParam(2, 2, 3)) == (3, 2, 2)


def test_r_zero_odd_case_closed_form():
    # barrier case, odd s: the congruences are solved by a = q, b = q - 1
    # for every odd s, so the block is (3q-1, 1, 1, 4q-1, 1, 1, q)
    for q in range(2, 51):
        for p in range(1, q):
            if gcd(p, q) != 1 or p % 2 == 0:
                continue
            assert solve_congruences(RationalParam(0, p, q)) == (q, q - 1, None)
            assert block_for(RationalParam(0, p, q)) == (3 * q - 1, 1, 1, 4 * q - 1, 1, 1, q)


def test_block_examples():
    assert block_for(barrier("1/4")) == (5, 1, 1, 7, 1, 1, 2)
    assert block_for(barrier("1/6")) == (8, 1, 1, 11, 1, 1, 3)
    assert block_for(barrier("1/3")) == (7, 1, 3, 8, 1, 3, 1)


def test_even_case_closed_form_r_zero():
    # p even: (2q+a, p-1, p+1, 2q+2a, p-1, p+1, a) with ap = -1 mod q
    for q in range(3, 51, 2):
        for p in range(2, q, 2):
            if gcd(p, q) != 1:
                continue
            a = next(a for a in range(1, q + 1) if (a * p + 1) % q == 0)
            assert block_for(RationalParam(0, p, q)) == (
                2 * q + a, p - 1, p + 1, 2 * q + 2 * a, p - 1, p + 1, a
            )


def test_fixing_word_shape():
    w = fixing_word(barrier("1/4"))
    assert (w.leading, w.digits) == ("h+", (5, 1, 1, 7, 1, 1, 2))
    w = fixing_word(barrier("1/3"))
    assert w.digits == (7, 1, 3, 8, 1, 3, 1)
    assert w.leading == "h+" and len(w.digits) % 2 == 1  # ends on h+


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


def sampled_params(q_min, q_max, per_q, rng):
    """``per_q`` seeded parameters for each q in [q_min, q_max]: r = 0 with
    s > 0, r = 0 with s < 0, and the rest with r != 0 and s of either sign."""
    for q in range(q_min, q_max + 1):
        units = [s for s in range(1, q) if gcd(s, q) == 1]
        nonzero_r = [r for r in range(-q + 1, q) if r != 0]
        yield RationalParam(0, rng.choice(units), q)
        yield RationalParam(0, -rng.choice(units), q)
        for _ in range(per_q - 2):
            yield RationalParam(rng.choice(nonzero_r), rng.choice((-1, 1)) * rng.choice(units), q)


def test_certificate_matches_oracle():
    for param in all_params(20):
        assert certify_fixing(param) == oracle.certify_fixing(param), param


def test_certificate_matches_oracle_sampled_up_to_q_50():
    """A seeded sample of 300 parameters with 21 <= q <= 50, past the
    exhaustive test and up to the range of the benchmark's rational sweep:
    both parity cases, each with r = 0 and r != 0 and with s of both signs."""
    sample = list(sampled_params(21, 50, 10, random.Random(83)))
    cases = {((p.r % 2, p.s % 2) == (0, 0), p.r == 0, p.s < 0) for p in sample}
    assert cases == {(e, z, n) for e in (False, True) for z in (False, True) for n in (False, True)}
    for param in sample:
        assert certify_fixing(param) == oracle.certify_fixing(param), param


def test_certificate_builds_no_word_lattice_or_point(monkeypatch):
    """certify_fixing works on integers alone: with the constructors of
    GenWord, Lattice, TorusPoint and IntMat2 made to raise, every
    certificate still matches the oracle, and each solves its congruences
    exactly once."""
    from slittori.torus import Lattice
    from slittori.words import GenWord, IntMat2

    params = list(all_params(8))
    expected = [oracle.certify_fixing(param) for param in params]

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built while certifying")

    for cls in (GenWord, Lattice, TorusPoint, IntMat2):
        monkeypatch.setattr(cls, "__init__", refuse)
    calls = []
    solve = rational.solve_congruences
    monkeypatch.setattr(rational, "solve_congruences", lambda p: calls.append(p) or solve(p))
    for param, want in zip(params, expected):
        calls.clear()
        assert certify_fixing(param) == want, param
        assert len(calls) == 1, param


def test_certificate_runs_the_kernel_once(monkeypatch):
    """certify_fixing calls the kernel once, for the block, h+ leading, on
    Z/2q from the flat integers r, 0, s, 0; the h- period is the
    congruence of the period lemma, with no trace."""
    calls = []
    trace = rational._trace_lattice

    def spy(*args):
        calls.append(args)
        return trace(*args)

    monkeypatch.setattr(rational, "_trace_lattice", spy)
    for param in (barrier("1/4"), barrier("1/3"), RationalParam(1, 1, 2), RationalParam(-3, 5, 7)):
        calls.clear()
        assert certify_fixing(param).ok
        r, s, W = param.r, param.s, 2 * param.q
        assert calls == [(W, 0, r, 0, s, 0, "h+", block_for(param))], param


def test_period_congruence_is_the_traced_verdict():
    """The period lemma: for every parameter with q <= 12 and every n in
    1..4q, n r = 0 (mod 2q) exactly when the reference's step-by-step
    trace of (h-)^n from z = (r, s) on Z/2q ends at z with an action that
    fixes beta.  Every n is checked, not only the period, and both
    verdicts occur."""
    seen = set()
    for param in all_params(12):
        r, s, W = param.r, param.s, 2 * param.q
        for n in range(1, 2 * W + 1):
            x, y, action, _ = oracle_torus.trace_rational_core(
                r, s, W, GenWord.from_digits((n,), "h-"), False
            )
            traced = (x, y) == (r, s) and oracle_torus.entries_fix_beta(*action)
            assert (n * r % W == 0) == traced, (param, n)
            seen.add(traced)
    assert seen == {False, True}


def test_first_digit_clears_the_height_on_every_parameter_up_to_q_50():
    """The digit inequality of the rational theorem: B_1 (1 - |s|/q) >= 2
    for all 102,534 parameters with q <= 50.  The least margin
    B_1 (1 - |s|/q) / 2 is exactly 101/100, at (r, s, q) = (-48, -49, 50)
    and at (48, 49, 50), the reduced parameter with the same block."""
    margins = {
        p: Fraction(block_for(p)[0] * (p.q - abs(p.s)), 2 * p.q) for p in all_params(50)
    }
    assert len(margins) == 102_534
    least = min(margins.values())
    assert least == Fraction(101, 100)
    assert [p for p, m in margins.items() if m == least] == [
        RationalParam(-48, -49, 50), RationalParam(48, 49, 50)
    ]


def test_perturbed_block_fails_both_certificates(monkeypatch):
    for param in (barrier("1/4"), barrier("1/3"), RationalParam(1, 1, 2), RationalParam(-3, 5, 7)):
        good = block_for(param)
        for i in range(7):
            digits = good[:i] + (good[i] + 1,) + good[i + 1:]
            monkeypatch.setattr(rational, "block_for", lambda _, d=digits: d)
            new, old = certify_fixing(param), oracle.certify_fixing(param)
            assert not new.ok and new == old, (param, digits)
            monkeypatch.undo()


def test_zero_digit_is_refused_by_every_consumer(monkeypatch):
    """block_for's tuple carries no check of its own: a 0 digit forced
    into it at any place makes each consumer raise ValueError -- the
    certificate's trace, fixing_word's GenWord and the stream's
    BlockRecord."""
    for param in (barrier("1/4"), barrier("1/3"), RationalParam(1, 1, 2)):
        good = block_for(param)
        for i in range(7):
            digits = good[:i] + (0,) + good[i + 1:]
            monkeypatch.setattr(rational, "block_for", lambda _, d=digits: d)
            with pytest.raises(ValueError, match="exponent must be positive"):
                certify_fixing(param)
            with pytest.raises(ValueError, match="exponent must be positive"):
                fixing_word(param)
            with pytest.raises(ValueError, match="digits must be positive"):
                next(rational._rational_blocks(param, DigitRule("const", (4,))))
            monkeypatch.undo()


def test_negative_s_reduction():
    p = RationalParam(1, -1, 3)
    assert p.reduced() == RationalParam(-1, 1, 3)
    assert certify_fixing(p).ok
    # the word certifies at the original point too
    z = p.point()
    final, action = trace_word(z, fixing_word(p))
    assert final == z and entries_are_identity(*action)


def test_first_digit_dominates_height():
    for param in all_params(10):
        red = param.reduced()
        digits = block_for(param)
        q, s = red.q, red.s
        assert digits[0] > 2 * q
        # 2q >= 2/(1 - 2 (s/2q)) = 2q/(q - s) whenever s <= q - 1
        assert Fraction(2, 1) / (1 - 2 * Fraction(s, 2 * q)) == Fraction(2 * q, q - s)
        assert Fraction(2 * q, q - s) <= 2 * q
        assert all(d >= 1 for d in digits)


def test_direction_stream_digits():
    spec = direction_stream(barrier("1/4"), DigitRule("const", (1,)))
    assert spec.digits_prefix(16) == (5, 1, 1, 7, 1, 1, 2, 1) * 2
    assert spec.z0 == TorusPoint.of(0, Fraction(1, 4))
    assert spec.y_bounds[0] == spec.y_bounds[1] == Fraction(1, 4)
    spec6 = direction_stream(barrier("1/6"), DigitRule("arith", (6, 0)))
    assert spec6.digits_prefix(16) == (8, 1, 1, 11, 1, 1, 3, 6, 8, 1, 1, 11, 1, 1, 3, 12)


def test_nk_constraint_for_nonzero_r():
    param = RationalParam(1, 1, 2)  # z = (1/4, 1/4), period 2q = 4
    with pytest.raises(NkRuleError):
        direction_stream(param, DigitRule("const", (3,)))
    spec = direction_stream(param, DigitRule("const", (4,)))
    assert spec.digits_prefix(8)[-1] == 4
    with pytest.raises(NkRuleError):
        direction_stream(param, DigitRule("list", (4, 6)))
    with pytest.raises(NkRuleError):  # n_1 = 4 but n_2 = 5
        direction_stream(param, DigitRule("arith", (1, 3)))
    with pytest.raises(NkRuleError):  # the default digit 1
        direction_stream(param, DigitRule())


def test_nk_list_exhaustion():
    spec = direction_stream(barrier("1/4"), DigitRule("list", (1, 2)))
    assert spec.digits_prefix(16)[-1] == 2
    with pytest.raises(DigitStreamExhaustedError):
        spec.digits_prefix(24)


def test_d_choice_list_exhaustion(capsys):
    spec = direction_stream_irrational(ExactScalar(0, 1, 4, 2), DigitRule("list", (1, 2)))
    assert len(spec.digits_prefix(16)) == 16
    with pytest.raises(DigitStreamExhaustedError):
        spec.digits_prefix(24)
    code = main(["build", "--lambda", "0:1:4:2", "--d-choices", "list:1,2", "--blocks", "3"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert "DigitStreamExhaustedError" in json.loads(out.err)["error"]


def test_nk_rule_validation():
    with pytest.raises(ValueError):
        DigitRule("const", (0,))
    with pytest.raises(ValueError):
        DigitRule("arith", (0, 0))
    with pytest.raises(ValueError):
        DigitRule("nope", (1,))


def test_checkpoints_return_to_start():
    spec = direction_stream(barrier("1/4"), DigitRule("const", (1,)))
    for n in (1, 2, 3):
        assert spec.checkpoint_point(n) == spec.z0


def test_fixing_word_matrix_sanity():
    # the fixing word's matrix maps the surface point back to itself mod 1
    w = fixing_word(barrier("1/4"))
    m = w.matrix()
    assert m.entries() == (177, 448, 32, 81) and m.det() == 1
    x, y = Fraction(0), Fraction(1, 4)
    x, y = m.a * x + m.b * y, m.c * x + m.d * y
    assert (x, y) == (112, Fraction(81, 4))
    assert (x - 0) % 1 == 0 and (y - Fraction(1, 4)) % 1 == 0
