import random

import pytest

from slittori.words import (
    GenWord,
    H_MINUS,
    H_PLUS,
    IDENTITY,
    IntMat2,
    OMEGA,
    THETA,
    Convergents,
    check_relations,
)


def test_convergents_basic():
    c = Convergents((1, 1))
    assert (c.q(1), c.q(2)) == (1, 2)
    assert (c.p(1), c.p(2)) == (1, 1)
    assert c.value(2) == 0.5


def test_convergents_block():
    c = Convergents((5, 1, 1, 7, 1, 1, 2))
    assert (c.q(7), c.q(6), c.p(7), c.p(6)) == (448, 177, 81, 32)


def test_convergents_extended_block_and_det():
    c = Convergents((5, 1, 1, 7, 1, 1, 2, 1))
    assert (c.q(8), c.p(8)) == (625, 113)
    assert 625 * 81 - 448 * 113 == 1
    assert c.determinant_identity_holds()


def test_convergent_recurrence_and_growth():
    rng = random.Random(3)
    digits = [rng.randint(1, 9) for _ in range(40)]
    c = Convergents(digits)
    for k in range(1, 41):
        assert c.p(k) == digits[k - 1] * c.p(k - 1) + c.p(k - 2)
        assert c.q(k) == digits[k - 1] * c.q(k - 1) + c.q(k - 2)
    assert all(c.q(k) > c.q(k - 1) for k in range(2, 41))


def test_bad_digits_rejected():
    with pytest.raises(ValueError):
        Convergents((1, 0, 2))
    with pytest.raises(ValueError):
        Convergents((-1,))


def test_word_matrix_examples():
    assert GenWord.from_digits((1, 1)).matrix() == IntMat2(2, 1, 1, 1)
    w = GenWord.from_digits((5, 1, 1, 7, 1, 1, 2, 1))
    assert w.matrix() == IntMat2(625, 448, 113, 81)
    assert GenWord(()).matrix() == IDENTITY


def test_even_words_match_convergent_matrices():
    rng = random.Random(5)
    for _ in range(1000):
        k = 2 * rng.randint(1, 5)
        digits = tuple(rng.randint(1, 9) for _ in range(k))
        w = GenWord.from_digits(digits)
        assert w.matrix() == Convergents(digits).matrix(k)


def test_word_determinant_always_one():
    rng = random.Random(9)
    for _ in range(300):
        k = rng.randint(1, 8)
        digits = tuple(rng.randint(1, 9) for _ in range(k))
        lead = rng.choice(["h+", "h-"])
        assert GenWord.from_digits(digits, leading=lead).matrix().det() == 1


def test_check_relations():
    ok, failures = check_relations()
    assert ok and failures == []


def test_omega_order_four():
    assert OMEGA**4 == IDENTITY
    assert OMEGA**2 == IntMat2(-1, 0, 0, -1)


def test_mutated_generator_breaks_relations():
    bad = IntMat2(1, 2, 0, 1)
    assert bad * H_MINUS.inverse() * bad != OMEGA
    assert THETA * bad * THETA.inverse() != H_MINUS


def test_word_validation():
    with pytest.raises(ValueError):
        GenWord((("h+", 2), ("h+", 1)))
    with pytest.raises(ValueError):
        GenWord((("h+", 0),))
    with pytest.raises(ValueError):
        GenWord((("x", 1),))


def test_word_concat_merges_seam():
    w1 = GenWord.from_digits((2, 3))
    w2 = GenWord.from_digits((4, 1), leading="h-")
    merged = w1 * w2
    assert merged.syllables == (("h+", 2), ("h-", 7), ("h+", 1))
    assert merged.matrix() == w1.matrix() * w2.matrix()


def test_theta_conjugate():
    w = GenWord.from_digits((3, 1, 2))
    conj = w.theta_conjugate()
    assert conj.matrix() == THETA * w.matrix() * THETA.inverse()


def test_matrix_pow_and_inverse():
    assert H_PLUS**5 == IntMat2(1, 5, 0, 1)
    assert H_MINUS**-2 == IntMat2(1, 0, -2, 1)
    m = IntMat2(2, 1, 1, 1)
    assert m * m.inverse() == IDENTITY
    with pytest.raises(ValueError):
        IntMat2(2, 0, 0, 2).inverse()
