import random
from fractions import Fraction
from math import floor

import mpmath
import pytest

from slittori.exact import ExactScalar, FieldMismatchError, mod_half_open, parse_scalar


def mp_value(s: ExactScalar):
    mpmath.mp.dps = 100
    return (mpmath.mpf(s.u) + mpmath.mpf(s.v) * mpmath.sqrt(s.D)) / s.w


def test_half_plus_half_sqrt2():
    a = ExactScalar(1, 0, 2)
    b = ExactScalar(0, 1, 2, 2)
    c = a + b
    assert c == ExactScalar(1, 1, 2, 2)
    assert c.sign() == 1


def test_sign_one_minus_sqrt2_negative():
    assert (ExactScalar(1) - ExactScalar(0, 1, 1, 2)).sign() == -1


def test_floor_sqrt2():
    assert floor(ExactScalar(0, 1, 1, 2)) == 1


def test_mod_half_open_examples():
    assert mod_half_open(Fraction(-3, 4)) == ExactScalar(1, 0, 4)
    assert mod_half_open(Fraction(1, 2)) == ExactScalar(-1, 0, 2)
    assert mod_half_open(ExactScalar(0, 1, 1, 2)) == ExactScalar(-1, 1, 1, 2)
    # the result has the type of the input
    for x, want in (
        (Fraction(-3, 4), Fraction(1, 4)),
        (Fraction(1, 4), Fraction(1, 4)),
        (7, 0),
        (0, 0),
        (ExactScalar(1, 0, 2), ExactScalar(-1, 0, 2)),
        (ExactScalar(0, 1, 1, 2), ExactScalar(-1, 1, 1, 2)),
    ):
        got = mod_half_open(x)
        assert type(got) is type(x) and got == want


def test_mod_half_open_properties():
    rng = random.Random(7)
    for _ in range(300):
        x = ExactScalar(rng.randint(-40, 40), rng.randint(-6, 6), rng.randint(1, 9), 5)
        m = mod_half_open(x)
        assert ExactScalar(-1, 0, 2) <= m < ExactScalar(1, 0, 2)
        diff = x - m
        assert diff.is_rational and diff.as_fraction().denominator == 1


def test_normalization():
    assert ExactScalar(2, 0, 4).as_tuple() == (1, 0, 2, 0)
    assert ExactScalar(0, 1, 1, 8).as_tuple() == (0, 2, 1, 2)  # sqrt(8) = 2 sqrt(2)
    assert ExactScalar(3, 2, 1, 1).as_tuple() == (5, 0, 1, 0)  # sqrt(1) folds
    assert ExactScalar(1, 1, -2, 2).as_tuple() == (-1, -1, 2, 2)
    assert ExactScalar(0, 5, 10, 0).as_tuple() == (0, 0, 1, 0)  # D=0 forces v=0
    # the two one-argument forms
    assert ExactScalar(Fraction(3, 6)).as_tuple() == (1, 0, 2, 0)
    assert ExactScalar(ExactScalar(1, 1, 2, 2)).as_tuple() == (1, 1, 2, 2)


@pytest.mark.parametrize(
    "args",
    [(0.5,), (Fraction(1, 2), 0, 3), (Fraction(3, 2), 1, 2, 2), (1, 2.0), (1, 0, Fraction(2))],
    ids=["float", "fraction-over-w", "fraction-with-sqrt", "float-v", "fraction-w"],
)
def test_non_integer_components_are_refused(args):
    """A component that is not an int raises instead of being truncated:
    these once gave 0, 0, (1 + sqrt 2)/2, 1 and 1/2."""
    with pytest.raises(TypeError):
        ExactScalar(*args)


def test_round_trip_add_sub():
    rng = random.Random(11)
    for _ in range(500):
        a = ExactScalar(rng.randint(-30, 30), rng.randint(-9, 9), rng.randint(1, 12), 3)
        b = ExactScalar(rng.randint(-30, 30), rng.randint(-9, 9), rng.randint(1, 12), 3)
        assert (a + b) - b == a
        if not b.is_zero:
            assert (a / b) * b == a


def test_order_against_mpmath():
    rng = random.Random(13)
    for _ in range(400):
        D = rng.choice([2, 3, 5, 7])
        a = ExactScalar(rng.randint(-50, 50), rng.randint(-9, 9), rng.randint(1, 15), D)
        b = ExactScalar(rng.randint(-50, 50), rng.randint(-9, 9), rng.randint(1, 15), D)
        if a == b:
            assert abs(mp_value(a) - mp_value(b)) < mpmath.mpf(10) ** -80
            continue
        assert (a < b) == (mp_value(a) < mp_value(b))


def mp_floor(s: ExactScalar) -> int:
    """floor(s) in mpmath at a precision that resolves it: a nonzero
    u + v sqrt(D) has norm at least 1, so it lies at least
    1/(|u| + |v| sqrt(D)) from zero, and about twice the coefficients' bits
    separate the value from every integer."""
    bits = 4 * (abs(s.u).bit_length() + abs(s.v).bit_length() + s.w.bit_length()) + 64
    with mpmath.workprec(bits):
        return int(mpmath.floor((mpmath.mpf(s.u) + mpmath.mpf(s.v) * mpmath.sqrt(s.D)) / s.w))


def pell_near_integers():
    """(w n + j + sign (1 - sqrt 2)^k)/w for j in {-1, 0, 1}: within
    2.4**-k of an integer or of an integer +- 1/w, on both sides, with
    coefficients up to 2.2 kbit and both signs of v."""
    a, b = 1, 0  # (1 + sqrt 2)^k = a + b sqrt 2, (1 - sqrt 2)^k = a - b sqrt 2
    for k in range(1, 1800):
        a, b = a + 2 * b, a + b
        if k > 40 and k % 37:
            continue
        for w in (1, 2, 3, 7):
            for sign in (1, -1):
                for j in (-1, 0, 1):
                    n = (-1) ** k * (k + w)
                    yield ExactScalar(w * n + j + sign * a, -sign * b, w, 2)
            for j in (1, -1):  # ((1 + sqrt 2)^k +- 1)/w
                yield ExactScalar(a + j, b, w, 2)


def big_scalars(rng, count, bits):
    for _ in range(count):
        u = rng.choice((-1, 1)) * rng.getrandbits(bits + rng.randrange(512))
        v = rng.choice((-1, 1)) * rng.getrandbits(bits + rng.randrange(512))
        yield ExactScalar(u, v, rng.getrandbits(64) or 1, rng.choice([2, 3, 5, 6, 7, 13]))


def test_floor_against_mpmath():
    rng = random.Random(17)
    for _ in range(400):
        D = rng.choice([2, 3, 5])
        a = ExactScalar(rng.randint(-200, 200), rng.randint(-30, 30), rng.randint(1, 9), D)
        assert floor(a) == int(mpmath.floor(mp_value(a)))
    cases = [*pell_near_integers(), *big_scalars(random.Random(19), 200, 2048)]
    assert sum(c.v < 0 for c in cases) > 200 and max(c.v.bit_length() for c in cases) > 2048
    for a in cases:
        assert floor(a) == mp_floor(a), a


def test_mixed_field_rejected():
    with pytest.raises(FieldMismatchError):
        ExactScalar(0, 1, 1, 2) + ExactScalar(0, 1, 1, 3)
    # rational operand is fine with any D
    assert ExactScalar(0, 1, 1, 2) + ExactScalar(1) == ExactScalar(1, 1, 1, 2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ExactScalar(1) / ExactScalar(0)


def test_enclosure_width_and_containment():
    x = ExactScalar(3, -2, 7, 5)
    lo, hi = x.enclosure(80)
    assert hi - lo <= Fraction(1, 2**79)
    v = mp_value(x)
    assert mpmath.mpf(lo.numerator) / lo.denominator <= v <= mpmath.mpf(hi.numerator) / hi.denominator
    cases = [*pell_near_integers(), *big_scalars(random.Random(23), 100, 2048)]
    for x in cases[::3]:
        for bits in (1, 64, 256):
            lo, hi = x.enclosure(bits)
            assert hi - lo <= Fraction(1, 1 << bits)
            assert lo < x < hi, (x, bits)  # exact comparisons


def test_parse_scalar():
    assert parse_scalar("3/4") == ExactScalar(3, 0, 4)
    assert parse_scalar("0:1:4:2") == ExactScalar(0, 1, 4, 2)
    with pytest.raises(ValueError):
        parse_scalar("1:2:3")


def test_comparisons_with_fraction_and_int():
    s = ExactScalar(0, 1, 1, 2)
    assert s > 1
    assert s < Fraction(3, 2)
    assert Fraction(3, 2) > s  # reflected
    assert s >= ExactScalar(0, 1, 1, 2)


def test_hash_consistent_with_eq():
    assert hash(ExactScalar(2, 0, 4)) == hash(Fraction(1, 2))
    assert len({ExactScalar(1, 1, 2, 2), ExactScalar(1, 1, 2, 2)}) == 1


def test_radicand_is_split_once():
    """Arithmetic in one field splits its radicand once: 100 additions at
    D = 2**32 - 5, a prime just under MAX_RADICAND whose trial division
    takes milliseconds, record one cache miss."""
    from slittori import exact

    D = 2**32 - 5
    assert D <= exact.MAX_RADICAND
    exact._squarefree_split.cache_clear()
    step = ExactScalar(1, 1, 3, D)
    total = ExactScalar(0)
    for _ in range(100):
        total = total + step
    assert total == ExactScalar(100, 100, 3, D)
    assert exact._squarefree_split.cache_info().misses == 1
