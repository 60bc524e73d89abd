"""Reference congruence scan and fixing certificate, for differential tests.

``solve_congruences`` reduces the parameter with ``reduced()``, takes the
parity case from r and s, scans 1..2q for every block exponent and checks
that each congruence has exactly gcd(s, 2q) solutions there.  ``certify_fixing``
traces the fixing word and the h- period step by step with the reference
tracer of ``oracle_torus`` and reads the canonical action entries with
that module's verdict rules.  The library's closed-form congruences and
lattice-integer certificate (:mod:`slittori.rational`) must agree with them
on every parameter.
"""

from __future__ import annotations

from math import gcd

import oracle_torus
from slittori.rational import (
    CongruenceError,
    FixingCertificate,
    RationalParam,
    fixing_word,
)
from slittori.words import GenWord


def solve_congruences(param: RationalParam) -> tuple[int, int, int | None]:
    param = param.reduced()
    r, s, q = param.r, param.s, param.q
    mod = 2 * q
    expected = gcd(abs(s), mod)
    if r % 2 or s % 2:  # odd case
        sols_a = [a for a in range(1, mod + 1) if (r + a * s + q) % mod == 0]
        sols_b = [b for b in range(1, mod + 1) if (b * s + s - q - r) % mod == 0]
        if len(sols_a) != expected or len(sols_b) != expected:
            raise CongruenceError(f"odd-case congruences for {param} gave {sols_a}, {sols_b}")
        return sols_a[0], sols_b[0], None
    sols_a = [a for a in range(1, mod + 1) if (a * s - (q - 1 - r)) % mod == 0]
    sols_a2 = [a for a in range(1, mod + 1) if (a * s - (q - 1 + r)) % mod == 0]
    if len(sols_a) != expected or len(sols_a2) != expected:
        raise CongruenceError(f"even-case congruences for {param} gave {sols_a}, {sols_a2}")
    return sols_a[0], abs(s), sols_a2[0]


def certify_fixing(param: RationalParam) -> FixingCertificate:
    z = param.point()
    word = fixing_word(param)
    final, _, action = oracle_torus.trace_word(z, word, record_points=False)
    period = 1 if param.r == 0 else 2 * param.q
    final_h, _, action_h = oracle_torus.trace_word(
        z, GenWord.from_digits((period,), "h-"), record_points=False
    )
    period_ok = final_h == z and oracle_torus.entries_fix_beta(*action_h)
    return FixingCertificate(
        fixes_point=(final == z) and period_ok,
        action_is_identity=oracle_torus.entries_are_identity(*action),
        h_minus_period=period,
    )
